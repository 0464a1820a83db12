"""Analytic heat-kernel expansions for drift-coupled parabolic systems.

Core layers:

* :mod:`parakern.polyalg`   -- truncated Taylor-coefficient arrays and entries.
* :mod:`parakern.recursion` -- expansion-coefficient recursions and warps.
* :mod:`parakern.kernel`    -- kernel assembly and diagnostics.
* :mod:`parakern.solvers`   -- Cauchy, second-type boundary and Burgers
  solution representations.
* :mod:`parakern.oracle`    -- independent reference kernels and solvers.
* :mod:`parakern.cli`       -- batch command-line interface.
"""

__version__ = "0.1.0"
