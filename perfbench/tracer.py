"""Span tracing of parakern's layers, installed from outside the package.

The tracer wraps every public function of the layer modules (and the
public methods of the classes they define), then rebinds each name
wherever a caller looks it up: ``kernel.expand`` as well as
``recursion.expand``, the ``from .polyalg import ...`` names inside
``recursion`` and ``kernel``, class attributes for methods.  Nothing in
``src/`` is edited.  Two third-party calls are probed the same way because
their counts matter: ``numpy.polynomial.legendre.leggauss`` (the solvers'
Gauss-Legendre rules) and ``scipy.sparse.linalg.splu`` (the oracle's
factorisations).

Each call becomes a span (name, start, end, parent, op id) kept in compact
arrays and written out by :meth:`Tracer.save`.  Calls, busy time (time
with at least one span of the group or layer open) and self time (span
duration minus the part its child spans cover) are aggregated online.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from array import array

import numpy as np
import numpy.polynomial.legendre as np_legendre
import scipy.sparse.linalg as sp_linalg

LAYERS = ("problemfile", "polyalg", "recursion", "kernel", "solvers",
          "oracle", "cli")

# Functions whose calls are reported together under one metric group.
GROUPS = {
    "problemfile.load_problem_dict": "problemfile.load",
    "problemfile.load_problem_file": "problemfile.load",
    "kernel.eval_kernel": "kernel.eval",
    "kernel.kernel_log_gradient": "kernel.eval",
    "kernel.log_correction": "kernel.eval",
    "kernel.KernelField.expansion": "kernel.expansion",
    "kernel.KernelField.correction": "kernel.correction",
    "kernel.KernelField.pair_log_value": "kernel.pair",
    "kernel.KernelField.pair_log_gradient": "kernel.pair",
    "solvers.GridSolution.to_csv": "solvers.write",
    "solvers.GridSolution.to_json": "solvers.write",
    "solvers.BoundaryDensity.to_csv": "solvers.write",
    "cli.csv.writerow": "solvers.write",
    "numpy.leggauss": "solvers.leggauss",
    "scipy.splu": "oracle.splu",
}

# Arithmetic dunders of the value types are polyalg work done for callers.
_DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")


def _group(qualname: str) -> str:
    if qualname in GROUPS:
        return GROUPS[qualname]
    layer, _, rest = qualname.partition(".")
    return f"{layer}.{rest.rsplit('.', 1)[-1]}"


class Tracer:
    """Installs span wrappers on the parakern layers and aggregates them."""

    def __init__(self, package):
        self.package = package
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.names: list[str] = []
        self.name_group: list[int] = []
        self.name_layer: list[int] = []
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.layers = list(LAYERS)
        # span rows
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        # online aggregates
        self.g_calls: list[int] = []
        self.g_busy: list[float] = []
        self.g_self: list[float] = []
        self.g_depth: list[int] = []
        self.l_busy = [0.0] * len(LAYERS)
        self.l_self = [0.0] * len(LAYERS)
        self.l_depth = [0] * len(LAYERS)
        self.stack: list[list] = []
        self.op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- registration --------------------------------------------------------

    def _group_id(self, group: str) -> int:
        gid = self._group_ids.get(group)
        if gid is None:
            gid = self._group_ids[group] = len(self.groups)
            self.groups.append(group)
            self.g_calls.append(0)
            self.g_busy.append(0.0)
            self.g_self.append(0.0)
            self.g_depth.append(0)
        return gid

    def _wrap(self, fn, qualname: str, layer: str):
        sid = len(self.names)
        gid = self._group_id(_group(qualname))
        lid = LAYERS.index(layer)
        self.names.append(qualname)
        self.name_group.append(gid)
        self.name_layer.append(lid)
        tr = self
        clock = self.clock
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end = self.s_start, self.s_end
        stack = self.stack
        g_calls, g_busy, g_self, g_depth = (self.g_calls, self.g_busy,
                                            self.g_self, self.g_depth)
        l_busy, l_self, l_depth = self.l_busy, self.l_self, self.l_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(s_name)
            frame = [idx, 0.0]
            s_name.append(sid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(tr.op)
            s_end.append(0.0)
            stack.append(frame)
            g_depth[gid] += 1
            l_depth[lid] += 1
            start = clock()
            s_start.append(start - tr.t0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                s_end[idx] = end - tr.t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                g_calls[gid] += 1
                g_self[gid] += own
                l_self[lid] += own
                g_depth[gid] -= 1
                if not g_depth[gid]:
                    g_busy[gid] += dur
                l_depth[lid] -= 1
                if not l_depth[lid]:
                    l_busy[lid] += dur
        return wrapper

    def _build_patches(self):
        """Plan every (namespace, attribute, original, wrapper) rebinding."""
        pkg = self.package
        modules = [getattr(pkg, name) for name in LAYERS]
        originals: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{name}",
                                                    layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._plan_class(obj, layer)
        # rebind module-level names in every parakern namespace that holds
        # one of the originals (import-time copies included)
        namespaces = [m for m in vars(pkg).values() if inspect.ismodule(m)
                      and m.__name__.startswith(pkg.__name__ + ".")]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, name, obj, wrapper))
        self._patches.append((
            np_legendre, "leggauss", np_legendre.leggauss,
            self._wrap(np_legendre.leggauss, "numpy.leggauss", "solvers")))
        self._patches.append((
            sp_linalg, "splu", sp_linalg.splu,
            self._wrap(sp_linalg.splu, "scipy.splu", "oracle")))
        writerow = self._wrap(lambda writer, row: writer.writerow(row),
                              "cli.csv.writerow", "cli")
        self._patches.append((pkg.cli, "csv", pkg.cli.csv,
                              _CsvShim(writerow)))

    def _plan_class(self, cls, layer: str):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, qual, layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, qual, layer)
            else:
                continue
            self._patches.append((cls, name, raw, wrapped))

    # -- switching -------------------------------------------------------------

    def install(self):
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, original, _ in self._patches:
            setattr(ns, name, original)

    # -- results ---------------------------------------------------------------

    def call_counts(self) -> dict[str, int]:
        return dict(zip(self.groups, self.g_calls))

    def group_stat(self, group: str) -> tuple[int, float, float]:
        """(calls, busy seconds, self seconds) accumulated for one group."""
        gid = self._group_ids.get(group)
        if gid is None:
            return 0, 0.0, 0.0
        return self.g_calls[gid], self.g_busy[gid], self.g_self[gid]

    def layer_stat(self, layer: str) -> tuple[float, float]:
        """(busy seconds, self seconds) accumulated for one layer."""
        lid = LAYERS.index(layer)
        return self.l_busy[lid], self.l_self[lid]

    def durations(self, qualname: str) -> np.ndarray:
        """Durations of every recorded span of one wrapped function."""
        sid = self.names.index(qualname)
        names = np.frombuffer(self.s_name, dtype=np.int32)
        mask = names == sid
        return (np.frombuffer(self.s_end)[mask]
                - np.frombuffer(self.s_start)[mask])

    @property
    def span_count(self) -> int:
        return len(self.s_name)

    def save(self, path: str):
        np.savez(path,
                 name=np.frombuffer(self.s_name, dtype=np.int32),
                 start=np.frombuffer(self.s_start),
                 end=np.frombuffer(self.s_end),
                 parent=np.frombuffer(self.s_parent, dtype=np.int32),
                 op=np.frombuffer(self.s_op, dtype=np.int32),
                 names=np.array(self.names),
                 groups=np.array([self.groups[g] for g in self.name_group]),
                 layers=np.array([LAYERS[l] for l in self.name_layer]))


class _CsvShim:
    """Stands in for the ``csv`` module inside ``cli`` while tracing.

    ``cmd_eval`` streams its output through ``csv.writer``; the shim's
    writers route each row through a traced call so output writing shows
    up as its own span.
    """

    def __init__(self, writerow):
        self._writerow = writerow
        self.reader = csv.reader

    def writer(self, *args, **kwargs):
        return _Writer(csv.writer(*args, **kwargs), self._writerow)


class _Writer:
    def __init__(self, writer, writerow):
        self._writer = writer
        self._writerow = writerow

    def writerow(self, row):
        return self._writerow(self._writer, row)
