"""The per-point Crank-Nicolson oracle, kept as the tests' reference.

``parakern.oracle`` assembles its operator from diagonal arrays and
evaluates each coefficient part on the grid once per solve.  This module
keeps the earlier form verbatim: a ``lil_matrix`` filled row by row at
every assembly, the Dirichlet row rewrite, ``tolil`` copies in the Robin
step and one ``eval`` per grid point per step in ``fd_solve``.  The pin
tests require the two to agree bit for bit.

Not a test module: pytest does not collect it; tests import it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from parakern.errors import ParameterError
from parakern.oracle import FDConfig, _check_explicit_stability


def fd_solve_linear(lo: float, hi: float, horizon: float, cfg: FDConfig,
                    phi: Callable, drift=None, potential=None, source=None,
                    components: int = 1,
                    robin_alpha: Callable | None = None,
                    robin_psi: Callable | None = None,
                    sample_times: Sequence[float] | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Crank-Nicolson march for 1D linear systems with first-order coupling.

    ``drift(i, j, t, xgrid)`` returns the coefficient array of
    b^i_j d u_j/dx in equation i (components coupling, one spatial
    direction).  ``potential(i, t, xgrid)`` and ``source(i, t, xgrid)``
    follow the same convention.  Returns (times, grid, values) with values
    of shape (ntimes, npoints, components).

    Boundary handling: homogeneous Dirichlet on a deliberately oversized
    box, or Robin rows du/dnu + alpha u = psi via ghost-point elimination.
    """
    nx = int(round((hi - lo) / cfg.h)) + 1
    grid = lo + cfg.h * np.arange(nx)
    nsteps = int(round(horizon / cfg.dt))
    if abs(nsteps * cfg.dt - horizon) > 1e-12 * max(1.0, horizon):
        nsteps = int(math.ceil(horizon / cfg.dt))
    dt = horizon / nsteps

    m = components
    u = np.zeros((nx, m))
    for j in range(m):
        u[:, j] = np.array([phi(xi, j) for xi in grid]) if m > 1 else \
            np.array([phi(xi) for xi in grid])

    sample_times = sorted(sample_times or [horizon])
    out_times, out_vals = [], []

    time_dependent = getattr(drift, "time_dependent", False) or \
        getattr(potential, "time_dependent", False)

    def assemble(t_mid):
        """Operator L u = u_xx + sum_j b^i_j du_j/dx + V_i u_i, row-blocked."""
        n_all = nx * m
        A = scipy.sparse.lil_matrix((n_all, n_all))
        inv_h2 = 1.0 / (cfg.h * cfg.h)
        inv_2h = 1.0 / (2.0 * cfg.h)
        for i in range(m):
            base = i * nx
            rows = np.arange(1, nx - 1)
            A[base + rows, base + rows - 1] = inv_h2
            A[base + rows, base + rows] = -2.0 * inv_h2
            A[base + rows, base + rows + 1] = inv_h2
            if potential is not None:
                v = potential(i, t_mid, grid)
                A[base + rows, base + rows] += v[1:-1] if np.ndim(v) else v
            if drift is not None:
                for j in range(m):
                    b = drift(i, j, t_mid, grid)
                    if b is None:
                        continue
                    b = np.broadcast_to(np.asarray(b, dtype=float), (nx,))
                    off = j * nx
                    for r in rows:
                        if b[r] != 0.0:
                            A[base + r, off + r + 1] += b[r] * inv_2h
                            A[base + r, off + r - 1] -= b[r] * inv_2h
        return A.tocsr()

    def robin_terms(t):
        """Ghost-point corrections for du/dnu + alpha u = psi at both ends.

        Outward normal: -d/dx at lo, +d/dx at hi.  The ghost value is
        eliminated into the boundary row of the standard 3-point stencil.
        """
        al_lo = robin_alpha(t, lo)
        al_hi = robin_alpha(t, hi)
        ps_lo = robin_psi(t, lo)
        ps_hi = robin_psi(t, hi)
        return al_lo, al_hi, ps_lo, ps_hi

    if cfg.scheme != "crank_nicolson":
        raise ParameterError("linear reference solver is Crank-Nicolson only")

    ident = scipy.sparse.identity(nx * m, format="csr")
    lu = None
    A_cached = None

    t = 0.0
    next_sample = 0
    # record t=0 if requested
    while next_sample < len(sample_times) and sample_times[next_sample] <= 1e-14:
        out_times.append(0.0)
        out_vals.append(u.copy())
        next_sample += 1

    for step in range(nsteps):
        t_mid = t + dt / 2.0
        if lu is None or time_dependent:
            A_cached = assemble(t_mid)
            M1 = (ident - (dt / 2.0) * A_cached).tolil()
            M2 = (ident + (dt / 2.0) * A_cached).tocsr()
            if cfg.boundary == "large_box_dirichlet":
                for i in range(m):
                    for r in (i * nx, i * nx + nx - 1):
                        M1.rows[r] = [r]
                        M1.data[r] = [1.0]
            lu = scipy.sparse.linalg.splu(M1.tocsc())
            M2_cached = M2

        rhs = M2_cached @ u.T.ravel()
        if source is not None:
            for i in range(m):
                rhs[i * nx:(i + 1) * nx] += dt * np.asarray(
                    source(i, t_mid, grid), dtype=float)

        if cfg.boundary == "large_box_dirichlet":
            for i in range(m):
                rhs[i * nx] = 0.0
                rhs[i * nx + nx - 1] = 0.0
            new = lu.solve(rhs)
        else:
            # Robin: fold the ghost elimination into an explicit correction.
            # For desk-scale use we re-assemble dense boundary rows each step.
            new = _robin_cn_step(u.T.ravel(), A_cached, dt, grid, cfg.h, m, nx,
                                 robin_terms, t, source)
        u = new.reshape(m, nx).T
        t += dt
        while (next_sample < len(sample_times)
               and sample_times[next_sample] <= t + 1e-12):
            out_times.append(t)
            out_vals.append(u.copy())
            next_sample += 1

    return np.array(out_times), grid, np.array(out_vals)


def _robin_cn_step(uvec, A, dt, grid, h, m, nx, robin_terms, t, source):
    """One CN step with Robin rows built by ghost-point elimination.

    At x_lo: -u_x + a u = psi  =>  ghost u_{-1} = u_1 - 2h(a u_0 - psi).
    The second-difference row at the boundary then closes.  Scalar only.
    """
    if m != 1:
        raise ParameterError("Robin reference rows support scalar problems")
    inv_h2 = 1.0 / (h * h)
    A = A.tolil(copy=True)
    al_lo0, al_hi0, ps_lo0, ps_hi0 = robin_terms(t)
    al_lo1, al_hi1, ps_lo1, ps_hi1 = robin_terms(t + dt)

    def boundary_rows(al_lo, al_hi):
        B = A.copy()
        B[0, 0] = (-2.0 - 2.0 * h * al_lo) * inv_h2
        B[0, 1] = 2.0 * inv_h2
        B[nx - 1, nx - 1] = (-2.0 - 2.0 * h * al_hi) * inv_h2
        B[nx - 1, nx - 2] = 2.0 * inv_h2
        return B.tocsr()

    B0 = boundary_rows(al_lo0, al_hi0)
    B1 = boundary_rows(al_lo1, al_hi1)
    ident = scipy.sparse.identity(nx, format="csr")
    g0 = np.zeros(nx)
    g1 = np.zeros(nx)
    g0[0] = 2.0 * ps_lo0 / h
    g0[-1] = 2.0 * ps_hi0 / h
    g1[0] = 2.0 * ps_lo1 / h
    g1[-1] = 2.0 * ps_hi1 / h
    rhs = (ident + (dt / 2.0) * B0) @ uvec + (dt / 2.0) * (g0 + g1)
    if source is not None:
        rhs += dt * np.asarray(source(0, t + dt / 2.0, grid), dtype=float)
    M = (ident - (dt / 2.0) * B1).tocsc()
    return scipy.sparse.linalg.spsolve(M, rhs)


def fd_solve(ps, cfg: FDConfig, sample_times: Sequence[float] | None = None):
    """Reference solution of a ProblemSpec on its own box (1D).

    Dispatches to the Crank-Nicolson march (cauchy/ibvp2, with Robin rows
    in the ibvp2 case) or the explicit nonlinear stepper (burgers).  The
    problem container is consumed duck-typed so this module stays free of
    expansion-side imports.
    """
    from parakern.solvers import GridSolution

    lo, hi = ps.domain_lo[0], ps.domain_hi[0]
    if len(ps.domain_lo) != 1:
        raise ParameterError("the reference solver is desk-scale 1D only")
    pc = ps.coefficients

    if ps.kind == "burgers":
        h = 1e-5

        def v0(x):
            return -(ps.phi0.eval(0.0, np.array([x + h]))
                     - ps.phi0.eval(0.0, np.array([x - h]))) / (2 * h)

        ts, grid, vals = fd_solve_burgers(lo, hi, ps.horizon, cfg, v0, ps.nu,
                                          sample_times)
        return GridSolution(ts, grid[:, None], vals[:, :, None],
                            {"kind": "burgers", "scheme": cfg.scheme})

    m = pc.components

    def drift(i, j, t, grid):
        entry = pc.drift.get((i, j, 0))
        if entry is None:
            return None
        return np.array([entry.eval(t, np.array([xi])) for xi in grid])

    drift.time_dependent = pc.time_dependent

    potential = None
    if pc.potential:
        def potential(i, t, grid):
            entry = pc.potential.get(i)
            if entry is None:
                return np.zeros_like(grid)
            return np.array([entry.eval(t, np.array([xi])) for xi in grid])
        potential.time_dependent = pc.time_dependent

    source = None
    if not _is_zero_spec(ps.source):
        def source(i, t, grid):
            return np.array([ps.source.eval(t, np.array([xi]))
                             for xi in grid])

    def phi(x, j=0):
        return ps.phi.eval(0.0, np.array([x]))

    kwargs = {}
    if ps.kind == "ibvp2":
        cfg = FDConfig(cfg.h, cfg.dt, cfg.scheme, "exact_robin")
        kwargs = {
            "robin_alpha": lambda t, x: ps.alpha.eval(t, np.array([x])),
            "robin_psi": lambda t, x: ps.psi.eval(t, np.array([x])),
        }
    ts, grid, vals = fd_solve_linear(lo, hi, ps.horizon, cfg, phi,
                                     drift=drift, potential=potential,
                                     source=source, components=m,
                                     sample_times=sample_times, **kwargs)
    return GridSolution(ts, grid[:, None], vals,
                        {"kind": ps.kind, "scheme": cfg.scheme,
                         "boundary": cfg.boundary})


def _is_zero_spec(spec) -> bool:
    return spec is None or type(spec).__name__ == "ZeroFunc"


def fd_solve_burgers(lo: float, hi: float, horizon: float, cfg: FDConfig,
                     v0: Callable[[float], float], nu: float,
                     sample_times: Sequence[float] | None = None):
    """Explicit reference for 1D viscous Burgers v_t + v v_x = nu v_xx.

    Central differences, forward Euler; Dirichlet values pinned to the
    initial profile (adequate for desk-scale comparisons away from the
    boundary).
    """
    if cfg.scheme != "explicit":
        raise ParameterError("Burgers reference uses the explicit scheme")
    _check_explicit_stability(cfg, 1)
    nx = int(round((hi - lo) / cfg.h)) + 1
    grid = lo + cfg.h * np.arange(nx)
    nsteps = int(math.ceil(horizon / cfg.dt))
    dt = horizon / nsteps
    v = np.array([v0(xi) for xi in grid], dtype=float)
    sample_times = sorted(sample_times or [horizon])
    out_t, out_v = [], []
    t = 0.0
    k = 0
    for step in range(nsteps):
        vx = np.zeros_like(v)
        vxx = np.zeros_like(v)
        vx[1:-1] = (v[2:] - v[:-2]) / (2 * cfg.h)
        vxx[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (cfg.h * cfg.h)
        v = v + dt * (nu * vxx - v * vx)
        v[0] = v0(grid[0])
        v[-1] = v0(grid[-1])
        t += dt
        while k < len(sample_times) and sample_times[k] <= t + 1e-12:
            out_t.append(t)
            out_v.append(v.copy())
            k += 1
    return np.array(out_t), grid, np.array(out_v)
