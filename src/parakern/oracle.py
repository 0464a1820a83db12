"""Independent ground-truth layer.

Exact kernels, adaptive ray quadrature, Gauss-Hermite convolution and a
Crank-Nicolson reference solver.  Nothing here imports the expansion
modules but ``GridSolution``, the result container: agreement between
this module and the expansion machinery is evidence, not tautology.
``fd_solve`` reads a problem duck-typed.  Each part (l, e_l) of a drift or
potential entry sum_l t^l e_l(x) is read through ``parts`` and evaluated
on the grid once per solve, in one call on the array of grid points, and
so are the initial data and a source whose ``time_dependent`` is false;
a time-dependent source is evaluated on the grid at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import AccuracyError, ParameterError

# ---------------------------------------------------------------------------
# exact kernels
# ---------------------------------------------------------------------------


def exact_const_drift_kernel(b0: float, b1: float, t: float,
                             x: float, y: float) -> float:
    """Exact 1D kernel of u_t = u_xx + (b0 + b1 t) u_x.

    Method of characteristics: shifting x by B(t) = b0 t + b1 t^2/2 removes
    the drift, so the kernel is a translated Gaussian.
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    dx = x - y
    shift = dx + b0 * t + b1 * t * t / 2.0
    return math.exp(-shift * shift / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def exact_const_drift_log(b0: float, b1: float, t: float,
                          x: float, y: float) -> float:
    if t <= 0:
        raise ParameterError("t must be positive")
    dx = x - y
    shift = dx + b0 * t + b1 * t * t / 2.0
    return -shift * shift / (4.0 * t) - 0.5 * math.log(4.0 * math.pi * t)


def const_drift_series_coeffs(b0: float, b1: float) -> list[dict]:
    """Closed-form expansion coefficients of the constant/linear drift kernel.

    Entry k maps (gamma, time power) -> coefficient of dx^gamma t^l inside
    c_k, read off the exact exponent
    -(dx + b0 t + b1 t^2/2)^2/(4t) = -dx^2/(4t) + sum_k c_k(t, dx) t^k.
    """
    return [
        {(1, 0): -b0 / 2.0, (1, 1): -b1 / 2.0},
        {(1, 0): b1 / 4.0, (0, 0): -b0 * b0 / 4.0,
         (0, 1): -b0 * b1 / 2.0, (0, 2): -b1 * b1 / 4.0},
        {(0, 0): b0 * b1 / 4.0, (0, 1): b1 * b1 / 4.0},
        {(0, 0): -b1 * b1 / 16.0},
    ]


def exact_potential_kernel(v0: float, t: float, x: float, y: float) -> float:
    """Kernel of u_t = u_xx + v0 u: plain Gaussian times exp(v0 t)."""
    if t <= 0:
        raise ParameterError("t must be positive")
    dx = x - y
    return math.exp(-dx * dx / (4.0 * t) + v0 * t) / math.sqrt(4.0 * math.pi * t)


# ---------------------------------------------------------------------------
# ray quadrature
# ---------------------------------------------------------------------------

def _panel_gl(f, lo: float, hi: float, a: float, order: int) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    vals = np.array([f(si) for si in s]) * s ** (a - 1.0)
    return float(np.dot(w, vals))


def quad_ray(f: Callable[[float], float], a: float,
             tol: float = 1e-13) -> float:
    """Adaptive evaluation of ``int_0^1 f(s) s^(a-1) ds``.

    Gauss-Legendre panels, dyadically graded toward 0 when a < 1 so the
    integrable endpoint singularity never meets a polynomial rule head on.
    """
    if a <= 0:
        raise ParameterError("ray exponent a must be positive")
    if a >= 1:
        panels = [(0.0, 1.0)]
    else:
        # [2^-M, 1] split dyadically; tail bounded by max|f| 2^-Ma / a
        fmax = max(abs(f(s)) for s in (1e-9, 1e-6, 1e-3, 0.5, 1.0)) + 1.0
        m_tail = max(4, int(math.ceil(math.log2(fmax / (a * tol)) / a)) + 1)
        edges = [0.0] + [2.0 ** (-m) for m in range(m_tail, -1, -1)]
        panels = list(zip(edges[:-1], edges[1:]))
    total = 0.0
    for lo, hi in panels:
        if lo == 0.0 and a < 1:
            # analytic tail estimate; panel small enough that f is ~constant
            total += f(hi / 2) * hi ** a / a
            continue
        prev = _panel_gl(f, lo, hi, a, 8)
        for order in (16, 32, 64, 128):
            cur = _panel_gl(f, lo, hi, a, order)
            if abs(cur - prev) <= tol / max(1, len(panels)):
                prev = cur
                break
            prev = cur
        else:
            raise AccuracyError(
                f"quad_ray failed to converge on panel [{lo}, {hi}]")
        total += prev
    return total


# ---------------------------------------------------------------------------
# Gauss-Hermite convolution
# ---------------------------------------------------------------------------

def gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Physicists' Gauss-Hermite rule (weight exp(-z^2))."""
    return np.polynomial.hermite.hermgauss(order)


def gh_convolve(g: Callable[[np.ndarray], float], x: Sequence[float],
                t: float, order: int = 40) -> float:
    """``int (4 pi t)^(-n/2) exp(-|x-y|^2/(4t)) g(y) dy``.

    Tensor Gauss-Hermite after the substitution y = x + 2 sqrt(t) z.
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    x = np.asarray(x, dtype=float)
    n = x.size
    z, w = gh_nodes(order)
    if n == 1:
        ys = x[0] + 2.0 * math.sqrt(t) * z
        vals = np.array([g(np.array([yi])) for yi in ys])
        return float(np.dot(w, vals)) / math.sqrt(math.pi)
    total = 0.0
    grids = np.meshgrid(*([z] * n), indexing="ij")
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    zs = np.stack([gg.ravel() for gg in grids], axis=1)
    ws = np.prod(np.stack([gg.ravel() for gg in wgrids], axis=1), axis=1)
    ys = x[None, :] + 2.0 * math.sqrt(t) * zs
    vals = np.array([g(yi) for yi in ys])
    total = float(np.dot(ws, vals))
    return total / math.pi ** (n / 2.0)


# ---------------------------------------------------------------------------
# finite-difference reference solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDConfig:
    """Grid and scheme parameters for the reference solver."""

    h: float
    dt: float
    scheme: str = "crank_nicolson"
    boundary: str = "large_box_dirichlet"

    def __post_init__(self):
        if self.h <= 0 or self.dt <= 0:
            raise ParameterError("h and dt must be positive")
        if self.scheme not in ("crank_nicolson", "explicit"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.boundary not in ("large_box_dirichlet", "exact_robin"):
            raise ParameterError(f"unknown boundary {self.boundary!r}")


def _check_explicit_stability(cfg: FDConfig, n: int):
    if cfg.dt > cfg.h * cfg.h / (2.0 * n) + 1e-15:
        raise ParameterError(
            f"explicit scheme unstable: dt={cfg.dt} > h^2/(2n)="
            f"{cfg.h * cfg.h / (2 * n)}")


def _fd_grid(lo: float, hi: float, h: float) -> np.ndarray:
    return lo + h * np.arange(int(round((hi - lo) / h)) + 1)


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
    grid = _fd_grid(lo, hi, cfg.h)
    nx = len(grid)
    nsteps = int(round(horizon / cfg.dt))
    if abs(nsteps * cfg.dt - horizon) > 1e-12 * max(1.0, horizon):
        nsteps = int(math.ceil(horizon / cfg.dt))
    dt = horizon / nsteps

    m = components
    u = np.array([[phi(xi, j) if m > 1 else phi(xi) for j in range(m)]
                  for xi in grid], dtype=float)

    sample_times = sorted(sample_times or [horizon])
    out_times, out_vals = [], []

    time_dependent = getattr(drift, "time_dependent", False) or \
        getattr(potential, "time_dependent", False)
    inv_h2 = 1.0 / (cfg.h * cfg.h)
    inv_2h = 1.0 / (2.0 * cfg.h)
    inner = np.arange(1, nx - 1)

    def assemble(t_mid):
        """Operator L u = u_xx + sum_j b^i_j du_j/dx + V_i u_i, row-blocked.

        Boundary rows stay empty; a cross-component entry is stored only
        where its b is nonzero."""
        entries = []
        for i in range(m):
            r = i * nx + inner
            diag = np.full(nx - 2, -2.0 * inv_h2)
            if potential is not None:
                v = potential(i, t_mid, grid)
                diag = diag + (v[1:-1] if np.ndim(v) else v)
            b_ii = np.zeros(nx - 2)
            for j in range(m if drift is not None else 0):
                b = drift(i, j, t_mid, grid)
                if b is None:
                    continue
                b = np.broadcast_to(np.asarray(b, dtype=float), (nx,))[1:-1]
                if j == i:
                    b_ii = b
                    continue
                keep = b != 0.0
                c, bk = j * nx + inner[keep], b[keep] * inv_2h
                entries += [(r[keep], c - 1, -bk), (r[keep], c + 1, bk)]
            entries += [(r, r - 1, inv_h2 - b_ii * inv_2h), (r, r, diag),
                        (r, r + 1, inv_h2 + b_ii * inv_2h)]
        rows, cols, vals = (np.concatenate(a) for a in zip(*entries))
        return scipy.sparse.csr_matrix((vals, (rows, cols)),
                                       shape=(nx * m, nx * m))

    def robin_terms(t):
        """Ghost-point corrections for du/dnu + alpha u = psi at both ends.

        Outward normal: -d/dx at lo, +d/dx at hi.  The ghost value is
        eliminated into the boundary row of the standard 3-point stencil.
        """
        return (robin_alpha(t, lo), robin_alpha(t, hi), robin_psi(t, lo),
                robin_psi(t, hi))

    if cfg.scheme != "crank_nicolson":
        raise ParameterError("linear reference solver is Crank-Nicolson only")

    ident = scipy.sparse.identity(nx * m, format="csr")
    A = None

    t = 0.0
    next_sample = 0
    # record t=0 if requested
    while next_sample < len(sample_times) and sample_times[next_sample] <= 1e-14:
        out_times.append(0.0)
        out_vals.append(u.copy())
        next_sample += 1

    for step in range(nsteps):
        t_mid = t + dt / 2.0
        if A is None or time_dependent:
            # the boundary rows of A are empty, so those of ident - dt/2 A
            # are already the Dirichlet unit rows
            A = assemble(t_mid)
            M2 = ident + (dt / 2.0) * A
            if cfg.boundary == "large_box_dirichlet":
                lu = scipy.sparse.linalg.splu((ident - (dt / 2.0) * A).tocsc())

        rhs = M2 @ u.T.ravel()
        if source is not None:
            for i in range(m):
                rhs[i * nx:(i + 1) * nx] += dt * np.asarray(
                    source(i, t_mid, grid), dtype=float)

        if cfg.boundary == "large_box_dirichlet":
            rhs[::nx] = rhs[nx - 1::nx] = 0.0
            new = lu.solve(rhs)
        else:
            new = _robin_cn_step(u.T.ravel(), A, dt, grid, cfg.h, m, nx,
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
    The second-difference row at the boundary then closes; the two rows
    are added to A, whose boundary rows are empty.  Scalar only.
    """
    if m != 1:
        raise ParameterError("Robin reference rows support scalar problems")
    inv_h2 = 1.0 / (h * h)
    al_lo0, al_hi0, ps_lo0, ps_hi0 = robin_terms(t)
    al_lo1, al_hi1, ps_lo1, ps_hi1 = robin_terms(t + dt)

    def boundary_rows(al_lo, al_hi):
        vals = [(-2.0 - 2.0 * h * al_lo) * inv_h2, 2.0 * inv_h2,
                2.0 * inv_h2, (-2.0 - 2.0 * h * al_hi) * inv_h2]
        return A + scipy.sparse.csr_matrix((vals, (
            [0, 0, nx - 1, nx - 1], [0, 1, nx - 2, nx - 1])), shape=A.shape)

    B0 = boundary_rows(al_lo0, al_hi0)
    B1 = boundary_rows(al_lo1, al_hi1)
    ident = scipy.sparse.identity(nx, format="csr")
    g0, g1 = np.zeros(nx), np.zeros(nx)
    g0[[0, -1]] = 2.0 * ps_lo0 / h, 2.0 * ps_hi0 / h
    g1[[0, -1]] = 2.0 * ps_lo1 / h, 2.0 * ps_hi1 / h
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
    from .solvers import GridSolution

    lo, hi = ps.domain_lo[0], ps.domain_hi[0]
    if len(ps.domain_lo) != 1:
        raise ParameterError("the reference solver is desk-scale 1D only")
    pc = ps.coefficients
    grid = _fd_grid(lo, hi, cfg.h)
    points = grid[:, None]

    if ps.kind == "burgers":
        h = 1e-5
        v0 = _grid_lookup(grid, -(ps.phi0.eval(0.0, (grid + h)[:, None])
                                  - ps.phi0.eval(0.0, (grid - h)[:, None]))
                          / (2 * h))
        ts, grid, vals = fd_solve_burgers(lo, hi, ps.horizon, cfg, v0, ps.nu,
                                          sample_times)
        return GridSolution(ts, grid[:, None], vals[:, :, None],
                            {"kind": "burgers", "scheme": cfg.scheme})

    m = pc.components

    def in_time(entry):
        # the arithmetic of TimeEntry.eval, so values match it exactly
        parts = [(l, e.eval(points)) for l, e in entry.parts]
        return lambda t: sum(v * np.power(t, l) for l, v in parts)

    drifts = {(i, j): in_time(e) for (i, j, _), e in pc.drift.items()}

    def drift(i, j, t, grid):
        return drifts[i, j](t) if (i, j) in drifts else None

    drift.time_dependent = pc.time_dependent

    potential = None
    if pc.potential:
        potentials = {i: in_time(e) for i, e in pc.potential.items()}

        def potential(i, t, grid):
            return potentials[i](t) if i in potentials else np.zeros_like(grid)
        potential.time_dependent = pc.time_dependent

    source = None
    if not _is_zero_spec(ps.source):
        if getattr(ps.source, "time_dependent", True):
            def source(i, t, grid):
                return ps.source.eval(t, points)
        else:
            fixed = ps.source.eval(0.0, points)

            def source(i, t, grid):
                return fixed

    phi = _grid_lookup(grid, ps.phi.eval(0.0, points))
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


def _grid_lookup(grid: np.ndarray, values: np.ndarray) -> Callable:
    """The per-point callable f(x) (or f(x, j)) that reads ``values`` at
    the nodes of ``grid``, evaluated there in one call."""
    table = dict(zip(grid.tolist(), values.tolist()))
    return lambda x, j=0: table[x]


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
    grid = _fd_grid(lo, hi, cfg.h)
    nsteps = int(math.ceil(horizon / cfg.dt))
    dt = horizon / nsteps
    v = np.array([v0(xi) for xi in grid], dtype=float)
    ends = v0(grid[0]), v0(grid[-1])
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
        v[[0, -1]] = ends
        t += dt
        while k < len(sample_times) and sample_times[k] <= t + 1e-12:
            out_t.append(t)
            out_v.append(v.copy())
            k += 1
    return np.array(out_t), grid, np.array(out_v)
