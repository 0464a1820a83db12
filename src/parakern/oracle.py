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

The Crank-Nicolson operator has one sparsity pattern per solve: the
identity, each component's 3-point stencil, the bands of each coupled
drift pair and the Robin boundary slots, sorted once by numpy into one
CSR matrix (for the explicit half-step) and one CSC matrix (for the
factor).  Each step gathers ident +- (dt/2) A into their data from one
array made once per solve; on a step where an entry is exactly zero, a
pruned copy drops it, as scipy's sparse sums would, so the factor and
the output match ``tests/fdref.py`` bit for bit.  The fixed pattern
fixes SuperLU's column order too: where the first factor's order is the
identity, as in every one-component Dirichlet march, later unpruned
steps skip choosing it and factor in natural order.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
# private: the kernel ``csr_matrix @ ndarray`` runs
from scipy.sparse._sparsetools import csr_matvec

from .errors import AccuracyError, ConditioningError, ParameterError

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

@functools.lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on [-1, 1], built once per order."""
    return np.polynomial.legendre.leggauss(order)


def _panel_gl(f, lo: float, hi: float, a: float, order: int) -> float:
    nodes, weights = _gl_rule(order)
    s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    vals = np.array([f(si) for si in s]) * s ** (a - 1.0)
    return float(np.dot(w, vals))


def quad_ray(f: Callable[[float], float], a: float,
             tol: float = 1e-13) -> float:
    """Adaptive evaluation of ``int_0^1 f(s) s^(a-1) ds``.

    Gauss-Legendre panels, dyadically graded toward 0 for a non-integer a,
    so the singularity of s^(a-1) never meets a polynomial rule head on.
    """
    if not 0 < a < math.inf:
        raise ParameterError("ray exponent a must be positive and finite")
    if a == math.floor(a):
        panels = [(0.0, 1.0)]
    else:
        # [2^-M, 1] split dyadically; tail bounded by max|f| 2^-Ma / a
        fmax = max(abs(f(s)) for s in (1e-9, 1e-6, 1e-3, 0.5, 1.0)) + 1.0
        m_tail = max(4, int(math.ceil(math.log2(fmax / (a * tol)) / a)) + 1)
        edges = [0.0] + [2.0 ** (-m) for m in range(m_tail, -1, -1)]
        panels = list(zip(edges[:-1], edges[1:]))
    total = 0.0
    for lo, hi in panels:
        if lo == 0.0 and len(panels) > 1:
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
        if not (0 < self.h < math.inf and 0 < self.dt < math.inf):
            raise ParameterError("h and dt must be positive and finite")
        if self.scheme not in ("crank_nicolson", "explicit"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.boundary not in ("large_box_dirichlet", "exact_robin"):
            raise ParameterError(f"unknown boundary {self.boundary!r}")


def _check_explicit_stability(cfg: FDConfig, n: int):
    if cfg.dt > cfg.h * cfg.h / (2.0 * n) + 1e-15:
        raise ParameterError(
            f"explicit scheme unstable: dt={cfg.dt} > h^2/(2n)="
            f"{cfg.h * cfg.h / (2 * n)}")


def _check_horizon(horizon: float):
    if not 0 < horizon < math.inf:
        raise ParameterError(
            f"horizon must be positive and finite, got {horizon}")


def _fd_grid(lo: float, hi: float, h: float) -> np.ndarray:
    """The nodes lo, lo + h, ..., hi.  A step that does not tile [lo, hi]
    (to a relative 1e-9), or tiles it with fewer than 3 nodes, raises."""
    steps = (hi - lo) / h
    n = int(round(steps))
    if n < 2 or abs(steps - n) > 1e-9 * n:
        raise ParameterError(f"h = {h} does not tile [{lo}, {hi}] in two or "
                             f"more steps")
    return lo + h * np.arange(n + 1)


def _sampler(sample_times: Sequence[float] | None, horizon: float):
    """``take(t, u)``, which keeps (t, a copy of u) once for each sample
    time up to t + tol, and the two lists it fills.  Each sample time
    must lie in [0, horizon]."""
    times = sorted(sample_times or [horizon])
    if times[0] < 0.0 or times[-1] > horizon:
        raise ParameterError(
            f"sample times must lie in [0, {horizon}], got {times}")
    out_t, out_u = [], []

    def take(t, u, tol=1e-12):
        while len(out_t) < len(times) and times[len(out_t)] <= t + tol:
            out_t.append(t)
            out_u.append(u.copy())
    return take, out_t, out_u


def _refreshed(M):
    """``M``, its data just rewritten in place.  Where a value is exactly
    zero, a copy with that entry dropped: scipy's sparse sums drop exact
    zeros, and the pattern decides SuperLU's column order."""
    if M.data.all():
        return M
    M = M.copy()
    M.eliminate_zeros()
    return M


def _compressed(fmt, major, minor, n: int):
    """The slot s each stored entry holds, and an n x n ``fmt`` matrix
    (CSR, major = rows, or CSC, major = columns) of the pattern (major[s],
    minor[s]), free of duplicates, indexed as ``coo_matrix`` converts it."""
    order = np.lexsort((minor, major))
    indptr = np.searchsorted(major[order], np.arange(n + 1))
    return order, fmt((np.empty(len(order)), minor[order], indptr), (n, n))


def _factor(M, t: float, **order):
    """SuperLU's factor of the step matrix ``M``; ConditioningError, naming
    the time the step reaches, where it cannot be made."""
    try:
        return scipy.sparse.linalg.splu(M, **order)
    except RuntimeError as exc:     # "Factor is exactly singular"
        raise ConditioningError(f"the Crank-Nicolson step to t = {t:.6g} "
                                f"cannot be factored: {exc}") from exc


def _robin_solve(M, rhs: np.ndarray, t: float) -> np.ndarray:
    """``spsolve(M, rhs)``; where ``M`` is exactly singular, which scipy
    only warns of before returning NaN, ConditioningError naming ``t``."""
    rank = scipy.sparse.linalg.MatrixRankWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", rank)
        try:
            return scipy.sparse.linalg.spsolve(M, rhs)
        except rank as exc:
            raise ConditioningError(f"the Crank-Nicolson step to t = {t:.6g} "
                                    f"cannot be solved: {exc}") from exc


def _csr_matvec(M, x: np.ndarray, out: np.ndarray):
    """``M @ x`` into ``out`` for a CSR ``M`` and a float vector ``x``, bit
    for bit: the kernel scipy's operator runs, undispatched."""
    assert out.shape + x.shape == M.shape   # the kernel reads both unchecked
    out.fill(0.0)
    csr_matvec(*M.shape, M.indptr, M.indices, M.data, x, out)


def _on_grid(f, grid: np.ndarray, m: int = 1) -> np.ndarray:
    """The (npoints, m) initial values: ``f`` itself where it holds them,
    shape (npoints,) or (npoints, m), else f(x) (f(x, j) for m > 1) read
    node by node."""
    if callable(f):
        return np.array([[f(x, j) if m > 1 else f(x) for j in range(m)]
                         for x in grid], dtype=float)
    u = np.empty((len(grid), m))
    u[:] = np.reshape(f, (len(grid), -1))
    return u


def fd_solve_linear(lo: float, hi: float, horizon: float, cfg: FDConfig,
                    phi, drift=None, potential=None, source=None,
                    components: int = 1,
                    robin_alpha: Callable | None = None,
                    robin_psi: Callable | None = None,
                    sample_times: Sequence[float] | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Crank-Nicolson march for 1D linear systems with first-order coupling.

    ``phi`` is the initial data: its values on the grid, of shape
    (npoints,) (one profile for every component) or (npoints,
    components), or a per-point callable phi(x) (phi(x, j) for several
    components), read once.  ``drift(i, j, t, xgrid)`` returns the
    coefficient array of b^i_j d u_j/dx in equation i (components
    coupling, one spatial direction), or None where u_j does not enter
    equation i.  Which pairs are None must not change with t: the first
    assembly fixes the operator's sparsity pattern, a pair that later
    returns None contributes zeros, and one that was None and later
    returns an array raises ParameterError.  ``potential(i, t, xgrid)``
    and ``source(i, t, xgrid)`` follow the same convention.  Returns (times, grid, values) with values of shape
    (ntimes, npoints, components); the horizon must be positive and
    finite, and each sample time must lie in [0, horizon].

    Boundary handling: zero Dirichlet rows at ``lo`` and ``hi``, or Robin
    rows du/dnu + alpha u = psi via ghost-point elimination.  The march
    has no box of its own: a whole-line (Cauchy) reference needs ``lo``
    and ``hi`` the caller chose wide enough that the data and kernel tails
    vanish there.
    SuperLU factors once per solve for autonomous coefficients and at
    every step for time-dependent ones.  Where the first unpruned
    factor's column order is the identity, every later unpruned step
    factors with ``permc_spec="NATURAL"``: the same order, so the same
    pivots, ties included, and the same bits; any other order is chosen
    afresh at each step, as is a pruned step's.  ``spsolve`` solves a
    Robin step.  A step that cannot be factored or solved, as an exactly
    singular one, raises ConditioningError naming the time it reaches.
    """
    _check_horizon(horizon)
    grid = _fd_grid(lo, hi, cfg.h)
    nx = len(grid)
    nsteps = int(round(horizon / cfg.dt))
    if abs(nsteps * cfg.dt - horizon) > 1e-12 * max(1.0, horizon):
        nsteps = int(math.ceil(horizon / cfg.dt))
    dt = horizon / nsteps

    m = components
    u = _on_grid(phi, grid, m)

    take, out_times, out_vals = _sampler(sample_times, horizon)

    time_dependent = getattr(drift, "time_dependent", False) or \
        getattr(potential, "time_dependent", False)
    robin = cfg.boundary == "exact_robin"
    if robin and m != 1:
        raise ParameterError("Robin reference rows support scalar problems")
    h = cfg.h
    inv_h2 = 1.0 / (h * h)
    inv_2h = 1.0 / (2.0 * h)
    diag0 = np.float64(-2.0 * inv_h2)     # V added in double precision
    inner = np.arange(1, nx - 1)
    n_edge = 2 * m + 2 * robin      # boundary-row slots
    if cfg.scheme != "crank_nicolson":
        raise ParameterError("linear reference solver is Crank-Nicolson only")

    def coefficients(t_mid):
        """(V_i, b^i_i) per component, V_i None without a potential, and
        {(i, j): b^i_j} for the coupled pairs, all on the inner nodes."""
        terms, cross = [], {}
        for i in range(m):
            v = None
            if potential is not None:
                v = potential(i, t_mid, grid)     # None adds nothing
                v = 0.0 if v is None else v[1:-1] if np.ndim(v) else v
            b_ii = 0.0
            for j in range(m if drift is not None else 0):
                b = drift(i, j, t_mid, grid)
                if b is None:
                    continue
                b = np.asarray(b, dtype=float)
                b = (b if b.shape == (nx,) else np.broadcast_to(b, (nx,)))[1:-1]
                if j == i:
                    b_ii = b
                else:
                    cross[i, j] = b
            terms.append((v, b_ii))
        return terms, cross

    # The first assembly fixes the coupled pairs (i, j), j != i, and so the
    # layout of ``a``: each component's 3-point stencil, the -1 and the +1
    # band of every pair, then the boundary rows at t and at t + dt.
    terms, cross = coefficients(dt / 2.0)
    pairs = list(cross)
    n_pairs = len(pairs)
    a = np.zeros((3 * m + 2 * n_pairs) * (nx - 2) + 2 * n_edge)
    body = a[:-2 * n_edge].reshape(-1, nx - 2)
    stencils = body[:3 * m].reshape(m, 3, nx - 2)
    stencils[:, 1] = diag0      # rewritten at each assembly with a potential
    bands_of = {p: (body[3 * m + n_pairs + k], body[3 * m + k])
                for k, p in enumerate(pairs)}

    def assemble(terms, cross):
        """Operator L u = u_xx + sum_j b^i_j du_j/dx + V_i u_i on the inner
        rows, written into ``a``."""
        if not cross.keys() <= bands_of.keys():
            raise ParameterError(
                f"drift pairs {sorted(cross.keys() - bands_of.keys())} were "
                "None at the first assembly; the pattern cannot grow")
        for (v, b_ii), (below, diag, above) in zip(terms, stencils):
            np.multiply(b_ii, inv_2h, out=above)
            np.subtract(inv_h2, above, out=below)
            np.add(inv_h2, above, out=above)
            if v is not None:
                np.add(diag0, v, out=diag)
        for p, (plus, minus) in bands_of.items():
            np.multiply(cross.get(p, 0.0), inv_2h, out=plus)
            np.negative(plus, out=minus)

    assemble(terms, cross)

    def edges(t):
        """Robin boundary-row entries and psi terms.  For du/dnu + alpha u
        = psi, du/dnu = -u_x at lo, the ghost value u_{-1} = u_1 - 2h(a u_0
        - psi) closes the 3-point stencil."""
        al_lo, al_hi = robin_alpha(t, lo), robin_alpha(t, hi)
        g = np.array([2.0 * robin_psi(t, lo) / h, 2.0 * robin_psi(t, hi) / h])
        return np.array([(-2.0 - 2.0 * h * al_lo) * inv_h2,
                         (-2.0 - 2.0 * h * al_hi) * inv_h2,
                         2.0 * inv_h2, 2.0 * inv_h2]), g

    # the pattern, once per solve: stencils, coupled bands, boundary slots
    rows = [i * nx + inner for i in range(m) for _ in range(3)]
    cols = [i * nx + inner + s for i in range(m) for s in (-1, 0, 1)]
    for s in (-1, 1):
        rows += [i * nx + inner for i, _ in pairs]
        cols += [j * nx + inner + s for _, j in pairs]
    ends = np.ravel([[i * nx, i * nx + nx - 1] for i in range(m)])
    rows, cols = rows + [ends], cols + [ends]
    if robin:
        rows, cols = rows + [[0, nx - 1]], cols + [[1, nx - 2]]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # CSR for the explicit half-step, CSC for the factor; to_csr / to_csc
    # list the slot of ``a`` each stored entry reads, the CSC's boundary
    # entries reading the t + dt block.  The Dirichlet blocks stay zero.
    n, n_body = nx * m, len(rows) - n_edge
    to_csr, M2_full = _compressed(scipy.sparse.csr_matrix, rows, cols, n)
    to_csc, M1_full = _compressed(scipy.sparse.csc_matrix, cols, rows, n)
    to_csc[to_csc >= n_body] += n_edge
    at_t, at_next = slice(n_body, n_body + n_edge), slice(n_body + n_edge, None)
    # ident + (dt/2) a and ident - (dt/2) a slot by slot, as scipy's sums
    # would form them (x - y is x + (-y) exactly): row 0 feeds the CSR,
    # row 1 the CSC.  Without an exact zero in either, none is pruned.
    c = dt / 2.0
    eye = rows == cols
    eye = np.concatenate((eye, eye[n_body:])) * 1.0
    halves, pm = np.array([[c], [-c]]), np.empty((2, len(a)))
    rhs = np.empty(n)
    natural = None      # whether the first unpruned factor kept every column

    t = 0.0
    take(t, u, tol=1e-14)
    u = u.T.ravel()     # component by component, as the matrices order it
    for step in range(nsteps):
        t_mid = t + c
        if step and time_dependent:
            assemble(*coefficients(t_mid))
        if robin or step == 0 or time_dependent:
            if robin:
                (a[at_t], g0), (a[at_next], g1) = edges(t), edges(t + dt)
            np.add(eye, np.multiply(halves, a, out=pm), out=pm)
            whole = pm.all()
            np.take(pm[0], to_csr, out=M2_full.data)
            M2 = M2_full if whole else _refreshed(M2_full)
            np.take(pm[1], to_csc, out=M1_full.data)
            M1 = M1_full if whole else _refreshed(M1_full)
            if not robin:
                if whole and natural:
                    lu = _factor(M1, t + dt, permc_spec="NATURAL")
                else:
                    lu = _factor(M1, t + dt)
                    if whole and natural is None:
                        natural = (lu.perm_c == np.arange(n)).all()

        _csr_matvec(M2, u, rhs)
        if robin:
            rhs[[0, -1]] += c * (g0 + g1)
        if source is not None:
            for i in range(m):
                rhs[i * nx:(i + 1) * nx] += dt * np.asarray(
                    source(i, t_mid, grid), dtype=float)

        if robin:
            u = _robin_solve(M1, rhs, t + dt)
        else:
            rhs[::nx] = rhs[nx - 1::nx] = 0.0
            u = lu.solve(rhs)
        t += dt
        take(t, u.reshape(m, nx).T)
    return np.array(out_times), grid, np.array(out_vals)


def fd_solve(ps, cfg: FDConfig, sample_times: Sequence[float] | None = None):
    """Reference solution of a ProblemSpec on its own box (1D).

    Dispatches to the Crank-Nicolson march (cauchy/ibvp2, with Robin rows
    in the ibvp2 case) or the explicit nonlinear stepper (burgers).  The
    problem container is consumed duck-typed so this module stays free of
    expansion-side imports.  A cauchy problem is marched on its own
    ``domain`` with zero Dirichlet rows, which is not the whole-line
    problem ``solve_cauchy`` solves: as a referee for it, pass a
    ProblemSpec whose domain the caller has enlarged, as acceptance
    criterion 6 ([-6, 6]) and ``perfbench``'s workloads do.
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
        v0 = -(ps.phi0.eval(0.0, (grid + h)[:, None])
               - ps.phi0.eval(0.0, (grid - h)[:, None])) / (2 * h)
        ts, grid, vals = fd_solve_burgers(lo, hi, ps.horizon, cfg, v0, ps.nu,
                                          sample_times)
        return GridSolution(ts, grid[:, None], vals[:, :, None],
                            {"kind": "burgers", "scheme": cfg.scheme})

    m = pc.components

    def in_time(entry):
        # the arithmetic of TimeEntry.eval, 0 + v_0 t^l_0 + v_1 t^l_1 + ...,
        # so values match it exactly; a leading l_0 = 0 adds 0 + v_0 always
        parts = [(l, e.eval(0.0, points)) for l, e in entry.parts]
        start = np.zeros(len(grid))
        if parts and parts[0][0] == 0:
            start += parts.pop(0)[1]

        def at(t):
            total = start
            for l, v in parts:
                total = total + v * np.power(t, l)
            return total
        return at

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

    kwargs = {}
    if ps.kind == "ibvp2":
        cfg = FDConfig(cfg.h, cfg.dt, cfg.scheme, "exact_robin")
        kwargs = {
            "robin_alpha": lambda t, x: ps.alpha.eval(t, np.array([x])),
            "robin_psi": lambda t, x: ps.psi.eval(t, np.array([x])),
        }
    ts, grid, vals = fd_solve_linear(lo, hi, ps.horizon, cfg,
                                     ps.phi.eval(0.0, points),
                                     drift=drift, potential=potential,
                                     source=source, components=m,
                                     sample_times=sample_times, **kwargs)
    return GridSolution(ts, grid[:, None], vals,
                        {"kind": ps.kind, "scheme": cfg.scheme,
                         "boundary": cfg.boundary})


def _is_zero_spec(spec) -> bool:
    return spec is None or type(spec).__name__ == "ZeroFunc"


def fd_solve_burgers(lo: float, hi: float, horizon: float, cfg: FDConfig,
                     v0, nu: float,
                     sample_times: Sequence[float] | None = None):
    """Explicit reference for 1D viscous Burgers v_t + v v_x = nu v_xx.

    ``v0`` is the initial profile: its values on the grid or a per-point
    callable.  Central differences, forward Euler; Dirichlet values pinned
    to the initial profile (adequate for desk-scale comparisons away from
    the boundary).  The horizon must be positive and finite, and each sample
    time must lie in [0, horizon].
    """
    if cfg.scheme != "explicit":
        raise ParameterError("Burgers reference uses the explicit scheme")
    _check_horizon(horizon)
    _check_explicit_stability(cfg, 1)
    grid = _fd_grid(lo, hi, cfg.h)
    nsteps = int(math.ceil(horizon / cfg.dt))
    dt = horizon / nsteps
    v = _on_grid(v0, grid)[:, 0]
    ends = v[[0, -1]]
    take, out_t, out_v = _sampler(sample_times, horizon)
    t = 0.0
    take(t, v, tol=1e-14)
    for step in range(nsteps):
        vx = np.zeros_like(v)
        vxx = np.zeros_like(v)
        vx[1:-1] = (v[2:] - v[:-2]) / (2 * cfg.h)
        vxx[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (cfg.h * cfg.h)
        v = v + dt * (nu * vxx - v * vx)
        v[[0, -1]] = ends
        t += dt
        take(t, v)
    return np.array(out_t), grid, np.array(out_v)
