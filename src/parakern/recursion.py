"""Expansion-coefficient recursions for drift-coupled parabolic systems.

The kernel ansatz is a Gaussian times ``exp(sum_k c_k * time^k)``.  This
module computes the coefficient functions ``c^j_0 ... c^j_K`` for three
time parameterizations:

* ``plain`` -- physical time t, valid on a short horizon.
* ``beta``  -- rescaled time tau = t / beta; coefficients pick up a factor
  beta^k, shrinking them for small beta.
* ``tau``   -- warped time tau = 1 - exp(-t/beta), mapping any horizon
  into tau < 1.  Coefficients become jets in tau.

Each c_k solves the first-order equation  k c_k + dx . grad c_k = R_{k-1}
along rays from the expansion center, which on monomials acts diagonally:
the dx^gamma coefficient of c_k is the matching coefficient of R_{k-1}
scaled by 1/(k + |gamma|).  In tau mode the gradient term carries the
analytic multiplier nu(tau) = tau / ((1 - tau)(-ln(1 - tau))) and the
solve becomes a triangular jet inversion.

``expand_batch`` runs the recursion for many centres at once on arrays,
each centre with its own time origin s for the kernel p(s + t, x; s, y);
``expand`` is its one-centre case and keeps the arrays in an
:class:`ExpansionCoeffs`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ParameterError, StructureError
from .polyalg import (CoefficientEntry, MultiIndex, TaylorPoly, TimeEntry,
                      index_table, series_reciprocal, _degree, _monomials,
                      _mul_cols, _overflow_cols, _partial_tables, _rows,
                      _series_mul)

SAMPLE_LATTICE = 17      # points per axis when sampling sup norms
BETA_FLOOR = 1e-6
BETA_CAP = 1.0
DIAG_TAU_REF = 0.5       # weight tau used in convergence diagnostics


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

def _as_time_entry(entry) -> TimeEntry:
    if isinstance(entry, TimeEntry):
        return entry
    if isinstance(entry, CoefficientEntry):
        return TimeEntry(((0, entry),))
    raise ParameterError(f"not a coefficient entry: {type(entry).__name__}")


@dataclass(frozen=True)
class ProblemCoefficients:
    """Admissible drift/potential data for one parabolic system.

    ``drift`` maps (equation i, field j, direction k) to an entry for
    b^i_{jk}; ``potential`` maps equation i to V_i.  ``bound_C`` is the
    generic derivative-bound constant and ``domain_radius_R`` the radius
    of a ball containing the domain.
    """

    n: int
    components: int
    drift: dict
    potential: dict = field(default_factory=dict)
    bound_C: float = 1.0
    domain_radius_R: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("dimension must be >= 1")
        if self.components not in (1, self.n):
            raise ParameterError("components must be 1 (scalar) or n (system)")
        if self.bound_C <= 0 or self.domain_radius_R <= 0:
            raise ParameterError("bound_C and domain_radius_R must be positive")
        object.__setattr__(self, "drift",
                           {k: _as_time_entry(v) for k, v in self.drift.items()})
        object.__setattr__(self, "potential",
                           {k: _as_time_entry(v) for k, v in self.potential.items()})
        for (i, j, k) in self.drift:
            if not (0 <= i < self.components and 0 <= j < self.components
                    and 0 <= k < self.n):
                raise ParameterError(f"drift index {(i, j, k)} out of range")
        for i in self.potential:
            if not 0 <= i < self.components:
                raise ParameterError(f"potential index {i} out of range")

    @property
    def time_dependent(self) -> bool:
        entries = list(self.drift.values()) + list(self.potential.values())
        return any(e.max_order > 0 for e in entries)

    @property
    def max_time_order(self) -> int:
        entries = list(self.drift.values()) + list(self.potential.values())
        return max((e.max_order for e in entries), default=0)

    def is_zero_drift(self) -> bool:
        """No drift and no potential: the kernel is the heat kernel."""
        return not self.drift and not self.potential

    def spot_check_bounds(self, max_order: int = 4, samples: int = 5) -> float:
        """Largest ratio |d^a entry| / C^|a| over a sample lattice.

        A return value <= 1 means the declared bound holds at the probes.
        """
        points = _lattice(self.n, self.domain_radius_R, samples)
        worst = 0.0
        alphas = [tuple(a) for a in index_table(self.n, max_order)[0]]
        for entry in list(self.drift.values()) + list(self.potential.values()):
            for _, part in entry.parts:
                for alpha in alphas:
                    d = part.derivative(alpha)
                    bound = self.bound_C ** sum(alpha)
                    worst = max(worst, float(np.max(np.abs(d.eval(points))))
                                / bound)
        return worst


@dataclass(frozen=True)
class WarpParams:
    """Time-parameterization choice for one expansion."""

    mode: str = "plain"
    beta: float = 1.0
    tau_max: float = 0.0

    def __post_init__(self):
        if self.mode not in ("plain", "beta", "tau"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.mode == "plain" and self.beta != 1.0:
            raise ParameterError("plain mode requires beta = 1")
        if self.beta <= 0:
            raise ParameterError("beta must be positive")
        if not 0.0 <= self.tau_max < 1.0:
            raise ParameterError("tau_max must lie in [0, 1)")

    @property
    def time_var(self) -> str:
        return "t" if self.mode == "plain" else "tau"


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Per-order sup-norm samples and truncation bookkeeping."""

    sup_norms: tuple[float, ...]           # c_k^up sampled on a lattice
    weighted: tuple[float, ...]            # c_k^up * tau_ref^k
    tau_ref: float
    truncated: bool

    def monotone_from(self, k0: int = 2) -> bool:
        w = self.weighted
        return all(w[k + 1] <= w[k] for k in range(k0, len(w) - 1))


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Computed coefficients c^j_0 ... c^j_K about one center.

    ``coeffs`` is ``ExpansionBatch.coeffs`` without the centre axis,
    read-only: ``coeffs[j, k, l]`` holds the coefficients of c^j_k's
    time^l term, one per row of ``index_table(dim, degree_D)``, and is
    zero above ``jet_order[j, k]``.  ``truncated`` records whether the
    degree cap cut any term; ``domain_radius_R`` sizes the lattice the
    diagnostics sample.
    """

    center: tuple[float, ...]
    warp: WarpParams
    order_K: int
    degree_D: int
    components: int
    coeffs: np.ndarray           # (components, K + 1, T, N)
    jet_order: np.ndarray        # (components, K + 1)
    truncated: bool = False
    domain_radius_R: float = 1.0

    @property
    def dim(self) -> int:
        return len(self.center)

    def __eq__(self, other):
        """Field by field, the arrays by value."""
        if not isinstance(other, ExpansionCoeffs):
            return NotImplemented
        scalars = ("center", "warp", "order_K", "degree_D", "components",
                   "truncated", "domain_radius_R")
        return all(getattr(self, f) == getattr(other, f) for f in scalars) \
            and np.array_equal(self.coeffs, other.coeffs) \
            and np.array_equal(self.jet_order, other.jet_order)

    @functools.cached_property
    def diagnostics(self) -> ExpansionDiagnostics:
        """Sup-norm diagnostics, sampled on first access."""
        return _diagnostics(self)


# ---------------------------------------------------------------------------
# ray integrals and closed-form weights
# ---------------------------------------------------------------------------

def ray_integrate(p: TaylorPoly, a: float) -> TaylorPoly:
    """``int_0^1 p(y + s dx) s^(a-1) ds`` as a diagonal coefficient scaling.

    The dx^gamma coefficient picks up the factor 1/(|gamma| + a); this is
    the closed-form of the s-exponent convention fixed by the identity
    d/ds[s^k p(y + s dx)] = k s^(k-1) p + s^k dx . grad p.
    """
    if a <= 0:
        raise ParameterError("ray exponent a must be positive")
    _, _, orders = index_table(p.dim, p.cap)
    return TaylorPoly(p.dim, p.center, p.cap, p.coeffs / (orders + a),
                      p.truncated)


def mode_ray_exponent(k: int, wp: WarpParams, tau: float = 0.0) -> float:
    """The s-exponent a_k of the mode's ray integral at a frozen tau."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    if wp.mode == "plain":
        return float(k)
    if wp.mode == "beta":
        return k / wp.beta
    return (1.0 - tau) * k / wp.beta


def mode_ray_weight(gamma_order: int, k: int, wp: WarpParams,
                    tau: float = 0.0) -> float:
    """Closed-form diagonal weight 1/(a_k + |gamma|) for a frozen tau.

    plain: 1/(k + |g|); beta: beta/(k + beta |g|);
    tau:   beta/((1 - tau) k + beta |g|).
    """
    return 1.0 / (mode_ray_exponent(k, wp, tau) + gamma_order)


def pk_gamma(gamma, k: int, y: Sequence[float], a: float | None = None,
             cap: int | None = None) -> TaylorPoly:
    """Closed form of ``int_0^1 (y + s dx)^gamma s^(a-1) ds``.

    Binomial expansion of the shifted monomial: the dx^delta coefficient is
    ``prod_i C(gamma_i, delta_i) y^(gamma-delta) / (|delta| + a)``.
    Defaults to a = k, the plain-mode exponent.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    gamma = gamma if isinstance(gamma, MultiIndex) else MultiIndex(tuple(gamma))
    if a is None:
        a = float(k)
    y = np.asarray(y, dtype=float)
    dim = gamma.dim
    if cap is None:
        cap = gamma.order
    out = TaylorPoly.zero(dim, tuple(y), cap)
    _, pos, _ = index_table(dim, cap)

    def rec(axis, delta, weight):
        if axis == dim:
            out.coeffs[pos[tuple(delta)]] += weight / (sum(delta) + a)
            return
        for d in range(gamma[axis] + 1):
            w = weight * math.comb(gamma[axis], d) * \
                y[axis] ** (gamma[axis] - d)
            rec(axis + 1, delta + [d], w)

    rec(0, [], 1.0)
    return out


# ---------------------------------------------------------------------------
# time warp scalar series
# ---------------------------------------------------------------------------

def tau_of_t(t: float, beta: float) -> float:
    """tau = 1 - exp(-t/beta)."""
    if t < 0:
        raise ParameterError("t must be >= 0")
    if beta <= 0:
        raise ParameterError("beta must be positive")
    return -math.expm1(-t / beta)


def t_of_tau(tau: float, beta: float) -> float:
    """t = -beta ln(1 - tau)."""
    if not 0.0 <= tau < 1.0:
        raise ParameterError("tau must lie in [0, 1)")
    if beta <= 0:
        raise ParameterError("beta must be positive")
    return -beta * math.log1p(-tau)


def _series_g(order: int) -> np.ndarray:
    """(-ln(1-tau))/tau = sum tau^m / (m+1)."""
    return np.array([1.0 / (m + 1) for m in range(order + 1)])


def _series_sigma(beta: float, order: int) -> np.ndarray:
    """beta/(1-tau) = beta sum tau^m."""
    return beta * np.ones(order + 1)


def _series_nu(order: int) -> np.ndarray:
    """nu(tau) = tau/((1-tau)(-ln(1-tau))), the gradient-term multiplier."""
    g = _series_g(order)
    h = np.zeros(order + 1)
    h[0] = g[0]
    h[1:] = g[1:] - g[:-1]          # (1-tau) * g
    return series_reciprocal(h, order)


def _warp_power(l: int, beta: float, order: int) -> np.ndarray:
    """(t(tau)/tau)^l = (beta g(tau))^l, the grade-l factor of V_l t^l."""
    g = _series_g(order) * beta
    out = np.zeros(order + 1)
    out[0] = 1.0
    for _ in range(l):
        out = _series_mul(out, g, order)
    return out


def _series_t_of_tau(beta: float, order: int) -> np.ndarray:
    """t(tau) = beta(tau + tau^2/2 + ...), no constant term."""
    out = np.zeros(order + 1)
    for m in range(1, order + 1):
        out[m] = beta / m
    return out


# ---------------------------------------------------------------------------
# the recursion proper
# ---------------------------------------------------------------------------

class _BatchWorkspace:
    """Mode-resolved drift/potential jets about B centres, as arrays.

    A jet is a pair (coefficients of shape (rows, order + 1, B), flags
    of shape (B,)): table rows, time orders, centres.  A jet's rows stop
    at its spatial degree d, the first ``_rows(n, d)`` rows of the graded
    table, so the shape carries the degree.  Entry jets are cut after
    their last nonzero row over the chunk; every other degree follows
    from the algebra: a sum takes the larger, a product the sum (capped
    at D), a derivative one less, the monomial dx degree 1, and the rest
    keep theirs.  Only rows of exact zeros are dropped, so the values
    equal the full-row ones up to the sign of zero.  The methods mirror
    the one-centre time-jet algebra the tests keep as their reference
    (``tests/objalg.py``) term for term, in the same order of
    floating-point operations, and carry the ``truncated`` flag per
    centre the way the polynomial operations do.  ``origins`` (B,) holds
    each centre's time origin s, or is None for origin 0 everywhere.
    """

    def __init__(self, pc: ProblemCoefficients, ys: np.ndarray,
                 origins: np.ndarray | None, wp: WarpParams, D: int,
                 jet_cap: int | None):
        self.n, self.D, self.wp, self.jet_cap = pc.n, D, wp, jet_cap
        self.orders = index_table(pc.n, D)[2]
        self.N, self.B = len(self.orders), len(ys)
        self.truncated = False
        self.drift_jets = {
            key: self._entry_jet(*self._entry_terms(entry, ys, origins))
            for key, entry in pc.drift.items()}
        self.vpart_polys = {}
        for i, entry in pc.potential.items():
            terms, flags = self._entry_terms(entry, ys, origins)
            orders = [l for l, _ in entry.parts] if origins is None \
                else range(len(flags))
            self.vpart_polys[i] = {l: (terms[:, l:l + 1], flags[l])
                                   for l in orders}

    def _entry_terms(self, entry: TimeEntry, ys: np.ndarray,
                     origins: np.ndarray | None):
        """An entry's time terms about every centre, re-anchored at its
        origin: coefficients (rows, order + 1, B), cut after the last row
        nonzero at any order and centre, and flags (order + 1, B).

        Each part is Taylor-expanded once and flags its own order.  About
        origin s, t -> s + t makes the order-m term
        sum_{l >= m} C(l, m) s^(l - m) part_l.
        """
        terms = np.zeros((self.N, entry.max_order + 1, self.B))
        flags = np.zeros((entry.max_order + 1, self.B), dtype=bool)
        for l, part in entry.parts:
            coeffs, truncated = part._taylor_cols(ys, self.D)
            self.truncated |= truncated
            flags[l] = truncated
            if origins is None:
                terms[:, l] = coeffs
                continue
            for m in range(l + 1):
                terms[:, m] += math.comb(l, m) * origins ** (l - m) * coeffs
        nonzero = np.flatnonzero(terms.any(axis=(1, 2)))
        top = int(self.orders[nonzero[-1]]) if len(nonzero) else 0
        return terms[:_rows(self.n, top)], flags

    def _entry_jet(self, terms: np.ndarray, flags: np.ndarray):
        """b's time terms as a jet in the mode's own time variable."""
        if self.wp.mode == "plain":
            return terms, flags.any(axis=0)
        if self.wp.mode == "beta":
            # t = beta tau: scale jet order l by beta^l
            for l in range(terms.shape[1]):
                terms[:, l] *= self.wp.beta ** l
            return terms, flags.any(axis=0)
        # tau: substitute t = t(tau); terms that vanish at a centre are
        # skipped there, so they leave its flag alone
        cap = self.jet_cap
        inner = _series_t_of_tau(self.wp.beta, cap)
        out = np.zeros((len(terms), cap + 1, self.B))
        out_flags = np.zeros(self.B, dtype=bool)
        power = np.zeros(cap + 1)
        power[0] = 1.0
        for l in range(terms.shape[1]):
            if l > 0:
                power = _series_mul(power, inner, cap)
            p = terms[:, l]
            out_flags |= flags[l] & np.any(p != 0.0, axis=0)
            ms = np.nonzero(power)[0]
            out[:, ms] += p[:, None, :] * power[ms][None, :, None]
        return out, out_flags

    # -- the jet algebra -----------------------------------------------------

    def zero(self):
        return np.zeros((1, 1, self.B)), np.zeros(self.B, dtype=bool)

    def delta_x(self, axis: int):
        """The monomial dx_axis, unflagged."""
        x = np.zeros((_rows(self.n, 1), 1, self.B))
        x[index_table(self.n, self.D)[1][
            tuple(int(a == axis) for a in range(self.n))]] = 1.0
        return x, np.zeros(self.B, dtype=bool)

    @staticmethod
    def add(a, b):
        (x, fx), (y, fy) = a, b
        if x.shape == y.shape:
            return x + y, fx | fy
        if len(x) < len(y):
            x, y = y, x                 # the sum commutes, bit for bit
        if x.shape[1] >= y.shape[1]:
            out = x.copy()
        else:
            out = np.zeros((len(x), y.shape[1], x.shape[2]))
            out[:, :x.shape[1]] = x
        out[:len(y), :y.shape[1]] += y
        return out, fx | fy

    def mul(self, a, b):
        """The jet product, capped at the jet cap, with per-centre overflow
        flags."""
        (x, fx), (y, fy) = a, b
        ia, ib, ranks = _pair_plan(x.shape[1] - 1, y.shape[1] - 1,
                                   self.jet_cap)
        xa, yb = x[:, ia], y[:, ib]
        prods = _mul_cols(xa, yb, self.n, self.D)
        ls, ss = ranks[0]
        out = prods[:, ss]
        for ls, ss in ranks[1:]:
            out[:, ls] += prods[:, ss]
        flags = fx | fy
        need = ~flags
        # below the cap in degree, no column can overflow
        if need.any() and _degree(len(x), self.n, self.D) \
                + _degree(len(y), self.n, self.D) > self.D:
            flags[need] = _overflow_cols(xa[..., need], yb[..., need],
                                         self.n, self.D).any(axis=0)
        return out, flags

    def partial(self, a, axis: int):
        x, f = a
        d = _degree(len(x), self.n, self.D)
        src, dst, scale = _partial_tables(self.n, d)[axis]
        out = np.zeros((_rows(self.n, max(d - 1, 0)),) + x.shape[1:])
        if len(src):
            out[dst] = scale[:, None, None] * x[src]
        return out, f

    def laplacian(self, a):
        out = None
        for i in range(self.n):
            d2 = self.partial(self.partial(a, i), i)
            out = d2 if out is None else self.add(out, d2)
        return out

    def ray(self, a, s: float):
        x, f = a
        return x / (self.orders[:len(x)] + s)[:, None, None], f

    @staticmethod
    def scale(a, c: float):
        return a[0] * c, a[1]

    def scale_series(self, a, series: np.ndarray):
        """Times a scalar power series in time, capped at the jet cap."""
        x, f = a
        n = min(x.shape[1] - 1 + len(series) - 1, self.jet_cap)
        out = np.zeros((len(x), n + 1, x.shape[2]))
        ms = np.nonzero(series)[0]
        for i in range(min(x.shape[1] - 1, n) + 1):
            mi = ms[ms <= n - i]
            out[:, i + mi] += x[:, i:i + 1] * series[mi][None, :, None]
        return out, f

    def dt(self, a):
        x, f = a
        if x.shape[1] == 1:
            return self.zero()
        return x[:, 1:] * np.arange(1.0, x.shape[1])[None, :, None], f

    def tau_solve(self, R, k: int):
        """(k + |gamma| nu(tau)) c = R, a triangular jet inversion."""
        x, f = R
        cap = self.jet_cap
        w = _tau_weights(k, cap, self.n, self.D)[:len(x)]
        out = np.zeros((len(x), cap + 1, x.shape[2]))
        for l in range(min(x.shape[1] - 1, cap) + 1):
            out[:, l:] += x[:, l:l + 1] * w[:, :cap + 1 - l, None]
        return out, f


@functools.lru_cache(maxsize=None)
def _pair_plan(La: int, Lb: int, cap: int | None):
    """Term pairs (i, l - i) of a jet product, grouped by rank.

    Pairs are listed by output order l and ascending i; rank r collects
    the r-th pair of every l, so adding the ranks in turn sums each output
    term in the order the one-centre jet product does.
    """
    n = La + Lb if cap is None else min(La + Lb, cap)
    ia, ib, ranks = [], [], []
    for l in range(n + 1):
        for r, i in enumerate(range(max(0, l - Lb), min(l, La) + 1)):
            if r == len(ranks):
                ranks.append(([], []))
            ranks[r][0].append(l)
            ranks[r][1].append(len(ia))
            ia.append(i)
            ib.append(l - i)
    plan = [np.array(ia), np.array(ib)] + [np.array(v) for r in ranks for v in r]
    for a in plan:
        a.flags.writeable = False
    return plan[0], plan[1], tuple(zip(plan[2::2], plan[3::2]))


@functools.lru_cache(maxsize=None)
def _tau_weights(k: int, cap: int, n: int, D: int) -> np.ndarray:
    """Series of 1/(k + |gamma| nu(tau)) per table row, shape (N, cap + 1)."""
    nu = _series_nu(cap)
    orders = index_table(n, D)[2]
    per_order = {}
    for go in sorted(set(int(o) for o in orders)):
        op = go * nu.copy()
        op[0] += k
        per_order[go] = series_reciprocal(op, cap)
    w = np.array([per_order[int(o)] for o in orders])
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class ExpansionBatch:
    """Coefficients c^j_0 ... c^j_K about B centres, as arrays.

    ``coeffs[j, k, l, b]`` holds the coefficients of c^j_k's time^l term
    about centre b, one per row of ``index_table(n, degree_D)``, and is
    zero above ``jet_order[j, k]``.  ``jet_truncated[j, k, b]`` is that
    jet's ``truncated`` flag and ``truncated[b]`` the expansion's.
    """

    centers: np.ndarray          # (B, n)
    warp: WarpParams
    degree_D: int
    coeffs: np.ndarray           # (components, K + 1, T, B, N)
    jet_order: np.ndarray        # (components, K + 1)
    jet_truncated: np.ndarray    # (components, K + 1, B)
    truncated: np.ndarray        # (B,)


# bound, in floats, on a product's pair temporaries for one chunk of centres
_CHUNK_FLOATS = 1 << 22


def expand_batch(pc: ProblemCoefficients, ys, K: int,
                 wp: WarpParams = WarpParams(), D: int | None = None,
                 origins=0.0) -> ExpansionBatch:
    """The coefficient recursion c_0 ... c_K about every row of ``ys``.

    ``ys`` has shape (B, n).  ``origins``, a scalar or shape (B,), is
    each centre's time origin s: its coefficients are those of the kernel
    p(s + time, x; s, y), the recursion run on the drift and potential
    re-anchored by t -> s + t.  Origin 0, and any origin of autonomous
    coefficients, leaves them as they are.  The recursion runs once, on
    arrays with the centres as the last axis; each centre's coefficients,
    jet orders and flags are those the recursion gives at that centre
    alone.  ``D`` defaults to 2K + 2.
    """
    if K < 0:
        raise ParameterError("K must be >= 0")
    if D is None:
        D = 2 * K + 2
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != pc.n or not len(ys):
        raise StructureError(
            f"centres of shape {ys.shape}, expected (B, {pc.n}) with B >= 1")
    origins = np.asarray(origins, dtype=float)
    if origins.shape not in ((), (len(ys),)):
        raise StructureError(
            f"origins of shape {origins.shape}, expected () or ({len(ys)},)")
    origins = np.broadcast_to(origins, (len(ys),)) \
        if pc.time_dependent and origins.any() else None
    jet_cap = max(K, pc.max_time_order) if wp.mode == "tau" else None
    # c_k has time order at most (k + 1) times the coefficients' order
    T = jet_cap + 1 if jet_cap is not None else \
        (K + 1) * pc.max_time_order + 1
    # a dense product's temporaries: both gathered operands and their
    # product, per pair of time orders and in-cap pair of rows (as many as
    # the exponents of degree <= D in 2n variables)
    per_centre = 3 * _rows(2 * pc.n, D) * T * (T + 1) // 2
    step = max(1, _CHUNK_FLOATS // per_centre)
    chunks = [_expand_chunk(pc, ys[i:i + step],
                            None if origins is None else origins[i:i + step],
                            K, wp, D, jet_cap)
              for i in range(0, len(ys), step)]
    coeffs, orders, jet_flags, truncated = zip(*chunks)
    if len(chunks) == 1:
        # one chunk's arrays are handed over as they are, without a copy
        return ExpansionBatch(ys, wp, D, coeffs[0], orders[0], jet_flags[0],
                              truncated[0])
    return ExpansionBatch(ys, wp, D, np.concatenate(coeffs, axis=3),
                          orders[0], np.concatenate(jet_flags, axis=2),
                          np.concatenate(truncated))


def _expand_chunk(pc, ys, origins, K, wp, D, jet_cap):
    """``expand_batch``'s arrays for one chunk of centres."""
    ws = _BatchWorkspace(pc, ys, origins, wp, D, jet_cap)
    jets = []
    for j in range(pc.components):
        total = ws.zero()
        for m in range(pc.n):
            rows = [ws.drift_jets[(j, l, m)] for l in range(pc.components)
                    if (j, l, m) in ws.drift_jets]
            if not rows:
                continue
            row = ws.zero()
            for jet in rows:
                row = ws.add(row, jet)
            shifted = ws.mul(ws.ray(row, 1.0), ws.delta_x(m))
            total = ws.add(total, shifted)
        jets.append([ws.scale(total, -0.5)])
    grads = [[[ws.partial(cj[0], a) for a in range(pc.n)]] for cj in jets]
    for k in range(1, K + 1):
        for j in range(pc.components):
            R = _batch_R(ws, pc, k, j, jets, grads)
            if wp.mode in ("plain", "beta"):
                jets[j].append(ws.ray(R, float(k)))
            else:
                jets[j].append(ws.tau_solve(R, k))
        for j in range(pc.components):
            grads[j].append([ws.partial(jets[j][k], a)
                             for a in range(pc.n)])
    orders = np.array([[x.shape[1] - 1 for x, _ in cj] for cj in jets])
    coeffs = np.zeros((pc.components, K + 1, orders.max() + 1, ws.B, ws.N))
    for j, cj in enumerate(jets):
        for k, (x, _) in enumerate(cj):
            coeffs[j, k, :x.shape[1], :, :len(x)] = x.transpose(1, 2, 0)
    jet_flags = np.array([[f for _, f in cj] for cj in jets])
    return (coeffs, orders, jet_flags,
            ws.truncated | jet_flags.any(axis=(0, 1)))


def _batch_R(ws: _BatchWorkspace, pc: ProblemCoefficients, k: int, j: int,
             coeffs, grads):
    """R_{k-1} feeding the order-k ray solve; ``grads[j][r][l]`` is d_l c^j_r.

    Assembles  -d/dtime c_{k-1}  +  m(time) [ Lap c_{k-1}
    + sum_l sum_r d_l c_r d_l c_{k-1-r} + sum_lm b^j_lm d_m c^l_{k-1} ]
    plus the potential term of explicit order k - 1, where the spatial
    multiplier m is 1 (plain), beta (beta mode) or beta/(1-tau) (tau
    mode, as a jet).  The time-derivative term enters unscaled; it
    originates on the other side of the graded identity.
    """
    wp = ws.wp
    prev = coeffs[j][k - 1]
    spatial = ws.laplacian(prev)
    for l in range(pc.n):
        for r in range(k):
            spatial = ws.add(spatial, ws.mul(grads[j][r][l],
                                             grads[j][k - 1 - r][l]))
    for lcomp in range(pc.components):
        for m in range(pc.n):
            bjet = ws.drift_jets.get((j, lcomp, m))
            if bjet is not None:
                spatial = ws.add(spatial, ws.mul(bjet, grads[lcomp][k - 1][m]))
    if wp.mode == "plain":
        out = spatial
    elif wp.mode == "beta":
        out = ws.scale(spatial, wp.beta)
    else:
        out = ws.scale_series(spatial, _series_sigma(wp.beta, ws.jet_cap))
    out = ws.add(out, ws.scale(ws.dt(prev), -1.0))
    vparts = ws.vpart_polys.get(j)
    if vparts and (k - 1) in vparts:
        vpoly = vparts[k - 1]
        if wp.mode == "plain":
            vjet = vpoly
        elif wp.mode == "beta":
            vjet = ws.scale(vpoly, wp.beta ** k)
        else:
            warp_pow = _warp_power(k - 1, wp.beta, ws.jet_cap)
            sigma = _series_sigma(wp.beta, ws.jet_cap)
            vjet = ws.scale_series(ws.scale_series(vpoly, warp_pow), sigma)
        out = ws.add(out, vjet)
    return out


def expand(pc: ProblemCoefficients, y, K: int,
           wp: WarpParams = WarpParams(), D: int | None = None) -> ExpansionCoeffs:
    """Full coefficient recursion c_0 ... c_K about one center.

    ``expand_batch`` at B = 1.  ``D`` defaults to 2K + 2; gradient
    products densify the polynomials quickly, so the dense cap is sized
    for the worst order.  Only the coefficients are built here;
    ``diagnostics`` samples them on demand and reports non-decay, never
    raises.
    """
    batch = expand_batch(pc, np.reshape(np.asarray(y, dtype=float), (1, -1)),
                         K, wp, D)
    return _expansion(tuple(float(v) for v in batch.centers[0]), wp, K,
                      batch.degree_D, batch.coeffs[:, :, :, 0],
                      batch.jet_order, bool(batch.truncated[0]),
                      pc.domain_radius_R)


def _expansion(center, wp, K, D, coeffs, jet_order, truncated,
               domain_radius_R=1.0) -> ExpansionCoeffs:
    """An ExpansionCoeffs holding its arrays read-only."""
    for a in (coeffs, jet_order):
        a.flags.writeable = False
    return ExpansionCoeffs(center, wp, K, D, len(coeffs), coeffs, jet_order,
                           truncated, domain_radius_R)


def _lattice(n: int, R: float, per_axis: int) -> np.ndarray:
    """Tensor lattice of per_axis^n points on [-R, R]^n."""
    axis = np.linspace(-R, R, per_axis)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _diagnostics(exp: ExpansionCoeffs) -> ExpansionDiagnostics:
    """Sample sup norms of each c_k over a lattice in the domain ball."""
    points = _lattice(exp.dim, exp.domain_radius_R, SAMPLE_LATTICE)
    mono = _monomials(points - np.asarray(exp.center), exp.degree_D)
    tau_ref = DIAG_TAU_REF
    # every jet at tau_ref, summed in ascending time order
    frozen = sum(exp.coeffs[:, :, l] * tau_ref ** l
                 for l in range(exp.coeffs.shape[2]))
    sup = [max(0.0, *(float(np.max(np.abs(mono @ frozen[j, k])))
                      for j in range(exp.components)))
           for k in range(exp.order_K + 1)]
    return ExpansionDiagnostics(tuple(sup), tuple(
        w * tau_ref ** k for k, w in enumerate(sup)), tau_ref, exp.truncated)


# ---------------------------------------------------------------------------
# warp parameter selection
# ---------------------------------------------------------------------------

def beta_upper_bound(n: int, C: float, c0_up: float) -> float:
    """Convergence threshold 1/(3 * 4 n^2 C^2 c0_up^2) for the beta scaling."""
    if c0_up <= 0:
        raise ParameterError("c0_up must be positive")
    return 1.0 / (12.0 * n * n * C * C * c0_up * c0_up)


def beta_from_bound(n: int, C: float, c0_up: float) -> float:
    """Selected beta: half the threshold, clipped to [1e-6, 1]."""
    if c0_up == 0.0:
        return 1.0
    raw = 0.5 * beta_upper_bound(n, C, c0_up)
    return float(min(BETA_CAP, max(BETA_FLOOR, raw)))


def select_beta(pc: ProblemCoefficients, K_probe: int = 0) -> WarpParams:
    """Estimate c_0^up on a lattice over Omega x Omega and pick beta.

    One ``expand_batch`` call builds c_0 about every lattice centre; each
    is evaluated at every lattice point.  The sampled sup is capped at the
    analytic bound n^2 R C (it cannot honestly exceed it when the declared
    constants hold).  Zero drift
    returns beta = 1: the expansion terminates anyway.
    """
    if pc.is_zero_drift():
        return WarpParams(mode="beta", beta=1.0)
    R = pc.domain_radius_R
    points = _lattice(pc.n, R, SAMPLE_LATTICE)
    worst = 0.0
    D = max(6, 2 * K_probe + 2)
    # c_0 at time 0 about every lattice centre: (components, centres, N)
    c0 = expand_batch(pc, points, 0, WarpParams(), D).coeffs[:, 0, 0]
    for b, y in enumerate(points):
        mono = _monomials(points - y, D)
        for j in range(pc.components):
            worst = max(worst, float(np.max(np.abs(mono @ c0[j, b]))))
    analytic = pc.components ** 2 * R * pc.bound_C
    c0_up = min(worst, analytic)
    return WarpParams(mode="beta", beta=beta_from_bound(pc.n, pc.bound_C, c0_up))


@dataclass(frozen=True)
class WarpSchedule:
    """Result of horizon planning under the constraint beta/(1-tau) <= c."""

    params: WarpParams
    achievable: bool
    max_horizon: float
    note: str = ""


def warp_schedule(T: float, c_target: float) -> WarpSchedule:
    """Best tau-mode schedule reaching toward horizon T.

    Maximizing t(tau) = -beta ln(1-tau) subject to beta/(1-tau) <= c gives
    1 - tau = 1/e, beta = c/e and the finite maximum horizon c/e.  The
    claimed unboundedness of the reachable range does not survive the
    constraint (the limiting argument evaluates to zero), so the flag
    reports honestly when T exceeds c/e.
    """
    if T <= 0 or c_target <= 0:
        raise ParameterError("T and c_target must be positive")
    beta = c_target / math.e
    tau_max = 1.0 - 1.0 / math.e
    max_horizon = c_target / math.e
    achievable = T <= max_horizon * (1.0 + 1e-14)
    note = ("" if achievable else
            f"horizon {T} exceeds the constrained maximum {max_horizon:.6g}; "
            f"returning the maximizing schedule")
    return WarpSchedule(WarpParams(mode="tau", beta=beta, tau_max=tau_max),
                        achievable, max_horizon, note)


# ---------------------------------------------------------------------------
# serialization (consumed by the CLI)
# ---------------------------------------------------------------------------

def expansion_to_dict(exp: ExpansionCoeffs) -> dict:
    exps, _, _ = index_table(exp.dim, exp.degree_D)
    comps = []
    for j in range(exp.components):
        orders = []
        for k in range(exp.coeffs.shape[1]):
            terms = []
            for l in range(exp.jet_order[j, k] + 1):
                row = exp.coeffs[j, k, l]
                terms.append({
                    "l": l,
                    "coeffs": [[list(map(int, exps[i])), float(row[i])]
                               for i in np.nonzero(row)[0]],
                })
            orders.append({"k": k, "jet_order": int(exp.jet_order[j, k]),
                           "terms": terms})
        comps.append(orders)
    return {
        "center": list(exp.center),
        "mode": exp.warp.mode,
        "beta": exp.warp.beta,
        "tau_max": exp.warp.tau_max,
        "order_K": exp.order_K,
        "degree_D": exp.degree_D,
        "components": exp.components,
        "domain_radius_R": exp.domain_radius_R,
        "coefficients": comps,
        "diagnostics": {
            "sup_norms": list(exp.diagnostics.sup_norms),
            "weighted": list(exp.diagnostics.weighted),
            "tau_ref": exp.diagnostics.tau_ref,
            "truncated": exp.diagnostics.truncated,
        },
    }


def expansion_from_dict(data: dict) -> ExpansionCoeffs:
    """The inverse of :func:`expansion_to_dict`; a jet's order is its
    number of terms less one (an empty list reads as a zero jet), and a
    file without ``domain_radius_R`` reads as radius 1."""
    center = tuple(float(v) for v in data["center"])
    D = int(data["degree_D"])
    wp = WarpParams(mode=data["mode"], beta=float(data["beta"]),
                    tau_max=float(data["tau_max"]))
    _, pos, _ = index_table(len(center), D)
    comps = data["coefficients"]
    jet_order = np.array([[max(len(rec["terms"]) - 1, 0) for rec in orders]
                          for orders in comps])
    coeffs = np.zeros(jet_order.shape + (jet_order.max() + 1, len(pos)))
    for j, orders in enumerate(comps):
        for k, rec in enumerate(orders):
            for l, tdata in enumerate(rec["terms"]):
                for exps_list, val in tdata["coeffs"]:
                    coeffs[j, k, l, pos[tuple(exps_list)]] = val
    diag = data["diagnostics"]
    exp = _expansion(center, wp, int(data["order_K"]), D, coeffs, jet_order,
                     bool(diag["truncated"]),
                     float(data.get("domain_radius_R", 1.0)))
    # the sampled diagnostics travel with the file; seed the lazy value
    vars(exp)["diagnostics"] = ExpansionDiagnostics(
        tuple(diag["sup_norms"]), tuple(diag["weighted"]),
        float(diag["tau_ref"]), bool(diag["truncated"]))
    return exp
