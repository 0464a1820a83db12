"""Expansion-coefficient recursions for drift-coupled parabolic systems.

The kernel ansatz is a Gaussian times ``exp(sum_k c_k * time^k)``.  This
module computes the coefficient functions ``c^j_0 ... c^j_K`` for three
time parameterizations:

* ``plain`` -- physical time t, valid on a short horizon.
* ``beta``  -- rescaled time tau = t / beta: the plain expansion with the
  time^l term of c_k scaled by beta^(k + l), once the recursion is done.
* ``tau``   -- warped time tau = 1 - exp(-t/beta), mapping any horizon
  into tau < 1: the plain series re-expanded in tau once the recursion is
  done.  Its total orders m = k + l <= K are summed, a_m, and
  sum_m a_m t(tau)^m with t(tau) = -beta ln(1 - tau) is cut at tau^K:
  coefficient q is sum_m [tau^q] t(tau)^m a_m, one time order each.

Each c_k solves the first-order equation  k c_k + dx . grad c_k = R_{k-1}
along rays from the expansion center, which on monomials acts diagonally:
the dx^gamma coefficient of c_k is the matching coefficient of R_{k-1}
scaled by 1/(k + |gamma|).

``expand_batch`` runs the recursion for many centres at once on arrays,
each centre with its own time origin s for the kernel p(s + t, x; s, y);
``expand`` is its one-centre case and keeps the arrays in an
:class:`ExpansionCoeffs`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructureError, UnsupportedSpecError
from .funcspec import CoefficientEntry, TimeEntry
from .polyalg import (index_table, _degree, _monomials, _mul_cols,
                      _overflow_cols, _partial_tables, _rows, _tensor_grid)

SAMPLE_LATTICE = 17      # points per axis when sampling sup norms
BETA_FLOOR = 1e-6
BETA_CAP = 1.0
DIAG_TAU_REF = 0.5       # weight tau used in convergence diagnostics


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

def _as_time_entry(entry) -> TimeEntry:
    """A drift or potential entry as a :class:`TimeEntry`.  The entry must
    be a ``poly`` or ``fourier`` entry, or a ``time_poly`` of those
    without nesting."""
    parts = entry.parts if isinstance(entry, TimeEntry) else ((0, entry),)
    for _, part in parts:
        if not isinstance(part, CoefficientEntry):
            raise UnsupportedSpecError(
                "drift and potential entries are poly, fourier or a "
                f"time_poly of those, not {type(part).__name__}")
    return entry if isinstance(entry, TimeEntry) else TimeEntry(parts)


@dataclass(frozen=True)
class ProblemCoefficients:
    """Admissible drift/potential data for one parabolic system.

    ``drift`` maps (equation i, field j, direction k) to an entry for
    b^i_{jk}; ``potential`` maps equation i to V_i.  Each entry is a
    ``PolyEntry`` or ``FourierEntry``, or a ``TimeEntry`` of those, and is
    held as a ``TimeEntry``.  ``bound_C`` is the generic derivative-bound
    constant and ``domain_radius_R`` the radius of a ball containing the
    domain.
    """

    n: int
    components: int
    drift: dict
    potential: dict = field(default_factory=dict)
    bound_C: float = 1.0
    domain_radius_R: float = 1.0
    # the entries' highest time order, and whether it is positive; set once
    # the entries are normalised
    max_time_order: int = field(init=False, repr=False, compare=False)
    time_dependent: bool = field(init=False, repr=False, compare=False)

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
        order = max((e.max_order for e in (*self.drift.values(),
                                           *self.potential.values())),
                    default=0)
        object.__setattr__(self, "max_time_order", order)
        object.__setattr__(self, "time_dependent", order > 0)

    def is_zero_drift(self) -> bool:
        """No drift and no potential: the kernel is the heat kernel."""
        return not self.drift and not self.potential

    def spot_check_bounds(self, max_order: int = 4, samples: int = 5) -> float:
        """Largest ratio |d^a entry| / C^|a| over a sample lattice.

        A return value <= 1 means the declared bound holds at the probes.
        """
        R = self.domain_radius_R
        points = _tensor_grid([np.linspace(-R, R, samples)] * self.n)
        worst = 0.0
        alphas = [tuple(a) for a in index_table(self.n, max_order)[0]]
        for entry in list(self.drift.values()) + list(self.potential.values()):
            for _, part in entry.parts:
                for alpha in alphas:
                    d = part.derivative(alpha).eval(0.0, points)
                    bound = self.bound_C ** sum(alpha)
                    worst = max(worst, float(np.max(np.abs(d))) / bound)
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
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ParameterError(f"beta must be positive and finite, "
                                 f"got {self.beta}")
        if not 0.0 <= self.tau_max < 1.0:
            raise ParameterError("tau_max must lie in [0, 1)")
        if self.tau_max and self.mode != "tau":
            raise ParameterError(f"{self.mode} mode requires tau_max = 0")

    def _check_tau_max(self, tau) -> None:
        """Raise where a tau, or an array's largest, passes ``tau_max``."""
        top = float(np.max(tau, initial=0.0))
        if 0.0 < self.tau_max < top:
            raise ParameterError(f"tau = {top} exceeds the warp's "
                                 f"tau_max = {self.tau_max}")

    def mode_time(self, t):
        """Physical elapsed time t, a float or an array, to the warp's own
        time variable: t, t / beta, or tau = 1 - exp(-t / beta); a tau
        past ``tau_max`` raises."""
        if self.mode == "plain":
            return t
        if self.mode == "beta":
            return t / self.beta
        tau = -np.expm1(-t / self.beta)
        self._check_tau_max(tau)
        return tau

    def physical_time(self, time: float) -> tuple[float, float]:
        """(t_eff, d t_eff / d time) at a valid mode time (else raises),
        the inverse of :meth:`mode_time`: t_eff = -beta ln(1 - tau) in tau
        mode."""
        if not (math.isfinite(time) and time > 0):
            raise ParameterError(f"time must be finite and positive, got "
                                 f"{time}; as t -> 0 the kernel is a delta")
        if self.mode == "plain":
            return time, 1.0
        if self.mode == "beta":
            return self.beta * time, self.beta
        if time >= 1.0:
            raise ParameterError("tau must lie in (0, 1) in warped mode")
        self._check_tau_max(time)
        return -self.beta * math.log1p(-time), self.beta / (1.0 - time)


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Per-order sup-norm samples."""

    sup_norms: tuple[float, ...]           # c_k^up sampled on a lattice
    weighted: tuple[float, ...]            # c_k^up * tau_ref^k
    tau_ref: float

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
# the recursion proper
# ---------------------------------------------------------------------------

class _BatchWorkspace:
    """Drift/potential jets about B centres, as arrays.

    A jet is an array of shape (rows, order + 1, B): table rows, time
    orders, centres.  A jet's rows stop at its spatial degree d, the first
    ``_rows(n, d)`` rows of the graded table, so the shape carries the
    degree; no rows (degree -1) is the zero polynomial, its time orders
    kept so no jet order depends on which values vanish.  Entry jets and
    each stored c_k are cut after their last row nonzero at any order and
    centre of the chunk (:meth:`cut`); every other degree follows from the
    algebra: a sum takes the larger, a product the sum (capped at D; -1
    with a zero factor), a derivative one less, the monomial dx degree 1,
    and the rest keep theirs.  Only rows of exact zeros are dropped, so
    the values equal the full-row ones up to the sign of zero.  The
    methods mirror the one-centre time-jet algebra the tests keep as their
    reference (``tests/objalg.py``) term for term, in the same order of
    floating-point operations.  ``truncated`` (B,) marks the centres where
    the degree cap cut a nonzero term, of an entry's Taylor expansion or
    of a product; every product feeds a stored c_k, so it is the
    expansion's flag.  ``origins`` (B,) holds each centre's time origin s,
    or is None for origin 0 everywhere.
    """

    def __init__(self, pc: ProblemCoefficients, ys: np.ndarray,
                 origins: np.ndarray | None, D: int):
        self.n, self.D = pc.n, D
        self.orders = index_table(pc.n, D)[2]
        self.N, self.B = len(self.orders), len(ys)
        self.truncated = np.zeros(self.B, dtype=bool)
        # False once a product has found every centre marked
        self.unmarked = True
        self.drift_jets = {key: self._entry_terms(entry, ys, origins)
                           for key, entry in pc.drift.items()}
        self.vpart_polys = {}
        for i, entry in pc.potential.items():
            terms = self._entry_terms(entry, ys, origins)
            orders = [l for l, _ in entry.parts] if origins is None \
                else range(terms.shape[1])
            self.vpart_polys[i] = {l: terms[:, l:l + 1] for l in orders}

    def _entry_terms(self, entry: TimeEntry, ys: np.ndarray,
                     origins: np.ndarray | None) -> np.ndarray:
        """An entry's time terms about every centre, re-anchored at its
        origin, shape (rows, order + 1, B), cut after the last row nonzero
        at any order and centre.

        Each part is Taylor-expanded once; where the cap cuts it, every
        centre is marked.  About origin s, t -> s + t makes the order-m
        term sum_{l >= m} C(l, m) s^(l - m) part_l.
        """
        terms = np.zeros((self.N, entry.max_order + 1, self.B))
        for l, part in entry.parts:
            coeffs, truncated = part._taylor_cols(ys, self.D)
            self.truncated |= truncated
            if origins is None:
                terms[:, l] += coeffs
                continue
            for m in range(l + 1):
                terms[:, m] += math.comb(l, m) * origins ** (l - m) * coeffs
        return self.cut(terms)

    # -- the jet algebra -----------------------------------------------------

    def zero(self):
        return np.zeros((0, 1, self.B))

    def cut(self, x):
        """``x`` without its rows after the last one nonzero at any time
        order and centre; NaN and inf count as nonzero.  The top degree's
        rows are tested first, so a jet that fills them costs one ``any``.
        """
        d = _degree(len(x), self.n, self.D)
        if d < 0 or x[_rows(self.n, d - 1):].any():
            return x
        nonzero = np.flatnonzero(x.any(axis=(1, 2)))
        top = int(self.orders[nonzero[-1]]) if len(nonzero) else -1
        return x[:_rows(self.n, top)]

    def delta_x(self, axis: int):
        """The monomial dx_axis."""
        x = np.zeros((_rows(self.n, 1), 1, self.B))
        x[index_table(self.n, self.D)[1][
            tuple(int(a == axis) for a in range(self.n))]] = 1.0
        return x

    @staticmethod
    def add(x, y):
        if x.shape == y.shape:
            return x + y
        if len(x) < len(y):
            x, y = y, x                 # the sum commutes, bit for bit
        if x.shape[1] >= y.shape[1]:
            if not len(y):
                return x                # plus the zero polynomial
            out = x.copy()
        else:
            out = np.zeros((len(x), y.shape[1], x.shape[2]))
            out[:, :x.shape[1]] = x
        out[:len(y), :y.shape[1]] += y
        return out

    def mul(self, x, y):
        """The jet product; the centres where it cuts a nonzero term are
        marked truncated.  A zero factor gives the zero jet at once."""
        if not len(x) or not len(y):
            return np.zeros((0, x.shape[1] + y.shape[1] - 1, self.B))
        if x.shape[1] == y.shape[1] == 1:
            # one time order each: the plan's one pair is the operands
            xa, yb = x, y
            out = _mul_cols(x, y, self.n, self.D)
        else:
            ia, ib, ranks = _pair_plan(x.shape[1] - 1, y.shape[1] - 1)
            xa, yb = x[:, ia], y[:, ib]
            prods = _mul_cols(xa, yb, self.n, self.D)
            out = prods[:, :ranks[0][1]]
            for lo, hi, start in ranks[1:]:
                out[:, lo:hi] += prods[:, start:start + hi - lo]
        # below the cap in degree, no column can overflow
        if self.unmarked and _degree(len(x), self.n, self.D) \
                + _degree(len(y), self.n, self.D) > self.D:
            need = ~self.truncated
            self.unmarked = bool(need.any())
            if self.unmarked:
                self.truncated[need] = _overflow_cols(
                    xa[..., need], yb[..., need], self.n, self.D).any(axis=0)
        return out

    def add_product(self, total, x, y, scale: float = 1.0):
        """``total + scale * x y``.  A zero factor gives the zero jet, which
        is formed and added only where it lifts the sum's time order."""
        if len(x) and len(y) or total.shape[1] < x.shape[1] + y.shape[1] - 1:
            term = self.mul(x, y)
            return self.add(total, term if scale == 1.0 else term * scale)
        return total

    def partial(self, x, axis: int):
        """d/dx_axis: the zero jet for a jet of degree <= 0."""
        d = _degree(len(x), self.n, self.D)
        if d <= 0:
            return x[:0]
        # the targets are the rows of degree < d, in order
        src, _, scale = _partial_tables(self.n, d)[axis]
        return scale[:, None, None] * x[src]

    def ray(self, x, s: float):
        """The ray integral int_0^1 x(y + u dx) u^(s - 1) du, which divides
        row gamma by s + |gamma|: the plain solve at s = k."""
        return x / (self.orders[:len(x)] + s)[:, None, None]

    def dt(self, x):
        if x.shape[1] == 1:
            return self.zero()
        return x[:, 1:] * np.arange(1.0, x.shape[1])[None, :, None]


@functools.lru_cache(maxsize=None)
def _pair_plan(La: int, Lb: int):
    """Term pairs (i, l - i) of a jet product, grouped by rank.

    Rank r collects the r-th pair, in ascending i, of every output order
    l that has one.  Those orders form one run lo <= l < hi, so the pairs
    are listed rank after rank, each rank a slice of them starting at
    ``start``; adding the ranks in turn sums each output term in the
    order the one-centre jet product does.  Returns (ia, ib, ranks), a
    rank as (lo, hi, start); rank 0 holds every order.
    """
    n = La + Lb
    per_l = [range(max(0, l - Lb), min(l, La) + 1) for l in range(n + 1)]
    ia, ib, ranks = [], [], []
    for r in range(max(map(len, per_l))):
        ls = [l for l in range(n + 1) if len(per_l[l]) > r]
        ranks.append((ls[0], ls[-1] + 1, len(ia)))
        ia.extend(per_l[l][r] for l in ls)
        ib.extend(l - per_l[l][r] for l in ls)
    ia, ib = np.array(ia), np.array(ib)
    for a in (ia, ib):
        a.flags.writeable = False
    return ia, ib, tuple(ranks)


@functools.lru_cache(maxsize=256)
def _tau_reexpansion(beta: float, K: int) -> np.ndarray:
    """The lower-triangular map M[q, m] = [tau^q] t(tau)^m, q and m <= K,
    of t(tau) = -beta ln(1 - tau) = beta (tau + tau^2/2 + ...), read-only;
    beta keys it, so bounded."""
    t = np.r_[0.0, beta / np.arange(1.0, K + 1)]
    M = np.zeros((K + 1, K + 1))
    M[0, 0] = 1.0
    for m in range(1, K + 1):
        M[:, m] = np.convolve(M[:, m - 1], t)[:K + 1]
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class ExpansionBatch:
    """Coefficients c^j_0 ... c^j_K about B centres, as arrays.

    ``coeffs[j, k, l, b]`` holds the coefficients of c^j_k's time^l term
    about centre b, one per row of ``index_table(n, degree_D)``, and is
    zero above ``jet_order[j, k]``.  ``truncated[b]`` records whether the
    degree cap cut a nonzero term about centre b.
    """

    centers: np.ndarray          # (B, n)
    warp: WarpParams
    degree_D: int
    coeffs: np.ndarray           # (components, K + 1, T, B, N)
    jet_order: np.ndarray        # (components, K + 1)
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
    jet orders and flag are those the recursion gives at that centre
    alone.  Every warp runs the plain recursion.  A beta warp then scales
    the time^l term of c_k by beta^(k + l); a tau warp sums each total
    order m = k + l <= K and re-expands the sum in tau, cut at tau^K, by
    :func:`_tau_reexpansion`: its coefficients are (components, K + 1, 1,
    B, N), the q-th tau order at k = q, and every jet order is 0.  ``D``
    defaults to 2K + 2.
    """
    if K < 0:
        raise ParameterError("K must be >= 0")
    if D is None:
        D = 2 * K + 2
    if D < 1 and pc.drift:
        raise ParameterError(f"degree_D = {D} is too small for a drift: "
                             "c_0 = -1/2 b.(x - y) needs degree >= 1")
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
    # c_k has time order at most (k + 1) times the coefficients' order
    T = (K + 1) * pc.max_time_order + 1
    # a dense product's temporaries: both gathered operands and their
    # product, per pair of time orders and in-cap pair of rows (as many as
    # the exponents of degree <= D in 2n variables)
    per_centre = 3 * _rows(2 * pc.n, D) * T * (T + 1) // 2
    step = max(1, _CHUNK_FLOATS // per_centre)
    chunks = [_expand_chunk(pc, ys[i:i + step],
                            None if origins is None else origins[i:i + step],
                            K, D)
              for i in range(0, len(ys), step)]
    coeffs, orders, truncated = zip(*chunks)
    # one chunk's arrays are handed over as they are, without a copy
    coeffs, truncated = (
        a[0] if len(chunks) == 1 else np.concatenate(a, axis=axis)
        for a, axis in ((coeffs, 3), (truncated, 0)))
    orders = orders[0]
    if wp.mode == "beta":
        # t = beta tau: the time^l term of c_k picks up beta^(k + l)
        k, l = np.ogrid[:K + 1, :coeffs.shape[2]]
        coeffs *= (wp.beta ** (k + l))[:, :, None, None]
    elif wp.mode == "tau":
        # a_m = sum_{k + l = m} c_kl; tau order q sums M[q, m] a_m over m
        M = _tau_reexpansion(wp.beta, K)
        out = np.zeros((len(coeffs), K + 1, 1) + coeffs.shape[3:])
        for m in range(K + 1):
            a_m = sum(coeffs[:, k, m - k] for k in range(m + 1)
                      if m - k < coeffs.shape[2])
            out[:, m:, 0] += M[m:, m, None, None] * a_m[:, None]
        coeffs, orders = out, np.zeros_like(orders)
    return ExpansionBatch(ys, wp, D, coeffs, orders, truncated)


def _expand_chunk(pc, ys, origins, K, D):
    """``expand_batch``'s arrays for one chunk of centres."""
    ws = _BatchWorkspace(pc, ys, origins, D)
    jets = []
    for j in range(pc.components):
        total = ws.zero()
        for m in range(pc.n):
            rows = [ws.drift_jets[(j, l, m)] for l in range(pc.components)
                    if (j, l, m) in ws.drift_jets]
            if rows:
                row = functools.reduce(ws.add, rows, ws.zero())
                total = ws.add_product(total, ws.ray(row, 1.0), ws.delta_x(m))
        jets.append([ws.cut(total * -0.5)])
    grads = [[[ws.partial(cj[0], a) for a in range(pc.n)]] for cj in jets]
    for k in range(1, K + 1):
        for j in range(pc.components):
            R = _batch_R(ws, pc, k, j, jets, grads)
            jets[j].append(ws.cut(ws.ray(R, float(k))))
        if k == K:
            break                       # R reads gradients below order K
        for j in range(pc.components):
            grads[j].append([ws.partial(jets[j][k], a)
                             for a in range(pc.n)])
    orders = np.array([[x.shape[1] - 1 for x in cj] for cj in jets])
    coeffs = np.zeros((pc.components, K + 1, orders.max() + 1, ws.B, ws.N))
    for j, cj in enumerate(jets):
        for k, x in enumerate(cj):
            coeffs[j, k, :x.shape[1], :, :len(x)] = x.transpose(1, 2, 0)
    return coeffs, orders, ws.truncated


def _batch_R(ws: _BatchWorkspace, pc: ProblemCoefficients, k: int, j: int,
             coeffs, grads):
    """R_{k-1} feeding the order-k ray solve; ``grads[j][r][l]`` is d_l c^j_r.

    Assembles  -d/dt c_{k-1}  +  Lap c_{k-1}
    + sum_l sum_r d_l c_r d_l c_{k-1-r} + sum_lm b^j_lm d_m c^l_{k-1}
    plus the potential term of explicit order k - 1, all in physical time
    t whatever the warp.  The gradient sum is a Cauchy square: per axis,
    each distinct pair r < k-1-r is formed once and doubled, in ascending
    r, then the middle square when k is odd.  Lap c_{k-1} is taken from
    its stored gradients.
    """
    prev = coeffs[j][k - 1]
    spatial = functools.reduce(ws.add, map(ws.partial, grads[j][k - 1],
                                           range(pc.n)))
    for l in range(pc.n):
        for r in range((k + 1) // 2):
            spatial = ws.add_product(spatial, grads[j][r][l],
                                     grads[j][k - 1 - r][l],
                                     1.0 if 2 * r == k - 1 else 2.0)
    for lcomp in range(pc.components):
        for m in range(pc.n):
            bjet = ws.drift_jets.get((j, lcomp, m))
            if bjet is not None:
                spatial = ws.add_product(spatial, bjet, grads[lcomp][k - 1][m])
    out = ws.add(spatial, ws.dt(prev) * -1.0)
    vjet = ws.vpart_polys.get(j, {}).get(k - 1)
    if vjet is not None:
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


def _diagnostics(exp: ExpansionCoeffs) -> ExpansionDiagnostics:
    """Sample sup norms of each c_k over a lattice in the domain ball."""
    R = exp.domain_radius_R
    points = _tensor_grid([np.linspace(-R, R, SAMPLE_LATTICE)] * exp.dim)
    mono = _monomials(points - np.asarray(exp.center), exp.degree_D)
    tau_ref = DIAG_TAU_REF
    # every jet at tau_ref, summed in ascending time order
    frozen = sum(exp.coeffs[:, :, l] * tau_ref ** l
                 for l in range(exp.coeffs.shape[2]))
    sup = [max(0.0, *(float(np.max(np.abs(mono @ frozen[j, k])))
                      for j in range(exp.components)))
           for k in range(exp.order_K + 1)]
    return ExpansionDiagnostics(tuple(sup), tuple(
        w * tau_ref ** k for k, w in enumerate(sup)), tau_ref)


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


def select_beta(pc: ProblemCoefficients) -> WarpParams:
    """Estimate c_0^up on a lattice over Omega x Omega and pick beta.

    One ``expand_batch`` call builds c_0 about every lattice centre; each
    is evaluated at every lattice point.  The sampled sup is capped at the
    analytic bound n^2 R C (it cannot honestly exceed it when the declared
    constants hold).  Zero drift returns beta = 1: the expansion terminates.
    """
    if pc.is_zero_drift():
        return WarpParams(mode="beta", beta=1.0)
    R = pc.domain_radius_R
    points = _tensor_grid([np.linspace(-R, R, SAMPLE_LATTICE)] * pc.n)
    worst = 0.0
    D = 6
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
    if not all(math.isfinite(v) and v > 0 for v in (T, c_target)):
        raise ParameterError(f"T and c_target must be positive and finite, "
                             f"got {T} and {c_target}")
    beta = c_target / math.e
    tau_max = 1.0 - 1.0 / math.e
    max_horizon = c_target / math.e
    achievable = T <= max_horizon * (1.0 + 1e-14)
    note = ("" if achievable else
            f"horizon {T} exceeds the constrained maximum {max_horizon:.6g}; "
            f"returning the maximizing schedule")
    return WarpSchedule(WarpParams(mode="tau", beta=beta, tau_max=tau_max),
                        achievable, max_horizon, note)


def resolve_warp(pc: ProblemCoefficients, horizon: float, mode: str,
                 beta: float | None = None,
                 c_target: float | None = None) -> WarpParams:
    """The warp of a problem file's ``expansion`` block or the warp flags.

    A ``beta`` is taken as given (plain mode accepts only 1); a ``c_target``
    needs tau mode and no ``beta``, and sets both by :func:`warp_schedule`;
    with neither, beta and tau mode take :func:`select_beta`'s beta.  Any
    other case raises :class:`ParameterError`.
    """
    if c_target is not None:
        if mode != "tau" or beta is not None:
            raise ParameterError("c_target requires tau mode and sets beta "
                                 "itself, so it cannot be combined with beta")
        return warp_schedule(horizon, float(c_target)).params
    if beta is None:
        beta = 1.0 if mode == "plain" else select_beta(pc).beta
    return WarpParams(mode=mode, beta=float(beta))


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
            "truncated": exp.truncated,
        },
    }


def expansion_from_dict(data: dict) -> ExpansionCoeffs:
    """The inverse of :func:`expansion_to_dict`; a jet's order is its
    number of terms less one (an empty list reads as a zero jet), and a
    file without ``domain_radius_R`` reads as radius 1.  The file's
    ``diagnostics`` are not read: they are sampled again from the
    coefficients, so they cannot disagree with them."""
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
    return _expansion(center, wp, int(data["order_K"]), D, coeffs, jet_order,
                      bool(data["diagnostics"]["truncated"]),
                      float(data.get("domain_radius_R", 1.0)))
