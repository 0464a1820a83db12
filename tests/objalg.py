"""The one-centre object algebra, kept as the tests' reference.

``parakern`` runs the coefficient recursion on arrays only
(``recursion.expand_batch``, whose ``_BatchWorkspace`` mirrors this
module term for term).  Here the same recursion runs one centre at a
time on values: a :class:`TaylorPoly` record with constructors and
operators, a :class:`TimeJet` of them (a truncated polynomial in time),
the jet arithmetic, and ``compute_c0``/``compute_R`` in plain and beta
mode; :func:`tau_reexpanded` re-expands their plain series in tau, as
tau mode's reference.  ``poly_mul`` calls the
shipped ``_mul_cols``/``_overflow_cols``, so product tests still exercise
the kernel the package uses.  :func:`jets_of` reads an expansion's
coefficient array back as TimeJets; :func:`remainder_bound`,
:func:`normal_derivative` and :func:`pair_log_value` are one-line
helpers the package does not need.  :func:`shifted_origin` re-anchors a
problem's coefficients at a time origin by rewriting its entries (an
:class:`EntrySum` holds a re-anchored part that mixes polynomial and
Fourier terms), the reference for ``expand_batch``'s ``origins``.
:func:`dense_mul_cols` multiplies full columns over every in-cap pair of
the table, and :class:`DenseWorkspace` runs ``expand_batch`` with it on
full-row jets: the reference for the degree-trimmed jets and products.

Not a test module: pytest does not collect it; tests import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import sparse

from parakern.errors import ParameterError, SequencingError, StructureError
from parakern.funcspec import (CoefficientEntry, FourierEntry, PolyEntry,
                               TimeEntry)
from parakern.kernel import Rows, eval_points
from parakern.polyalg import (index_table, _monomials, _mul_cols,
                              _overflow_cols, _partial_tables)
from parakern.recursion import (ExpansionCoeffs, ProblemCoefficients,
                                WarpParams, _BatchWorkspace)


# ---------------------------------------------------------------------------
# TaylorPoly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorPoly:
    """Dense truncated polynomial in ``dx = x - center``, with the
    algebra's constructors and operators.

    ``coeffs[i]`` pairs with row ``i`` of ``index_table(dim, cap)``.  The
    ``truncated`` flag records that the cap cut a nonzero coefficient.
    """

    dim: int
    center: tuple[float, ...]
    cap: int
    coeffs: np.ndarray
    truncated: bool = False

    def coeff(self, gamma) -> float:
        return float(self.coeffs[index_table(self.dim, self.cap)[1][
            tuple(gamma)]])

    @staticmethod
    def zero(dim: int, center: Sequence[float], cap: int) -> "TaylorPoly":
        exps, _, _ = index_table(dim, cap)
        return TaylorPoly(dim, tuple(float(c) for c in center), cap,
                          np.zeros(len(exps)))

    @staticmethod
    def delta_x(i: int, dim: int, center: Sequence[float],
                cap: int) -> "TaylorPoly":
        """The monomial dx_i."""
        if cap < 1:
            raise ParameterError("cap must be >= 1 to hold dx")
        p = TaylorPoly.zero(dim, center, cap)
        _, pos, _ = index_table(dim, cap)
        key = tuple(1 if a == i else 0 for a in range(dim))
        p.coeffs[pos[key]] = 1.0
        return p

    @staticmethod
    def from_coeff_dict(coeffs: dict, dim: int, center: Sequence[float],
                        cap: int) -> "TaylorPoly":
        p = TaylorPoly.zero(dim, center, cap)
        _, pos, _ = index_table(dim, cap)
        for key, val in coeffs.items():
            entries = tuple(key)
            if sum(entries) > cap:
                raise StructureError(f"index {entries} exceeds cap {cap}")
            p.coeffs[pos[entries]] = val
        return p

    def max_abs(self) -> float:
        return _max_abs(self)

    def __add__(self, other):
        return poly_add(self, other)

    def __mul__(self, other):
        if isinstance(other, TaylorPoly):
            return poly_mul(self, other)
        return _like(self, self.coeffs * float(other), self.truncated)

    __rmul__ = __mul__

    def __sub__(self, other):
        return poly_add(self, other * -1.0)

    def __neg__(self):
        return self * -1.0


def _like(p, coeffs: np.ndarray, truncated: bool) -> TaylorPoly:
    return TaylorPoly(p.dim, p.center, p.cap, coeffs, truncated)


def _max_abs(p) -> float:
    return float(np.max(np.abs(p.coeffs))) if len(p.coeffs) else 0.0


def _check_mate(a, b):
    if a.dim != b.dim or a.cap != b.cap or a.center != b.center:
        raise StructureError(
            f"mismatched polynomials: dim {a.dim}/{b.dim}, "
            f"cap {a.cap}/{b.cap}, center {a.center}/{b.center}")


def poly_add(a, b) -> TaylorPoly:
    """Coefficient-wise sum; operands must share dim, center and cap."""
    _check_mate(a, b)
    return _like(a, a.coeffs + b.coeffs, a.truncated or b.truncated)


def poly_mul(a, b) -> TaylorPoly:
    """Truncated product; discarded above-cap terms raise the flag."""
    _check_mate(a, b)
    out = _mul_cols(a.coeffs, b.coeffs, a.dim, a.cap)
    overflow = bool(_overflow_cols(a.coeffs, b.coeffs, a.dim, a.cap))
    return _like(a, out, a.truncated or b.truncated or overflow)


def poly_partial(p, i: int) -> TaylorPoly:
    """d/dx_i, coefficient shift-and-scale."""
    if not 0 <= i < p.dim:
        raise ParameterError(f"coordinate {i} out of range for dim {p.dim}")
    src, dst, scale = _partial_tables(p.dim, p.cap)[i]
    out = np.zeros_like(p.coeffs)
    if len(src):
        out[dst] = scale * p.coeffs[src]
    return _like(p, out, p.truncated)


def poly_laplacian(p) -> TaylorPoly:
    out = TaylorPoly.zero(p.dim, p.center, p.cap)
    for i in range(p.dim):
        out = poly_add(out, poly_partial(poly_partial(p, i), i))
    return _like(out, out.coeffs, p.truncated)


def poly_euler(p) -> TaylorPoly:
    """dx . grad p, which acts diagonally as multiplication by |gamma|."""
    _, _, orders = index_table(p.dim, p.cap)
    return _like(p, p.coeffs * orders, p.truncated)


def poly_shift_up(p, i: int) -> TaylorPoly:
    """Multiply by the monomial dx_i (exact, flags on overflow)."""
    return poly_mul(p, TaylorPoly.delta_x(i, p.dim, p.center, p.cap))


def poly_eval(p, x: Sequence[float]) -> float:
    """Evaluate at a point, summing in graded-lexicographic order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.dim,):
        raise StructureError(f"point of shape {x.shape}, expected ({p.dim},)")
    dx = x - np.asarray(p.center)
    return float(np.sum(p.coeffs * _monomials(dx, p.cap)))


def remainder_bound(entry: CoefficientEntry, cap: int, radius: float) -> float:
    """Rigorous sup of |f - poly| on the ball of the given radius, for the
    degree-``cap`` Taylor polynomial of ``entry`` about the ball's centre.

    Directional (cap+1)-st derivatives of a Fourier term are bounded by
    ``amp * |k|^(cap+1)`` (``bound_constants``), giving the Lagrange form
    below.  Polynomial entries inside their degree have zero tail.
    """
    if isinstance(entry, PolyEntry) and entry.max_degree() <= cap:
        return 0.0
    amp, rate = entry.bound_constants()
    d1 = cap + 1
    return amp * rate ** d1 * radius ** d1 / math.factorial(d1)


def normal_derivative(exp: ExpansionCoeffs, time: float, x, nu,
                      j: int = 0) -> float:
    """nu . grad_x p for a unit normal nu."""
    nu = np.asarray(nu, dtype=float)
    if abs(float(np.dot(nu, nu)) - 1.0) > 1e-12:
        raise ParameterError("nu must be a unit vector")
    kp = eval_points(exp, time, np.asarray(x, dtype=float)[None])
    return float(np.dot(nu, kp.gradient[j, 0]))


def pair_log_value(fld, t: float, s: float, x, y, j: int = 0) -> float:
    """log p(t, x; s, y) through a one-row ``fld.integrate`` call."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    [(value, _)] = fld.integrate(
        y[None], [Rows(s, t, np.asarray(x, dtype=float)[None], [0], 1.0)])
    return math.log(float(value[j]))


# ---------------------------------------------------------------------------
# TimeJet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeJet:
    """``sum_l P_l(x) * time^l`` with TaylorPoly coefficients.

    ``var`` tags the time variable ('t' for plain/physical time, 'tau' for
    the warped variable).  Terms all share dim, center and cap.
    """

    var: str
    terms: tuple[TaylorPoly, ...]

    def __post_init__(self):
        if not self.terms:
            raise StructureError("a TimeJet needs at least the order-0 term")
        for p in self.terms[1:]:
            _check_mate(self.terms[0], p)

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @property
    def dim(self) -> int:
        return self.terms[0].dim

    @property
    def center(self) -> tuple[float, ...]:
        return self.terms[0].center

    @property
    def cap(self) -> int:
        return self.terms[0].cap

    @property
    def truncated(self) -> bool:
        return any(p.truncated for p in self.terms)

    @staticmethod
    def of_poly(p, var: str = "t") -> "TimeJet":
        return TimeJet(var, (p,))

    @staticmethod
    def zero(dim: int, center, cap: int, var: str = "t") -> "TimeJet":
        return TimeJet(var, (TaylorPoly.zero(dim, center, cap),))

    def term(self, l: int) -> TaylorPoly:
        if l <= self.order:
            return self.terms[l]
        return TaylorPoly.zero(self.dim, self.center, self.cap)

    def is_time_constant(self, tol: float = 0.0) -> bool:
        return all(_max_abs(p) <= tol for p in self.terms[1:])

    def max_abs(self) -> float:
        return max(_max_abs(p) for p in self.terms)

    def _check_var(self, other: "TimeJet"):
        if self.var != other.var:
            raise StructureError(f"mixed time variables {self.var}/{other.var}")


def jet_add(a: TimeJet, b: TimeJet) -> TimeJet:
    a._check_var(b)
    n = max(a.order, b.order)
    return TimeJet(a.var,
                   tuple(poly_add(a.term(l), b.term(l)) for l in range(n + 1)))


def jet_mul(a: TimeJet, b: TimeJet, max_order: int | None = None) -> TimeJet:
    a._check_var(b)
    n = a.order + b.order
    if max_order is not None:
        n = min(n, max_order)
    terms = []
    for l in range(n + 1):
        acc = TaylorPoly.zero(a.dim, a.center, a.cap)
        for i in range(max(0, l - b.order), min(l, a.order) + 1):
            acc = poly_add(acc, poly_mul(a.terms[i], b.terms[l - i]))
        terms.append(acc)
    return TimeJet(a.var, tuple(terms))


def jet_scale(a: TimeJet, s: float) -> TimeJet:
    return TimeJet(a.var, tuple(p * s for p in a.terms))


def jet_dt(a: TimeJet) -> TimeJet:
    """Time derivative: lowers the jet order by one, scales by l."""
    if a.order == 0:
        return TimeJet.zero(a.dim, a.center, a.cap, a.var)
    return TimeJet(a.var,
                   tuple(a.terms[l] * float(l) for l in range(1, a.order + 1)))


def jet_partial(a: TimeJet, i: int) -> TimeJet:
    return TimeJet(a.var, tuple(poly_partial(p, i) for p in a.terms))


def jet_laplacian(a: TimeJet) -> TimeJet:
    return TimeJet(a.var, tuple(poly_laplacian(p) for p in a.terms))


def jet_eval(a: TimeJet, time: float, x: Sequence[float]) -> float:
    """Horner evaluation in time of the spatially evaluated terms."""
    vals = [poly_eval(p, x) for p in a.terms]
    out = 0.0
    for v in reversed(vals):
        out = out * time + v
    return out


def jet_compose_time(a: TimeJet, inner: np.ndarray, var: str,
                     max_order: int) -> TimeJet:
    """Substitute ``time = inner(s)`` where ``inner`` has no constant term.

    Used to re-express t-jets in the warped variable, e.g. the plain
    series at t(tau).
    """
    if len(inner) and inner[0] != 0.0:
        raise ParameterError("inner series must vanish at 0")
    zero = TaylorPoly.zero(a.dim, a.center, a.cap)
    terms = [zero] * (max_order + 1)
    # powers of the inner series, truncated
    power = np.zeros(max_order + 1)
    power[0] = 1.0
    for l, p in enumerate(a.terms):
        if l > 0:
            power = np.convolve(power, inner)[:max_order + 1]
        if _max_abs(p) == 0.0:
            continue
        for m in range(max_order + 1):
            if power[m] != 0.0:
                terms[m] = poly_add(terms[m], p * float(power[m]))
    return TimeJet(var, tuple(terms))


def jet_ray(jet: TimeJet, a: float) -> TimeJet:
    """int_0^1 jet(y + s dx) s^(a-1) ds: row gamma divided by |gamma| + a."""
    orders = index_table(jet.dim, jet.cap)[2]
    return TimeJet(jet.var, tuple(_like(p, p.coeffs / (orders + a),
                                        p.truncated) for p in jet.terms))


def jets_of(exp: ExpansionCoeffs) -> tuple[tuple[TimeJet, ...], ...]:
    """``exp.coeffs`` as TimeJets, indexed [component][k], each cut at its
    jet order.  The array keeps one truncation flag for the whole
    expansion (``exp.truncated``), so the terms carry none."""
    var = "t" if exp.warp.mode == "plain" else "tau"
    return tuple(
        tuple(TimeJet(var, tuple(
            TaylorPoly(exp.dim, exp.center, exp.degree_D,
                       exp.coeffs[j, k, l].copy())
            for l in range(exp.jet_order[j, k] + 1)))
            for k in range(exp.coeffs.shape[1]))
        for j in range(exp.components))


# ---------------------------------------------------------------------------
# the one-centre recursion
# ---------------------------------------------------------------------------

class _Workspace:
    """Mode-resolved drift/potential jets about one center."""

    def __init__(self, pc: ProblemCoefficients, y, wp: WarpParams, D: int):
        if wp.mode == "tau":
            raise ParameterError("tau mode re-expands the plain series: "
                                 "see tau_reexpanded")
        self.pc = pc
        self.y = tuple(float(v) for v in y)
        self.wp = wp
        self.D = D
        self.var = "t" if wp.mode == "plain" else "tau"
        self.truncated = False
        self.drift_jets = {}
        for key, entry in pc.drift.items():
            self.drift_jets[key] = self._entry_jet(entry)
        self.vpart_polys = {}
        for i, entry in pc.potential.items():
            self.vpart_polys[i] = {
                l: self._tay(part) for l, part in entry.parts}

    def _tay(self, part: CoefficientEntry) -> TaylorPoly:
        coeffs, truncated = part._taylor_cols(np.array([self.y]), self.D)
        self.truncated |= truncated
        return TaylorPoly(self.pc.n, self.y, self.D, coeffs[:, 0], truncated)

    def _entry_jet(self, entry: TimeEntry) -> TimeJet:
        """b as a jet in the mode's own time variable (t or beta tau)."""
        zero = TaylorPoly.zero(self.pc.n, self.y, self.D)
        terms = [zero] * (entry.max_order + 1)
        for l, part in entry.parts:
            terms[l] = self._tay(part)
        tjet = TimeJet("t", tuple(terms))
        if self.wp.mode == "plain":
            return tjet
        # t = beta tau: scale jet order l by beta^l
        scaled = tuple(p * (self.wp.beta ** l)
                       for l, p in enumerate(tjet.terms))
        return TimeJet("tau", scaled)

    def zero_jet(self) -> TimeJet:
        return TimeJet.zero(self.pc.n, self.y, self.D, self.var)


def compute_c0(pc: ProblemCoefficients, y, j: int,
               D: int, wp: WarpParams = WarpParams(),
               _ws: _Workspace | None = None) -> TimeJet:
    """Order-zero coefficient of component j about center y.

    Solves dx . grad c_0 = -(1/2) sum_lm b^j_{lm} dx_m, i.e. the ray
    integral of the drift row scaled by one half.  The half is forced by
    the t^(-1) balance of the ansatz (the Gaussian cross term enters with
    coefficient one) and is confirmed by the constant-drift kernel, whose
    exponent carries -b0 dx / 2.
    """
    ws = _ws or _Workspace(pc, y, wp, D)
    if not 0 <= j < pc.components:
        raise ParameterError(f"component {j} out of range")
    total = ws.zero_jet()
    for m in range(pc.n):
        row = ws.zero_jet()
        found = False
        for l in range(pc.components):
            jet = ws.drift_jets.get((j, l, m))
            if jet is not None:
                row = jet_add(row, jet)
                found = True
        if not found:
            continue
        integrated = jet_ray(row, 1.0)
        shifted = TimeJet(row.var,
                          tuple(poly_shift_up(p, m) for p in integrated.terms))
        total = jet_add(total, shifted)
    return jet_scale(total, -0.5)


def compute_R(k: int, prior: Sequence[Sequence[TimeJet]],
              pc: ProblemCoefficients, j: int, wp: WarpParams,
              _ws: _Workspace | None = None,
              y=None, D: int | None = None,
              ordered: bool = False) -> TimeJet:
    """Right-hand side R_{k-1} feeding the order-k ray solve.

    Assembles  -d/dtime c_{k-1}  +  m(time) [ Lap c_{k-1}
    + sum_l sum_r d_l c_r d_l c_{k-1-r} + sum_lm b^j_lm d_m c^l_{k-1} ]
    plus the potential jet term of matching explicit order, where the
    spatial multiplier m is 1 (plain) or beta (beta mode).  The time-derivative term enters unscaled; it
    originates on the other side of the graded identity.  The gradient
    sum is summed as ``expand_batch`` sums it: per axis, each distinct
    pair r < k-1-r once and doubled, in ascending r, then the middle
    square when k is odd.  ``ordered`` sums all k ordered pairs instead,
    each formed as its own product: the same value in another order.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if len(prior) < pc.components or any(len(cj) < k for cj in prior):
        raise SequencingError(
            f"compute_R(k={k}) needs c_0..c_{k - 1} for every component")
    if _ws is None:
        if y is None or D is None:
            head = prior[j][0]
            y, D = head.center, head.cap
        _ws = _Workspace(pc, y, wp, D)
    ws = _ws
    prev = prior[j][k - 1]

    spatial = jet_laplacian(prev)
    for l in range(pc.n):
        for r in range(k if ordered else (k + 1) // 2):
            term = jet_mul(jet_partial(prior[j][r], l),
                           jet_partial(prior[j][k - 1 - r], l))
            if not ordered and 2 * r != k - 1:
                term = jet_scale(term, 2.0)
            spatial = jet_add(spatial, term)
    for lcomp in range(pc.components):
        for m in range(pc.n):
            bjet = ws.drift_jets.get((j, lcomp, m))
            if bjet is None:
                continue
            spatial = jet_add(spatial,
                              jet_mul(bjet, jet_partial(prior[lcomp][k - 1], m)))

    out = spatial if wp.mode == "plain" else jet_scale(spatial, wp.beta)

    out = jet_add(out, jet_scale(jet_dt(prev), -1.0))

    # potential: the explicit-order-(k-1) term of V_j enters R_{k-1}
    vparts = ws.vpart_polys.get(j)
    if vparts and (k - 1) in vparts:
        vpoly = vparts[k - 1]
        if wp.mode == "beta":
            vpoly = vpoly * (wp.beta ** k)
        out = jet_add(out, TimeJet.of_poly(vpoly, ws.var))
    return out


def tau_reexpanded(plain: Sequence[Sequence[TimeJet]], beta: float,
                   K: int) -> tuple[tuple[TimeJet, ...], ...]:
    """Plain-mode coefficients [component][k] as tau mode's: the total
    orders m = k + l <= K summed into the t-jet sum_m a_m t^m, then
    t = -beta ln(1 - tau) = beta sum_j tau^j / j substituted and cut at
    tau^K; the tau^q term is returned as [component][q], a jet of order 0.
    """
    inner = np.array([0.0] + [beta / j for j in range(1, K + 1)])
    out = []
    for cj in plain:
        head = cj[0]
        sums = [TaylorPoly.zero(head.dim, head.center, head.cap)] * (K + 1)
        for k, jet in enumerate(cj[:K + 1]):
            for l, p in enumerate(jet.terms[:K + 1 - k]):
                sums[k + l] = poly_add(sums[k + l], p)
        tjet = jet_compose_time(TimeJet("t", tuple(sums)), inner, "tau", K)
        out.append(tuple(TimeJet("tau", (p,)) for p in tjet.terms))
    return tuple(out)


# ---------------------------------------------------------------------------
# re-anchoring at a time origin by rewriting the entries
# ---------------------------------------------------------------------------

def shifted_origin(pc: ProblemCoefficients, s0: float) -> ProblemCoefficients:
    """Coefficients re-expanded around time origin s0 (for p(t,x;s,y))."""
    if s0 == 0.0 or not pc.time_dependent:
        return pc
    return ProblemCoefficients(
        pc.n, pc.components,
        {k: shifted_entry(v, s0) for k, v in pc.drift.items()},
        {k: shifted_entry(v, s0) for k, v in pc.potential.items()},
        pc.bound_C, pc.domain_radius_R)


def shifted_entry(entry: TimeEntry, s0: float) -> TimeEntry:
    """Re-expand around a shifted time origin: t -> s0 + t."""
    if not entry.parts:
        return entry
    dim = entry.parts[0][1].dim
    acc: dict[int, list] = {}
    for l, e in entry.parts:
        for m in range(l + 1):
            acc.setdefault(m, []).append((math.comb(l, m) * s0 ** (l - m), e))
    return TimeEntry(tuple((m, _scaled_sum(dim, pieces))
                           for m, pieces in sorted(acc.items())))


def _scaled_sum(dim: int, pieces) -> CoefficientEntry:
    """Combine (scale, entry) pieces into one entry: a PolyEntry or a
    FourierEntry of the scaled terms, or their :class:`EntrySum`."""
    poly = PolyEntry(dim, tuple((s * c, ex) for s, e in pieces
                                if isinstance(e, PolyEntry)
                                for c, ex in e.terms))
    fourier = FourierEntry(dim, tuple((s * a, w, p) for s, e in pieces
                                      if isinstance(e, FourierEntry)
                                      for a, w, p in e.terms))
    if not fourier.terms:
        return poly
    return EntrySum(dim, poly, fourier) if poly.terms else fourier


@dataclass(frozen=True)
class EntrySum(CoefficientEntry):
    """A polynomial plus a Fourier entry, which neither class holds."""

    dim: int
    poly: PolyEntry
    fourier: FourierEntry

    def eval(self, t, x):
        return self.poly.eval(t, x) + self.fourier.eval(t, x)

    def derivative(self, alpha):
        return EntrySum(self.dim, self.poly.derivative(alpha),
                        self.fourier.derivative(alpha))

    def _taylor_cols(self, ys, cap):
        a, cut_a = self.poly._taylor_cols(ys, cap)
        b, cut_b = self.fourier._taylor_cols(ys, cap)
        return a + b, cut_a or cut_b

    def bound_constants(self):
        (pa, pr), (fa, fr) = (self.poly.bound_constants(),
                              self.fourier.bound_constants())
        return pa + fa, max(pr, fr)


# ---------------------------------------------------------------------------
# the dense full-table product, the reference for degree-trimmed jets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dense_mul_tables(dim: int, cap: int):
    """Index pairs of the truncated product of two full columns: ``(ii,
    jj, tt)`` in-cap pairs and their target rows, ``(oi, oj)`` the pairs
    above the cap."""
    exps, pos, orders = index_table(dim, cap)
    n = len(exps)
    ii, jj, tt, oi, oj = [], [], [], [], []
    for i in range(n):
        for j in range(n):
            if orders[i] + orders[j] <= cap:
                ii.append(i)
                jj.append(j)
                tt.append(pos[tuple(exps[i] + exps[j])])
            else:
                oi.append(i)
                oj.append(j)
    return (np.array(ii), np.array(jj), np.array(tt),
            np.array(oi, dtype=np.int64), np.array(oj, dtype=np.int64))


@lru_cache(maxsize=None)
def _dense_scatter(dim: int, cap: int):
    """CSR matrix adding the in-cap products onto rows in pair order."""
    n = len(index_table(dim, cap)[0])
    tt = _dense_mul_tables(dim, cap)[2]
    return sparse.csr_matrix(
        (np.ones(len(tt)), (tt, np.arange(len(tt)))), shape=(n, len(tt)))


def dense_mul_cols(a: np.ndarray, b: np.ndarray, dim: int,
                   cap: int) -> np.ndarray:
    """Truncated products of full coefficient columns: every pair of the
    table, zero or not."""
    ii, jj, _, _, _ = _dense_mul_tables(dim, cap)
    prod = (a[ii] * b[jj]).reshape(len(ii), -1)
    return (_dense_scatter(dim, cap) @ prod).reshape(a.shape)


def dense_overflow_cols(a: np.ndarray, b: np.ndarray, dim: int,
                        cap: int) -> np.ndarray:
    """Per full column: does the product discard a nonzero term above the
    cap?  Exactly ``any(a[oi] * b[oj] != 0)``."""
    _, _, _, oi, oj = _dense_mul_tables(dim, cap)
    shape = a.shape[1:]
    a = a.reshape(len(a), -1)
    b = b.reshape(len(b), -1)
    flags = np.zeros(a.shape[1], dtype=bool)
    if len(oi):
        orders = index_table(dim, cap)[2][:, None]
        top_a = np.where(a != 0.0, orders, -1).max(axis=0)
        top_b = np.where(b != 0.0, orders, -1).max(axis=0)
        maybe = (top_a + top_b > cap) | ~np.isfinite(a).all(axis=0) \
            | ~np.isfinite(b).all(axis=0)
        if maybe.any():
            flags[maybe] = np.any(a[oi][:, maybe] * b[oj][:, maybe] != 0.0,
                                  axis=0)
    return flags.reshape(shape)


def pad_rows(x: np.ndarray, rows: int) -> np.ndarray:
    """``x`` with zero rows appended up to ``rows``."""
    out = np.zeros((rows,) + x.shape[1:])
    out[:len(x)] = x
    return out


class DenseWorkspace(_BatchWorkspace):
    """``expand_batch``'s workspace with every jet on all N table rows.

    ``cut`` keeps every row, so entry jets and stored coefficients keep
    their zero rows, and ``zero``, ``delta_x``, ``mul`` and ``partial``
    build full-row arrays, ``mul`` over every in-cap pair of the table and
    with the overflow check at every unmarked centre; the other operations
    act row by row and need no copy.  Substituted for
    ``recursion._BatchWorkspace``, it runs the dense recursion the
    degree-trimmed one must equal.
    """

    def cut(self, x):
        return x

    def zero(self):
        return np.zeros((self.N, 1, self.B))

    def delta_x(self, axis: int):
        x = np.zeros((self.N, 1, self.B))
        x[index_table(self.n, self.D)[1][
            tuple(int(a == axis) for a in range(self.n))]] = 1.0
        return x

    def mul(self, x, y):
        La, Lb = x.shape[1] - 1, y.shape[1] - 1
        top = La + Lb
        # every term pair (i, l - i) of the jet product, by l and then i
        pairs = [(i, l - i) for l in range(top + 1)
                 for i in range(max(0, l - Lb), min(l, La) + 1)]
        ia, ib = (np.array(v) for v in zip(*pairs))
        xa, yb = x[:, ia], y[:, ib]
        prods = dense_mul_cols(xa, yb, self.n, self.D)
        # each output order adds its pairs in ascending i
        out = np.empty((len(prods), top + 1, prods.shape[2]))
        for l in range(top + 1):
            first, *rest = [p for p, (i, j) in enumerate(pairs) if i + j == l]
            out[:, l] = prods[:, first]
            for p in rest:
                out[:, l] += prods[:, p]
        need = ~self.truncated
        if need.any():
            self.truncated[need] = dense_overflow_cols(
                xa[..., need], yb[..., need], self.n, self.D).any(axis=0)
        return out

    def partial(self, x, axis: int):
        src, dst, scale = _partial_tables(self.n, self.D)[axis]
        out = np.zeros_like(x)
        if len(src):
            out[dst] = scale[:, None, None] * x[src]
        return out
