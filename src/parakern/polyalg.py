"""Truncated multivariate Taylor-polynomial algebra.

Everything downstream (coefficient recursions, kernel assembly) works on
bare coefficient arrays indexed by one table:

* :class:`MultiIndex` -- exponent tuples with order and factorial helpers.
* :func:`index_table` -- every exponent of total degree <= cap, in
  graded-lexicographic order; row ``i`` of a coefficient array pairs
  with row ``i`` of the table.
* :class:`TaylorPoly` -- one such array about a center, as a plain
  record (``taylorize``, ``ray_integrate`` and ``pk_gamma`` return one).

The private column helpers (``_mul_cols``, ``_overflow_cols``,
``_partial_tables`` and the entries' ``_taylor_cols``) do the arithmetic
on coefficient arrays with any number of columns, one per expansion
centre; ``taylor_coeffs`` is the one-column case of ``_taylor_cols``.
Because the table is graded, the rows of degree <= d are its first
``_rows(dim, d)`` rows, so an array may stop at its degree: products
take their pair table for the operands' degrees (``_mul_tables``, keyed
by dim, cap and both degrees) and form no pair of rows known to be zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import ParameterError, StructureError, UnsupportedSpecError

# Factorials above this order are rejected rather than silently huge.
MAX_INDEX_ORDER = 64


# ---------------------------------------------------------------------------
# multi-indices and the graded-lexicographic index table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    """Non-negative integer exponents, one per coordinate."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ParameterError("dimension must be >= 1")
        if any(e < 0 for e in self.entries):
            raise ParameterError(f"negative exponent in {self.entries}")
        if self.order > MAX_INDEX_ORDER:
            raise ParameterError(
                f"|gamma|={self.order} exceeds cap {MAX_INDEX_ORDER}")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def order(self) -> int:
        return sum(self.entries)

    def factorial(self) -> int:
        out = 1
        for e in self.entries:
            out *= math.factorial(e)
        return out

    def incremented(self, i: int) -> "MultiIndex":
        """gamma + 1_i."""
        if not 0 <= i < self.dim:
            raise ParameterError(f"coordinate {i} out of range")
        e = list(self.entries)
        e[i] += 1
        return MultiIndex(tuple(e))

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


@lru_cache(maxsize=None)
def index_table(dim: int, cap: int):
    """All exponent tuples with total degree <= cap, graded-lex sorted.

    Returns ``(exps, pos, orders)`` where ``exps`` is an ``(N, dim)`` int
    array, ``pos`` maps tuple -> row, and ``orders`` holds total degrees.
    The table, not the polynomials, owns the canonical ordering.
    """
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    if cap < 0:
        raise ParameterError("degree cap must be >= 0")

    def gen(d):
        if d == 0:
            yield ()
            return
        for rest in gen(d - 1):
            for e in range(cap + 1 - sum(rest)):
                yield rest + (e,)

    tuples = sorted(gen(dim), key=_grlex_key)
    exps = np.array(tuples, dtype=np.int64).reshape(len(tuples), dim)
    pos = {t: i for i, t in enumerate(tuples)}
    orders = exps.sum(axis=1)
    return exps, pos, orders


def _rows(dim: int, degree: int) -> int:
    """Rows of total degree <= ``degree``: a prefix of every table with a
    larger cap, since the table is graded."""
    return math.comb(dim + degree, dim)


@lru_cache(maxsize=None)
def _degree(rows: int, dim: int, cap: int) -> int:
    """The degree of a column of ``rows`` rows, a prefix of the table."""
    return int(index_table(dim, cap)[2][rows - 1])


@lru_cache(maxsize=None)
def _mul_tables(dim: int, cap: int, da: int, db: int):
    """Index pairs of the truncated product of a degree-da column by a
    degree-db column, both indexed by ``index_table(dim, cap)``.

    ``(ii, jj)`` enumerate the products landing inside the cap, in
    row-major pair order, and ``scatter`` is the CSR matrix adding them
    onto the min(da + db, cap) rows of the result; each row sums its
    products in pair order, as ``np.add.at`` would, so the scatter
    reproduces the sequential sum bit for bit.  ``(oi, oj)`` are the pairs
    that would exceed the cap (used for the truncation flag).
    """
    exps, pos, orders = index_table(dim, cap)
    i, j = np.divmod(np.arange(_rows(dim, da) * _rows(dim, db)), _rows(dim, db))
    inside = orders[i] + orders[j] <= cap
    ii, jj = i[inside], j[inside]
    tt = [pos[tuple(e)] for e in (exps[ii] + exps[jj]).tolist()]
    scatter = sparse.csr_matrix(
        (np.ones(len(tt)), (tt, np.arange(len(tt)))),
        shape=(_rows(dim, min(da + db, cap)), len(tt)))
    return ii, jj, scatter, i[~inside], j[~inside]


@lru_cache(maxsize=None)
def _partial_tables(dim: int, cap: int):
    """Per-coordinate (source row, target row, scale) differentiation maps."""
    exps, pos, _ = index_table(dim, cap)
    out = []
    for axis in range(dim):
        src, dst, scale = [], [], []
        for i, e in enumerate(exps):
            if e[axis] > 0:
                t = tuple(e)
                lowered = t[:axis] + (t[axis] - 1,) + t[axis + 1:]
                src.append(i)
                dst.append(pos[lowered])
                scale.append(t[axis])
        out.append((np.array(src), np.array(dst), np.array(scale, dtype=float)))
    return tuple(out)


@lru_cache(maxsize=None)
def _factorials(dim: int, cap: int) -> np.ndarray:
    """gamma! per row of ``index_table(dim, cap)``, as floats."""
    exps, _, _ = index_table(dim, cap)
    fact = np.array([math.prod(math.factorial(int(e)) for e in row)
                     for row in exps], dtype=float)
    fact.flags.writeable = False
    return fact


def _mul_cols(a: np.ndarray, b: np.ndarray, dim: int, cap: int) -> np.ndarray:
    """Truncated products of coefficient columns.

    ``a`` and ``b`` hold table rows on axis 0 and any number of columns
    (centres, time orders, ...) behind it; each column multiplies on its
    own, so a column's result does not depend on the others.  A column
    holds the rows up to its degree (``_rows(dim, da)`` of them), so the
    pair table is the one for the operands' degrees; the result holds the
    rows up to min(da + db, cap).
    """
    ii, jj, scatter, _, _ = _mul_tables(dim, cap, _degree(len(a), dim, cap),
                                        _degree(len(b), dim, cap))
    prod = (a[ii] * b[jj]).reshape(len(ii), -1)
    return (scatter @ prod).reshape(scatter.shape[:1] + a.shape[1:])


def _overflow_cols(a: np.ndarray, b: np.ndarray, dim: int,
                   cap: int) -> np.ndarray:
    """Per column: does the product discard a nonzero term above the cap?

    Exactly ``any(a[oi] * b[oj] != 0)``.  A finite product can be nonzero
    only if both factors are, so columns whose highest nonzero orders sum
    to at most the cap are settled without forming the products.
    """
    orders = index_table(dim, cap)[2][:, None]
    _, _, _, oi, oj = _mul_tables(dim, cap, _degree(len(a), dim, cap),
                                  _degree(len(b), dim, cap))
    shape = a.shape[1:]
    a = a.reshape(len(a), -1)
    b = b.reshape(len(b), -1)
    flags = np.zeros(a.shape[1], dtype=bool)
    if len(oi):
        top_a = np.where(a != 0.0, orders[:len(a)], -1).max(axis=0)
        top_b = np.where(b != 0.0, orders[:len(b)], -1).max(axis=0)
        maybe = (top_a + top_b > cap) | ~np.isfinite(a).all(axis=0) \
            | ~np.isfinite(b).all(axis=0)
        if maybe.any():
            flags[maybe] = np.any(a[oi][:, maybe] * b[oj][:, maybe] != 0.0,
                                  axis=0)
    return flags.reshape(shape)


# ---------------------------------------------------------------------------
# TaylorPoly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorPoly:
    """Dense truncated polynomial in ``dx = x - center``.

    ``coeffs[i]`` pairs with row ``i`` of ``index_table(dim, cap)``.  The
    ``truncated`` flag records that the cap cut a nonzero coefficient.
    """

    dim: int
    center: tuple[float, ...]
    cap: int
    coeffs: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        exps, _, _ = index_table(self.dim, self.cap)
        if len(self.coeffs) != len(exps):
            raise StructureError(
                f"coefficient array of length {len(self.coeffs)} does not "
                f"match table size {len(exps)} for dim={self.dim} cap={self.cap}")
        if len(self.center) != self.dim:
            raise StructureError("center length does not match dimension")

    @staticmethod
    def zero(dim: int, center: Sequence[float], cap: int) -> "TaylorPoly":
        exps, _, _ = index_table(dim, cap)
        return TaylorPoly(dim, tuple(float(c) for c in center), cap,
                          np.zeros(len(exps)))

    def coeff(self, gamma) -> float:
        entries = gamma.entries if isinstance(gamma, MultiIndex) else tuple(gamma)
        _, pos, _ = index_table(self.dim, self.cap)
        return float(self.coeffs[pos[entries]])


def _monomials(dx: np.ndarray, cap: int) -> np.ndarray:
    """``dx^gamma`` per row gamma of ``index_table(dim, cap)``, replacing
    the last axis of ``dx`` (shape (dim,) or (m, dim))."""
    exps = index_table(dx.shape[-1], cap)[0]
    # per-axis power tables, multiplied left to right as np.prod would
    powers = dx[..., None] ** np.arange(cap + 1)
    out = 1.0
    for axis in range(dx.shape[-1]):
        out = out * np.take(powers[..., axis, :], exps[:, axis], axis=-1)
    return out


def monomial(x: np.ndarray, exps: Sequence[int]) -> np.ndarray:
    """``prod_a x[..., a] ** exps[a]`` at every point of ``x`` (..., n).

    The exponents are laid out over the whole array, so every power runs
    through numpy's general pow loop, as in a one-point call: an exponent
    broadcast over the points would let an exponent of 2 take the
    squaring shortcut, which rounds differently, and a point's bits would
    depend on the shape of its batch.
    """
    e = np.broadcast_to(np.asarray(exps), x.shape).copy()
    return np.prod(x ** e, axis=-1)


def zeros_at(x: np.ndarray, t=0.0) -> np.ndarray:
    """Zeros shaped like a value at the points ``x`` (..., n) and time
    ``t``, a scalar or broadcasting against the points' leading shape."""
    return np.zeros(np.broadcast_shapes(np.shape(t), x.shape[:-1]))


# ---------------------------------------------------------------------------
# coefficient-entry specs (admissible b, V and friends)
# ---------------------------------------------------------------------------

class CoefficientEntry:
    """A spatial coefficient admitting exact Taylor expansion.

    Supported classes are multivariate polynomials and finite Fourier
    series; both satisfy a derivative bound ``|d^a f| <= A c^|a|`` which is
    what the expansion theory requires of drift and potential entries.
    ``eval`` takes points of shape (..., n) and returns shape (...), a
    scalar for one point, with the bits of that point's row in a batch.
    """

    def eval(self, x: np.ndarray):
        raise NotImplementedError

    def derivative(self, alpha: Sequence[int]) -> "CoefficientEntry":
        raise NotImplementedError

    def taylor_coeffs(self, y: Sequence[float], cap: int) -> TaylorPoly:
        y = np.asarray(y, dtype=float)
        coeffs, truncated = self._taylor_cols(y.reshape(1, -1), cap)
        return TaylorPoly(self.dim, tuple(y), cap, coeffs[:, 0], truncated)

    def _taylor_cols(self, ys: np.ndarray, cap: int) -> tuple[np.ndarray, bool]:
        """Taylor coefficients about each row of ``ys`` (shape (B, dim)).

        Returns the coefficients as columns, shape (N, B), and whether
        the cap cut a term (the same for every centre).
        """
        raise NotImplementedError

    def bound_constants(self) -> tuple[float, float]:
        """(amplitude A, rate c) with |d^a f| <= A * c^|a| everywhere...

        ...for Fourier entries; for polynomials the bound holds on the
        declared domain only and the rate is degree-dependent, so callers
        should treat it as advisory there.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class PolyEntry(CoefficientEntry):
    """Sum of monomial terms ``coef * x^exps`` in absolute coordinates."""

    dim: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x)
        for coef, exps in self.terms:
            total = total + coef * monomial(x, exps)
        return total[()]

    def derivative(self, alpha):
        new_terms = []
        for coef, exps in self.terms:
            c = coef
            e = list(exps)
            dead = False
            for axis, a in enumerate(alpha):
                for _ in range(a):
                    if e[axis] == 0:
                        dead = True
                        break
                    c *= e[axis]
                    e[axis] -= 1
                if dead:
                    break
            if not dead:
                new_terms.append((c, tuple(e)))
        return PolyEntry(self.dim, tuple(new_terms))

    def _taylor_cols(self, ys, cap):
        # exact binomial re-centering: x^m = sum_k C(m,k) y^(m-k) dx^k
        _, pos, _ = index_table(self.dim, cap)
        out = np.zeros((len(pos), len(ys)))
        truncated = False
        for coef, exps in self.terms:
            for k in itertools.product(*(range(e + 1) for e in exps)):
                if sum(k) > cap:
                    truncated = True
                    continue
                w = coef
                for a in range(self.dim):
                    w = w * (math.comb(exps[a], k[a])
                             * ys[:, a] ** (exps[a] - k[a]))
                out[pos[k]] += w
        return out, truncated

    def max_degree(self) -> int:
        return max((sum(e) for _, e in self.terms), default=0)

    def bound_constants(self):
        amp = sum(abs(c) for c, _ in self.terms)
        return amp, float(max(1, self.max_degree()))


@dataclass(frozen=True)
class FourierEntry(CoefficientEntry):
    """Finite Fourier series ``sum amp * sin(k . x + phase)``."""

    dim: int
    terms: tuple[tuple[float, tuple[float, ...], float], ...]

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x)
        for amp, wavevec, phase in self.terms:
            total = total + amp * np.sin(np.vecdot(x, np.asarray(wavevec))
                                         + phase)
        return total[()]

    def derivative(self, alpha):
        # d^a sin(k.x + p) = (prod k_i^a_i) sin(k.x + p + |a| pi/2)
        new_terms = []
        order = sum(alpha)
        for amp, wavevec, phase in self.terms:
            scale = 1.0
            for axis, a in enumerate(alpha):
                scale *= wavevec[axis] ** a
            new_terms.append((amp * scale, wavevec, phase + order * math.pi / 2))
        return FourierEntry(self.dim, tuple(new_terms))

    def _taylor_cols(self, ys, cap):
        exps, _, orders = index_table(self.dim, cap)
        fact = _factorials(self.dim, cap)[:, None]
        out = np.zeros((len(exps), len(ys)))
        for amp, wavevec, phase in self.terms:
            ky = wavevec[0] * ys[:, 0]
            for a in range(1, self.dim):
                ky = ky + wavevec[a] * ys[:, a]
            kpow = np.prod(np.asarray(wavevec)[None, :] ** exps, axis=1)
            out += amp * kpow[:, None] * np.sin(
                ky[None, :] + phase + (orders * math.pi / 2)[:, None]) / fact
        # the analytic tail beyond the cap is nonzero by construction
        return out, True

    def bound_constants(self):
        amp = sum(abs(a) for a, _, _ in self.terms)
        rate = max((float(np.linalg.norm(w)) for _, w, _ in self.terms),
                   default=0.0)
        return amp, rate


@dataclass(frozen=True)
class TimeEntry:
    """Polynomial time dependence: ``sum_l entry_l(x) * t^l``.

    ``eval`` takes points (..., n) and a time that is a scalar or
    broadcasts against their leading shape.
    """

    parts: tuple[tuple[int, CoefficientEntry], ...]

    @property
    def max_order(self) -> int:
        return max((l for l, _ in self.parts), default=0)

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x, t)
        for l, e in self.parts:
            total = total + e.eval(x) * np.power(t, l)
        return total[()]


@dataclass(frozen=True)
class TaylorExpansion:
    """taylorize() result: the truncated polynomial plus its tail bound."""

    poly: TaylorPoly
    amplitude: float
    rate: float

    def remainder_bound(self, radius: float) -> float:
        """Rigorous sup of |f - poly| on the ball of the given radius.

        Directional (D+1)-st derivatives of a Fourier term are bounded by
        ``amp * |k|^(D+1)``, giving the Lagrange form below.  Polynomial
        entries inside their degree have zero tail.
        """
        d1 = self.poly.cap + 1
        return self.amplitude * self.rate ** d1 * radius ** d1 / math.factorial(d1)


def taylorize(entry: CoefficientEntry, y: Sequence[float],
              degree: int) -> TaylorExpansion:
    """Expand an admissible coefficient entry about ``y`` to ``degree``."""
    if not isinstance(entry, CoefficientEntry):
        raise UnsupportedSpecError(
            f"cannot taylorize object of type {type(entry).__name__}")
    poly = entry.taylor_coeffs(y, degree)
    if isinstance(entry, PolyEntry) and entry.max_degree() <= degree:
        amp, rate = 0.0, 0.0
    else:
        amp, rate = entry.bound_constants()
    return TaylorExpansion(poly, amp, rate)


# ---------------------------------------------------------------------------
# scalar power-series helpers (used by the recursion module)
# ---------------------------------------------------------------------------

def _series_mul(a: np.ndarray, b: np.ndarray, max_order: int) -> np.ndarray:
    out = np.zeros(max_order + 1)
    for i, ai in enumerate(a[:max_order + 1]):
        if ai == 0.0:
            continue
        top = min(len(b), max_order + 1 - i)
        out[i:i + top] += ai * b[:top]
    return out


def series_reciprocal(a: np.ndarray, max_order: int) -> np.ndarray:
    """Power-series inverse of a series with nonzero constant term."""
    if a[0] == 0.0:
        raise ParameterError("series has no reciprocal: zero constant term")
    out = np.zeros(max_order + 1)
    out[0] = 1.0 / a[0]
    for m in range(1, max_order + 1):
        s = 0.0
        for i in range(1, min(m, len(a) - 1) + 1):
            s += a[i] * out[m - i]
        out[m] = -s / a[0]
    return out
