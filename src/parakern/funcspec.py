"""Problem functions: drift and potential entries and problem data.

One class per kind serves every role.  The drift and potential entries
are a ``poly``, a ``fourier``, or a ``time_poly`` of those
(:class:`PolyEntry`, :class:`FourierEntry`, :class:`TimeEntry`); the first
two are :class:`CoefficientEntry` classes, which admit exact Taylor
expansion with a derivative bound, as the expansion theory requires.  The
data ``phi``, ``f``, ``alpha``, ``psi`` and ``phi0`` may be of any kind,
and a data ``time_poly`` may hold any spec.  :func:`spec_from_dict` reads
every kind from its problem-file JSON form.

Every spec evaluates as f(t, x) on whole arrays of points: ``x`` has
shape (..., n), one point per row, and ``t`` is a scalar or an array that
broadcasts against the leading shape of ``x``.  The value has the
broadcast shape of ``t`` and ``x[..., 0]`` (space-only kinds ignore t and
have the shape of ``x[..., 0]``); one point, shape (n,), gives a scalar.
Each kind has one implementation, and one point gives the same bits as
its row of a batched call.  Only :class:`CallableFunc`, which wraps a
per-point user callable, loops over the rows.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ScalingError, SchemaError, UnsupportedSpecError
from .polyalg import index_table


class FunctionSpec:
    time_dependent = False

    def eval(self, t, x: np.ndarray):
        raise NotImplementedError


def _exp(z, what: str):
    """``np.exp(z)``; where it overflows, a :class:`ScalingError` rather
    than inf."""
    with np.errstate(over="ignore"):
        out = np.exp(z)
    if np.isinf(out).any():
        raise ScalingError(f"{what} overflows: exponent up to "
                           f"{float(np.max(z)):.6g}")
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


@lru_cache(maxsize=None)
def _factorials(dim: int, cap: int) -> np.ndarray:
    """gamma! per row of ``index_table(dim, cap)``, as floats."""
    exps, _, _ = index_table(dim, cap)
    fact = np.array([math.prod(math.factorial(int(e)) for e in row)
                     for row in exps], dtype=float)
    fact.flags.writeable = False
    return fact


@dataclass(frozen=True)
class ZeroFunc(FunctionSpec):
    def eval(self, t, x):
        return zeros_at(np.asarray(x, dtype=float))[()]


# ---------------------------------------------------------------------------
# coefficient entries (admissible b, V and friends)
# ---------------------------------------------------------------------------

class CoefficientEntry(FunctionSpec):
    """A spatial function admitting exact Taylor expansion.

    Supported classes are multivariate polynomials and finite Fourier
    series; both satisfy a derivative bound ``|d^a f| <= A c^|a|`` which is
    what the expansion theory requires of drift and potential entries.
    """

    def derivative(self, alpha: Sequence[int]) -> "CoefficientEntry":
        raise NotImplementedError

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

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x)
        for coef, exps in self.terms:
            total = total + coef * monomial(x, exps)
        return total[()]

    def derivative(self, alpha):
        new_terms = []
        for c, exps in self.terms:
            if all(e >= a for e, a in zip(exps, alpha)):
                for e, a in zip(exps, alpha):
                    for i in range(a):
                        c *= e - i
                new_terms.append((c, tuple(e - a for e, a in zip(exps, alpha))))
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

    def eval(self, t, x):
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


# ---------------------------------------------------------------------------
# further data kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpacePolyFourier(FunctionSpec):
    """sum coef * x^exps * sin(k . x + phase); covers terms like x sin x."""

    terms: tuple[tuple[float, tuple[int, ...], tuple[float, ...], float], ...]

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x)
        for c, e, k, p in self.terms:
            total = total + c * monomial(x, e) \
                * np.sin(np.vecdot(x, np.asarray(k)) + p)
        return total[()]


@dataclass(frozen=True)
class GaussianMix(FunctionSpec):
    """sum a * exp(-b |x - c|^2)."""

    terms: tuple[tuple[float, float, tuple[float, ...]], ...]

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x)
        for a, b, c in self.terms:
            d = x - np.asarray(c)
            total = total + a * _exp(-b * np.vecdot(d, d), "gaussian_mix")
        return total[()]


@dataclass(frozen=True)
class GridSamples(FunctionSpec):
    """1D samples with cubic-spline interpolation (natural ends)."""

    points: tuple[float, ...]
    values: tuple[float, ...]

    def _spline(self):
        cached = getattr(self, "_spline_obj", None)
        if cached is None:
            from scipy.interpolate import CubicSpline
            cached = CubicSpline(self.points, self.values, bc_type="natural")
            object.__setattr__(self, "_spline_obj", cached)
        return cached

    def eval(self, t, x):
        return self._spline()(np.asarray(x, dtype=float)[..., 0])[()]


@dataclass(frozen=True)
class TimeEntry(FunctionSpec):
    """Polynomial time dependence: ``sum_l part_l(t, x) * t^l``.

    As a drift or potential entry its parts are space-only
    :class:`CoefficientEntry` objects; as data they may be any spec.
    """

    parts: tuple[tuple[int, FunctionSpec], ...]
    time_dependent = True

    @property
    def max_order(self) -> int:
        return max((l for l, _ in self.parts), default=0)

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x, t)
        for l, part in self.parts:
            total = total + part.eval(t, x) * np.power(t, l)
        return total[()]


@dataclass(frozen=True)
class ExpTime(FunctionSpec):
    """exp(rate * t) * space(x)."""

    rate: float
    space: FunctionSpec
    time_dependent = True

    def eval(self, t, x):
        return _exp(self.rate * t, "expt") * self.space.eval(t, x)


@dataclass(frozen=True)
class CallableFunc(FunctionSpec):
    """Wrap an arbitrary callable f(t, x) of one point; for in-process use
    only.  The one kind that loops over the rows of a batch."""

    fn: Callable
    time_dependent = True

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(np.shape(t), x.shape[:-1])
        if not shape:
            return float(self.fn(t, x))
        ts = np.broadcast_to(t, shape).ravel()
        xs = np.broadcast_to(x, shape + x.shape[-1:]).reshape(-1, x.shape[-1])
        return np.array([float(self.fn(ti, xi))
                         for ti, xi in zip(ts, xs)]).reshape(shape)


def spec_from_dict(data: dict | None, dim: int) -> FunctionSpec:
    """Build a spec from its problem-file JSON form.

    A ``time_poly`` lists its parts under ``"parts"`` as data and under
    ``"terms"`` as a drift or potential record.  Every exponent tuple,
    wave vector and centre has ``dim`` coordinates, every number is a
    JSON number (not a string or a boolean), every exponent and time
    order an integer (``2`` or ``2.0``), and ``grid`` data is 1D;
    otherwise a :class:`SchemaError` names the kind.
    """
    if data is None:
        return ZeroFunc()
    if not isinstance(data, dict):
        raise SchemaError(f"a function spec is an object, not {data!r}")
    kind = data.get("kind")

    def num(v) -> float:
        if type(v) not in (float, int) and (
                isinstance(v, bool) or not isinstance(v, numbers.Real)):
            raise SchemaError(f"{kind}: {v!r} is not a number")
        return float(v)

    def whole(v) -> int:
        if not num(v).is_integer():
            raise SchemaError(f"{kind}: {v!r} is not an integer")
        return int(v)

    def coords(values, what: str, cast=num) -> tuple:
        if len(values) != dim:
            raise SchemaError(f"{kind}: {what} {list(values)} has "
                              f"{len(values)} coordinates, not {dim}")
        return tuple(cast(v) for v in values)

    if kind == "zero":
        return ZeroFunc()
    if kind == "poly":
        return PolyEntry(dim, tuple((num(c), coords(e, "exponent", whole))
                                    for c, e in data["terms"]))
    if kind == "fourier":
        return FourierEntry(dim, tuple(
            (num(a), coords(k, "wave vector"), num(p))
            for a, k, p in data["terms"]))
    if kind == "polyfourier":
        return SpacePolyFourier(tuple(
            (num(c), coords(e, "exponent", whole), coords(k, "wave vector"),
             num(p)) for c, e, k, p in data["terms"]))
    if kind == "gaussian_mix":
        return GaussianMix(tuple((num(a), num(b), coords(c, "centre"))
                                 for a, b, c in data["terms"]))
    if kind == "grid":
        if dim != 1:
            raise SchemaError(f"grid: samples are 1D, the dimension is {dim}")
        return GridSamples(tuple(num(v) for v in data["points"]),
                           tuple(num(v) for v in data["values"]))
    if kind == "time_poly":
        parts = data["parts"] if "parts" in data else data["terms"]
        return TimeEntry(tuple((whole(l), spec_from_dict(s, dim))
                               for l, s in parts))
    if kind == "expt":
        return ExpTime(num(data["rate"]), spec_from_dict(data["space"], dim))
    raise UnsupportedSpecError(f"unknown function kind {kind!r}")
