"""Function specs for initial data, sources and boundary data.

Solvers consume these instead of bare callables so problem files can
describe them declaratively.  Every spec evaluates as f(t, x) on whole
arrays of points: ``x`` has shape (..., n), one point per row, and ``t``
is a scalar or an array that broadcasts against the leading shape of
``x``.  The value has the broadcast shape of ``t`` and ``x[..., 0]``
(space-only kinds ignore t and have the shape of ``x[..., 0]``); one
point, shape (n,), gives a scalar.  Each kind has one implementation, and
one point gives the same bits as its row of a batched call.  Only
:class:`CallableFunc`, which wraps a per-point user callable, loops over
the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ScalingError, UnsupportedSpecError
from .polyalg import monomial, zeros_at


class FunctionSpec:
    time_dependent = False

    def eval(self, t, x: np.ndarray):
        raise NotImplementedError

    def __call__(self, t, x):
        return self.eval(t, np.atleast_1d(np.asarray(x, dtype=float)))


def _exp(z, what: str):
    """``np.exp(z)``; where it overflows, a :class:`ScalingError` rather
    than inf."""
    with np.errstate(over="ignore"):
        out = np.exp(z)
    if np.isinf(out).any():
        raise ScalingError(f"{what} overflows: exponent up to "
                           f"{float(np.max(z)):.6g}")
    return out


@dataclass(frozen=True)
class ZeroFunc(FunctionSpec):
    def eval(self, t, x):
        return zeros_at(np.asarray(x, dtype=float))[()]


@dataclass(frozen=True)
class SpacePoly(FunctionSpec):
    """sum coef * x^exps."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x)
        for c, e in self.terms:
            total = total + c * monomial(x, e)
        return total[()]


@dataclass(frozen=True)
class SpaceFourier(FunctionSpec):
    """sum amp * sin(k . x + phase)."""

    terms: tuple[tuple[float, tuple[float, ...], float], ...]

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x)
        for a, k, p in self.terms:
            total = total + a * np.sin(np.vecdot(x, np.asarray(k)) + p)
        return total[()]


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
class TimePolyFunc(FunctionSpec):
    """sum_l t^l * space_l(x)."""

    parts: tuple[tuple[int, FunctionSpec], ...]
    time_dependent = True

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        total = zeros_at(x, t)
        for l, s in self.parts:
            total = total + np.power(t, l) * s.eval(t, x)
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


def constant(value: float) -> SpacePoly:
    return SpacePoly(((float(value), (0,)),))


def spec_from_dict(data: dict | None, dim: int) -> FunctionSpec:
    """Build a spec from its problem-file JSON form."""
    if data is None:
        return ZeroFunc()
    kind = data.get("kind")
    if kind == "zero":
        return ZeroFunc()
    if kind == "poly":
        return SpacePoly(tuple((float(c), tuple(int(v) for v in e))
                               for c, e in data["terms"]))
    if kind == "fourier":
        return SpaceFourier(tuple((float(a), tuple(float(v) for v in k),
                                   float(p)) for a, k, p in data["terms"]))
    if kind == "polyfourier":
        return SpacePolyFourier(tuple(
            (float(c), tuple(int(v) for v in e), tuple(float(v) for v in k),
             float(p)) for c, e, k, p in data["terms"]))
    if kind == "gaussian_mix":
        return GaussianMix(tuple((float(a), float(b),
                                  tuple(float(v) for v in c))
                                 for a, b, c in data["terms"]))
    if kind == "grid":
        return GridSamples(tuple(float(v) for v in data["points"]),
                           tuple(float(v) for v in data["values"]))
    if kind == "time_poly":
        return TimePolyFunc(tuple((int(l), spec_from_dict(s, dim))
                                  for l, s in data["parts"]))
    if kind == "expt":
        return ExpTime(float(data["rate"]), spec_from_dict(data["space"], dim))
    raise UnsupportedSpecError(f"unknown function kind {kind!r}")
