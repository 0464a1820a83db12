"""The array contract of problem data: every function-spec kind and every
coefficient-entry kind evaluates a whole array of points in one call, and
each row of a batched call has the bits of the one-point call."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakern.errors import ScalingError
from parakern.funcspec import (CallableFunc, ExpTime, GaussianMix,
                               GridSamples, SpaceFourier, SpacePoly,
                               SpacePolyFourier, TimePolyFunc, ZeroFunc)
from parakern.polyalg import FourierEntry, PolyEntry, TimeEntry

SEEDED = settings(max_examples=25, deadline=None, derandomize=True)

SPACE_KINDS = ["zero", "poly", "fourier", "polyfourier", "gaussian", "grid"]
SPEC_KINDS = SPACE_KINDS + ["time_poly", "expt", "callable"]
ENTRY_KINDS = ["poly", "fourier", "time"]

coef = st.floats(-2.0, 2.0, allow_nan=False)


def _terms(draw, make):
    return tuple(make() for _ in range(draw(st.integers(1, 3))))


def _exps(draw, n):
    return tuple(draw(st.integers(0, 3)) for _ in range(n))


def _vec(draw, n):
    return tuple(draw(coef) for _ in range(n))


def _callable(t, x):
    return math.sin(t) * float(x[0]) ** 2 - math.exp(-0.5 * t) \
        * math.cos(sum(float(v) for v in x))


def draw_spec(draw, kind, n):
    if kind == "zero":
        return ZeroFunc()
    if kind == "poly":
        return SpacePoly(_terms(draw, lambda: (draw(coef), _exps(draw, n))))
    if kind == "fourier":
        return SpaceFourier(_terms(draw, lambda: (draw(coef), _vec(draw, n),
                                                  draw(coef))))
    if kind == "polyfourier":
        return SpacePolyFourier(_terms(draw, lambda: (
            draw(coef), _exps(draw, n), _vec(draw, n), draw(coef))))
    if kind == "gaussian":
        return GaussianMix(_terms(draw, lambda: (
            draw(coef), draw(st.floats(0.1, 3.0)), _vec(draw, n))))
    if kind == "grid":
        m = draw(st.integers(3, 6))
        return GridSamples(tuple(np.linspace(-3.0, 3.0, m).tolist()),
                           tuple(draw(coef) for _ in range(m)))
    if kind == "time_poly":
        return TimePolyFunc(_terms(draw, lambda: (
            draw(st.integers(0, 3)),
            draw_spec(draw, draw(st.sampled_from(SPACE_KINDS)), n))))
    if kind == "expt":
        return ExpTime(draw(coef), draw_spec(
            draw, draw(st.sampled_from(SPACE_KINDS)), n))
    return CallableFunc(_callable)


def draw_entry(draw, kind, n):
    if kind == "poly":
        return PolyEntry(n, _terms(draw, lambda: (draw(coef),
                                                  _exps(draw, n))))
    if kind == "fourier":
        return FourierEntry(n, _terms(draw, lambda: (draw(coef),
                                                     _vec(draw, n),
                                                     draw(coef))))
    return TimeEntry(_terms(draw, lambda: (
        draw(st.integers(0, 3)),
        draw_entry(draw, draw(st.sampled_from(["poly", "fourier"])), n))))


def draw_points(draw, n):
    """Points of shape (..., n) with one or two leading axes, a scalar
    time and a time of their leading shape.  The values come from a
    seeded generator, so they use every bit of the mantissa."""
    lead = draw(st.sampled_from([(1,), (16,), (4, 8)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(-3.0, 3.0, lead + (n,))
    return x, (float(rng.uniform(-1.0, 2.0)), rng.uniform(-1.0, 2.0, lead))


def assert_rows_match(batched, one_point, x, t):
    """``batched`` has x's leading shape, and every row the bits of the
    one-point call at that row's point and time."""
    batched = np.asarray(batched)
    assert batched.shape == x.shape[:-1]
    for idx in np.ndindex(x.shape[:-1]):
        ti = t if np.ndim(t) == 0 else float(t[idx])
        row = one_point(ti, x[idx])
        assert np.ndim(row) == 0
        assert np.float64(row).tobytes() == batched[idx].tobytes(), idx


@pytest.mark.parametrize("kind", SPEC_KINDS)
@SEEDED
@given(data=st.data(), n=st.sampled_from([1, 2, 3]))
def test_spec_batched_eval_equals_rows_bit_for_bit(kind, data, n):
    spec = draw_spec(data.draw, kind, n)
    x, times = draw_points(data.draw, n)
    for t in times:
        assert_rows_match(spec.eval(t, x), spec.eval, x, t)


@pytest.mark.parametrize("kind", ENTRY_KINDS)
@SEEDED
@given(data=st.data(), n=st.sampled_from([1, 2, 3]))
def test_entry_batched_eval_equals_rows_bit_for_bit(kind, data, n):
    entry = draw_entry(data.draw, kind, n)
    x, times = draw_points(data.draw, n)
    if kind == "time":
        for t in times:
            assert_rows_match(entry.eval(t, x), entry.eval, x, t)
    else:
        assert_rows_match(entry.eval(x), lambda _, xi: entry.eval(xi), x,
                          0.0)


def test_space_only_spec_keeps_the_points_shape_under_an_array_time():
    spec = GaussianMix(((1.0, 2.0, (0.5,)),))
    x = np.linspace(0.0, 1.0, 5)[:, None]
    assert np.shape(spec.eval(np.ones((3, 1)), x)) == (5,)
    timed = ExpTime(-1.0, spec)
    assert np.shape(timed.eval(np.ones((3, 1)), x)) == (3, 5)


def test_callable_func_is_called_once_per_row():
    seen = []

    def fn(t, x):
        seen.append((t, x.shape))
        return t + float(x[0])

    vals = CallableFunc(fn).eval(np.array([[0.0], [1.0]]),
                                 np.array([[1.0], [2.0], [3.0]]))
    assert vals.shape == (2, 3)
    assert len(seen) == 6 and all(shape == (1,) for _, shape in seen)
    assert np.array_equal(vals, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])


@pytest.mark.parametrize("spec", [
    ExpTime(800.0, SpacePoly(((1.0, (0,)),))),
    GaussianMix(((1.0, -100.0, (0.0,)),)),
])
def test_exp_overflow_is_a_scaling_error_not_inf(spec):
    x = np.array([[0.5], [3.0]])
    assert np.all(np.isfinite(spec.eval(0.1, x[:1])))
    with pytest.raises(ScalingError, match="overflows"):
        spec.eval(1.0, x)
