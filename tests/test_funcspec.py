"""The array contract of problem functions: every kind, drift and
potential entries included, evaluates a whole array of points in one
call, and each row of a batched call has the bits of the one-point
call."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakern.errors import ScalingError, UnsupportedSpecError
from parakern.funcspec import (CallableFunc, ExpTime, FourierEntry,
                               GaussianMix, GridSamples, PolyEntry,
                               SpacePolyFourier, TimeEntry, ZeroFunc)
from parakern.problemfile import load_problem_dict

SEEDED = settings(max_examples=25, deadline=None, derandomize=True)

SPACE_KINDS = ["zero", "poly", "fourier", "polyfourier", "gaussian", "grid"]
# a drift or potential entry is a poly, a fourier, or a drift_time_poly:
# a time_poly whose parts are poly or fourier
SPEC_KINDS = SPACE_KINDS + ["time_poly", "drift_time_poly", "expt",
                            "callable"]

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
        return PolyEntry(n, _terms(draw, lambda: (draw(coef),
                                                  _exps(draw, n))))
    if kind == "fourier":
        return FourierEntry(n, _terms(draw, lambda: (draw(coef),
                                                     _vec(draw, n),
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
    if kind in ("time_poly", "drift_time_poly"):
        parts = SPACE_KINDS if kind == "time_poly" else ["poly", "fourier"]
        return TimeEntry(_terms(draw, lambda: (
            draw(st.integers(0, 3)),
            draw_spec(draw, draw(st.sampled_from(parts)), n))))
    if kind == "expt":
        return ExpTime(draw(coef), draw_spec(
            draw, draw(st.sampled_from(SPACE_KINDS)), n))
    return CallableFunc(_callable)


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


@pytest.mark.parametrize("kind", ["poly", "fourier"])
@SEEDED
@given(data=st.data(), n=st.sampled_from([1, 2, 3]),
       order=st.integers(0, 2))
def test_entry_batched_eval_equals_rows_bit_for_bit(kind, data, n, order):
    """A drift or potential entry and its derivatives take no time: a
    batched call has the same bits at any time, row by row."""
    entry = draw_spec(data.draw, kind, n)
    alpha = tuple(data.draw(st.integers(0, order)) for _ in range(n))
    x, times = draw_points(data.draw, n)
    for f in (entry, entry.derivative(alpha)):
        batched = f.eval(0.0, x)
        assert_rows_match(batched, f.eval, x, 0.0)
        for t in times:
            assert np.asarray(f.eval(t, x)).tobytes() == batched.tobytes()


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
    ExpTime(800.0, PolyEntry(1, ((1.0, (0,)),))),
    GaussianMix(((1.0, -100.0, (0.0,)),)),
])
def test_exp_overflow_is_a_scaling_error_not_inf(spec):
    x = np.array([[0.5], [3.0]])
    assert np.all(np.isfinite(spec.eval(0.1, x[:1])))
    with pytest.raises(ScalingError, match="overflows"):
        spec.eval(1.0, x)


POLY = {"kind": "poly", "terms": [[0.5, [1]], [0.2, [0]]]}
FOURIER = {"kind": "fourier", "terms": [[0.3, [1.0], 0.1]]}


def _problem(drift, potential):
    return {
        "dimension": 1, "components": 1,
        "drift": [{"i": 0, "j": 0, "k": 0, **drift}],
        "potential": [{"i": 0, **potential}],
        "domain": {"lower": [-1.0], "upper": [1.0]},
        "horizon": 0.1,
        "problem": {"kind": "cauchy", "phi": POLY,
                    "f": {"kind": "time_poly",
                          "parts": [[0, POLY], [1, FOURIER]]}},
        "expansion": {"order_K": 2},
        "quadrature": {"gh_order": 20, "gl_order": 16, "steps": 16},
    }


def test_problem_file_reads_coefficients_and_data_of_a_kind_alike():
    # the same JSON gives the same object as a drift part, as a potential
    # and as data; a time_poly lists its parts under "terms" as a
    # coefficient and under "parts" as data
    pf = load_problem_dict(_problem(
        {"kind": "time_poly", "terms": [[0, POLY], [1, FOURIER]]}, FOURIER))
    drift, potential = pf.pc.drift[0, 0, 0], pf.pc.potential[0]
    assert type(drift) is type(pf.ps.source) is TimeEntry
    assert drift == pf.ps.source
    assert type(pf.ps.phi) is type(drift.parts[0][1]) is PolyEntry
    assert pf.ps.phi == drift.parts[0][1]
    assert potential.parts == ((0, drift.parts[1][1]),)
    assert type(potential.parts[0][1]) is FourierEntry


@pytest.mark.parametrize("part", [
    {"kind": "time_poly", "terms": [[0, POLY]]},
    {"kind": "gaussian_mix", "terms": [[1.0, 1.0, [0.0]]]},
    {"kind": "zero"},
], ids=["nested_time_poly", "gaussian_mix", "zero"])
def test_coefficient_time_poly_takes_poly_and_fourier_parts_only(part):
    for drift, potential in (
            ({"kind": "time_poly", "terms": [[1, part]]}, FOURIER),
            (POLY, {"kind": "time_poly", "terms": [[0, POLY], [1, part]]})):
        with pytest.raises(UnsupportedSpecError, match="poly, fourier"):
            load_problem_dict(_problem(drift, potential))
