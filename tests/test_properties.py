"""Property tests: the Gauss-Hermite pass, the lazy diagnostics, the
translation covariance of the batched expansion, parabolic scaling,
detailed balance for a gradient drift and tau mode as the plain series
re-expanded in tau."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakern import recursion
from parakern.funcspec import FourierEntry, GaussianMix, PolyEntry, TimeEntry
from parakern.kernel import (KernelField, delta_property, eval_points,
                             normalization_check)
from parakern.recursion import (ProblemCoefficients, WarpParams, expand,
                                expand_batch, expansion_from_dict,
                                expansion_to_dict)
from parakern.solvers import ProblemSpec, QuadratureConfig, solve_cauchy

from objalg import pair_log_value

SIN_DRIFT = FourierEntry(1, ((0.3, (1.0,), 0.0),))
PC_SIN = ProblemCoefficients(1, 1, {(0, 0, 0): SIN_DRIFT})
# 2D two-component system with cross-component coupling
PC_SYS = ProblemCoefficients(2, 2, {
    (0, 0, 0): PolyEntry(2, ((0.4, (0, 0)), (0.2, (0, 1)))),
    (0, 1, 1): PolyEntry(2, ((0.1, (1, 0)),)),
    (1, 1, 1): PolyEntry(2, ((-0.3, (0, 0)),)),
    (1, 0, 0): PolyEntry(2, ((0.15, (0, 0)),)),
})
GH = 20
FEW = settings(max_examples=8, deadline=None)

times = st.floats(0.01, 0.3)
points = st.floats(-0.5, 0.5)


@FEW
@given(t=times, beta=st.floats(0.2, 1.0), x=points)
def test_normalization_plain_equals_beta_at_scaled_time(t, beta, x):
    plain = KernelField(PC_SIN, WarpParams(), K=4, D=10)
    scaled = KernelField(PC_SIN, WarpParams(mode="beta", beta=beta), K=4, D=10)
    a = normalization_check(plain, t, [x], GH)
    b = normalization_check(scaled, t / beta, [x], GH)
    assert abs(a - b) <= 1e-13


@FEW
@given(t=times, x=points, mode=st.sampled_from(["plain", "beta", "tau"]))
def test_delta_property_of_one_is_normalization(t, x, mode):
    wp = WarpParams() if mode == "plain" else WarpParams(mode=mode, beta=0.5)
    fld = KernelField(PC_SIN, wp, K=4, D=10)
    assert delta_property(fld, lambda y: 1.0, t, [x], GH) == \
        normalization_check(fld, t, [x], GH)


@FEW
@given(t=st.floats(0.02, 0.2), x=points, y=points)
def test_system_solve_equals_each_component_alone(t, x, y):
    phi = GaussianMix(((1.0, 1.0, (0.1, -0.2)),))
    ps = ProblemSpec("cauchy", (-1.0, -1.0), (1.0, 1.0), t, PC_SYS, phi=phi)
    fld = KernelField(PC_SYS, WarpParams(), K=2, D=6)
    quad = QuadratureConfig(gh_order=6)
    sol = solve_cauchy(ps, fld, quad, points=np.array([[x, y]]))
    for j in range(2):
        alone = delta_property(fld, lambda z: phi.eval(0.0, z), t, [x, y],
                               quad.gh_order, j)
        assert sol.values[0, 0, j] == alone


@FEW
@given(K=st.integers(1, 4), y=points,
       mode=st.sampled_from(["plain", "beta", "tau"]))
def test_diagnostics_survive_serialization(K, y, mode):
    wp = WarpParams() if mode == "plain" else WarpParams(mode=mode, beta=0.5)
    exp = expand(PC_SIN, [y], K, wp, 2 * K + 2)
    clone = expansion_from_dict(json.loads(json.dumps(expansion_to_dict(exp))))
    assert clone.diagnostics == exp.diagnostics
    assert clone.truncated == exp.truncated


def test_expand_and_solve_never_compute_diagnostics(monkeypatch):
    def forbidden(exp):
        raise AssertionError("diagnostics computed outside explicit access")

    monkeypatch.setattr(recursion, "_diagnostics", forbidden)
    exp = expand(PC_SIN, [0.0], 4, WarpParams(mode="tau", beta=0.5), 10)
    assert math.isfinite(eval_points(exp, 0.2, [[0.3]]).value[0, 0])
    fld = KernelField(PC_SIN, WarpParams(), K=4, D=10)
    assert normalization_check(fld, 0.1, [0.0], GH) == \
        pytest.approx(1.0, abs=1e-4)
    with pytest.raises(AssertionError, match="explicit access"):
        exp.diagnostics


SEEDED = settings(max_examples=10, deadline=None, derandomize=True)
coords = st.floats(-0.8, 0.8)


@SEEDED
@given(n=st.sampled_from([1, 2]), mode=st.sampled_from(["plain", "beta", "tau"]),
       k=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       phi=st.floats(-math.pi, math.pi), y=st.tuples(coords, coords),
       amps=st.tuples(st.floats(0.05, 0.5), st.floats(-0.5, 0.5)))
def test_expansion_is_translation_covariant(n, mode, k, phi, y, amps):
    # b(x) = a sin(k.x + phi) about y has the dx-expansion of
    # a sin(k.x + phi + k.y) about 0
    k, y = k[:n], np.array(y[:n])
    ky = sum(ki * yi for ki, yi in zip(k, y))

    def pc(phase):
        return ProblemCoefficients(n, 1, {
            (0, 0, m): FourierEntry(n, ((amps[m], k, phase),))
            for m in range(n)})

    wp = WarpParams() if mode == "plain" else WarpParams(mode=mode, beta=0.5)
    about_y = expand_batch(pc(phi), y[None, :], 3, wp, 8)
    about_0 = expand_batch(pc(phi + ky), np.zeros((1, n)), 3, wp, 8)
    assert np.array_equal(about_y.jet_order, about_0.jet_order)
    scale = max(1.0, float(np.max(np.abs(about_0.coeffs))))
    assert np.max(np.abs(about_y.coeffs - about_0.coeffs)) <= 1e-13 * scale


@SEEDED
@given(system=st.booleans(), mode=st.sampled_from(["plain", "beta", "tau"]),
       t=st.floats(0.02, 0.5),
       xs=st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
def test_eval_points_rows_equal_single_point_calls(system, mode, t, xs):
    # each row of one pass over many points is the single-point result,
    # bit for bit: no row depends on the others
    pc = PC_SYS if system else PC_SIN
    wp = WarpParams() if mode == "plain" else WarpParams(mode=mode, beta=0.5)
    exp = expand(pc, [0.1] * pc.n, 3, wp, 8)
    xs = np.array(xs)[:, :pc.n]
    kp = eval_points(exp, t, xs, pc)
    for p in range(len(xs)):
        one = eval_points(exp, t, xs[p:p + 1], pc)
        for name in ("value", "log_value", "gradient", "residual_rel",
                     "correction", "log_gradient"):
            assert getattr(one, name)[:, 0].tobytes() == \
                getattr(kp, name)[:, p].tobytes()


@SEEDED
@given(lam=st.floats(0.5, 1.5), c=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       t=st.floats(0.01, 0.3), x=coords, y=coords)
def test_kernel_has_parabolic_scaling(lam, c, t, x, y):
    # v(t, x) = u(lam^2 t, lam x) turns u_t = u_xx + b(x) u_x into
    # v_t = v_xx + lam b(lam x) v_x, and the kernel's delta scales by
    # 1/lam: log p_b(lam^2 t, lam x; lam y) + log lam = log p_b~(t, x; y)
    def field(c0, c1, c2):
        drift = PolyEntry(1, ((c0, (0,)), (c1, (1,)), (c2, (2,))))
        return KernelField(ProblemCoefficients(1, 1, {(0, 0, 0): drift}),
                           WarpParams(), K=6, D=14)

    scaled = pair_log_value(field(*c), lam * lam * t, 0.0, [lam * x],
                            [lam * y])
    tilde = pair_log_value(field(lam * c[0], lam ** 2 * c[1], lam ** 3 * c[2]),
                           t, 0.0, [x], [y])
    assert abs(scaled + math.log(lam) - tilde) <= 1e-13


# worst |log e^U(x) p(t, x; y) - log e^U(y) p(t, y; x)| over the strategy's
# box, times about 3 to 7: 3.8e-6, 1.3e-8 and 1.5e-10 read at t = 0.25
BALANCE = {4: 1e-5, 6: 5e-8, 8: 1e-9}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(K=st.sampled_from(sorted(BALANCE)), t=st.floats(0.02, 0.25),
       y=st.floats(-1.0, 1.0), d=st.floats(-1.5, 1.5))
def test_gradient_drift_kernel_has_detailed_balance(K, t, y, d):
    # b = U' with U = -0.3 cos x makes the operator symmetric in
    # L^2(e^U dx), so e^U(x) p(t, x; y) = e^U(y) p(t, y; x): the expansion
    # about y read at x against the one about x read at y
    x = y + d

    def log_p(at, about):
        exp = expand(PC_SIN, [about], K, WarpParams(), 2 * K + 2)
        return float(eval_points(exp, t, [[at]]).log_value[0, 0])

    def U(z):
        return -0.3 * math.cos(z)

    assert abs(U(x) + log_p(x, y) - U(y) - log_p(y, x)) <= BALANCE[K]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2]), K=st.integers(1, 3),
       beta=st.sampled_from([0.5, 1.0, 2.0, 4.0]), tau=st.floats(0.02, 0.08),
       k=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       amps=st.tuples(*[st.floats(-0.5, 0.5)] * 3), y=st.tuples(coords, coords),
       d=st.tuples(*[st.floats(-0.3, 0.3)] * 2))
def test_tau_kernel_is_the_plain_one_to_order_K(n, K, beta, tau, k, amps, y,
                                                 d):
    # tau mode is the plain series re-expanded in tau and cut at tau^K, so
    # at small tau its log value is the plain one at t(tau) = -beta ln(1 -
    # tau) up to O(tau^(K + 1)); t(tau) ~ beta tau sets the scale.  Worst
    # |difference| / (beta tau)^(K + 1) over a 400-case sample: 2.1
    k, y = k[:n], np.array(y[:n])
    pc = ProblemCoefficients(n, 1, {
        (0, 0, m): TimeEntry(((0, FourierEntry(n, ((amps[0], k, 0.3 + m),))),
                              (1, FourierEntry(n, ((amps[1], k[::-1],
                                                    -0.2),)))))
        for m in range(n)}, {0: FourierEntry(n, ((amps[2], k, 0.5),))})
    x = [y + np.array(d[:n])]
    t = -beta * math.log1p(-tau)
    dev = {}
    for order in (K, K + 2):
        D = 2 * order + 2
        p = expand(pc, y, order, WarpParams(), D)
        q = expand(pc, y, order, WarpParams(mode="tau", beta=beta), D)
        dev[order] = abs(eval_points(q, tau, x).log_value[0, 0]
                         - eval_points(p, t, x).log_value[0, 0])
        assert dev[order] <= 10.0 * (beta * tau) ** (order + 1)
    assert dev[K + 2] <= dev[K]
