import dataclasses
import glob
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakern import kernel, oracle, solvers
from parakern.errors import ParameterError, ScalingError, StructureError
from parakern.funcspec import FourierEntry, PolyEntry, TimeEntry
from parakern.kernel import (KernelField, Rows, delta_property, eval_points,
                             normalization_check, varadhan_diag)
from parakern.polyalg import index_table
from parakern.problemfile import load_problem_file
from parakern.recursion import (ExpansionCoeffs, ProblemCoefficients,
                                WarpParams, expand, select_beta,
                                warp_schedule)

from objalg import (jet_dt, jet_eval, jet_partial, jets_of, normal_derivative,
                    pair_log_value, shifted_origin)
from test_batch import CONST2, RICH

SIN_DRIFT = FourierEntry(1, ((0.3, (1.0,), 0.0),))
PC_SIN = ProblemCoefficients(1, 1, {(0, 0, 0): SIN_DRIFT})
PC_ZERO = ProblemCoefficients(1, 1, {})
PC_CONST = ProblemCoefficients(1, 1, {(0, 0, 0): PolyEntry(1, ((0.7, (0,)),))})


# ---------------------------------------------------------------------------
# point values
# ---------------------------------------------------------------------------

def test_eval_overflow_raises_scaling_error():
    # far outside the trust radius the degree-12 Taylor tail of sin(x)
    # dominates; the log value reaches ~3.7e6 and must not become inf
    exp = expand(PC_SIN, [0.0], 6, WarpParams(), 12)
    assert 20.0 > KernelField(PC_SIN, WarpParams(), K=6, D=12).trust_radius
    for x in (-20.0, 20.0):
        with pytest.raises(ScalingError, match="trust radius"):
            eval_points(exp, 0.1, [[x]])
    assert math.isfinite(eval_points(exp, 0.1, [[1.0]]).value[0, 0])


def test_far_point_raises_scaling_error_not_nan():
    # at 1e30 the monomials overflow and the log value is NaN, which no
    # ">= 700" test catches; numpy's warnings fail the test (pyproject)
    exp = expand(PC_SIN, [0.0], 6, WarpParams(), 12)
    for call in (lambda: eval_points(exp, 0.1, [[0.2], [1e30]]),
                 lambda: eval_points(exp, 0.1, [[1e30]], PC_SIN)):
        with pytest.raises(ScalingError, match=r"nan at \|x - y\| = 1e\+30"):
            call()


def test_gaussian_normalization_point():
    exp = expand(PC_ZERO, [0.0], 0)
    t = 1.0 / (4.0 * math.pi)
    value = eval_points(exp, t, [[0.0]]).value[0, 0]
    assert value == pytest.approx(1.0, rel=1e-14)


def test_const_drift_matches_oracle():
    exp = expand(PC_CONST, [0.0], 2)
    xs = np.linspace(-1, 1, 7)
    for t in (0.1, 0.5, 1.0):
        for x, value in zip(xs, eval_points(exp, t, xs[:, None]).value[0]):
            ref = oracle.exact_const_drift_kernel(0.7, 0.0, t, x, 0.0)
            assert value == pytest.approx(ref, rel=1e-12)


def test_time_dependent_drift_matches_oracle():
    entry = TimeEntry(((0, PolyEntry(1, ((0.3, (0,)),))),
                       (1, PolyEntry(1, ((0.5, (0,)),)))))
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): entry})
    exp = expand(pc, [0.0], 4)
    value = eval_points(exp, 0.4, [[-0.2]]).value[0, 0]
    ref = oracle.exact_const_drift_kernel(0.3, 0.5, 0.4, -0.2, 0.0)
    assert value == pytest.approx(ref, rel=1e-10)


def test_eval_rejects_nonpositive_time_with_delta_note():
    exp = expand(PC_ZERO, [0.0], 1)
    with pytest.raises(ParameterError, match="delta"):
        eval_points(exp, 0.0, [[0.1]])


def test_positivity_on_probes():
    exp = expand(PC_SIN, [0.0], 6, WarpParams(), 12)
    rng = np.random.default_rng(12)
    for _ in range(50):
        kp = eval_points(exp, rng.uniform(0.01, 0.5), [[rng.uniform(-1, 1)]])
        assert kp.value[0, 0] > 0.0
        assert math.isfinite(kp.log_value[0, 0])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_vanishes_at_center_without_drift():
    exp = expand(PC_ZERO, [0.3], 2)
    g = eval_points(exp, 0.2, [[0.3]]).gradient
    assert np.allclose(g, 0.0, atol=1e-15)


def test_gradient_matches_finite_differences():
    exp = expand(PC_SIN, [0.0], 6, WarpParams(), 12)
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(100):
        t = rng.uniform(0.02, 0.3)
        x = rng.uniform(-0.8, 0.8)
        g = eval_points(exp, t, [[x]]).gradient[0, 0, 0]
        up, down = eval_points(exp, t, [[x + h], [x - h]]).value[0]
        assert g == pytest.approx((up - down) / (2 * h), rel=1e-6)


def test_const_drift_log_gradient_closed_form():
    exp = expand(PC_CONST, [0.0], 2)
    t, x = 0.4, 0.3
    lg = eval_points(exp, t, [[x]]).log_gradient[0, 0, 0]
    assert lg == pytest.approx(-x / (2 * t) - 0.7 / 2, rel=1e-13)


def test_normal_derivative_definition():
    exp = expand(PC_SIN, [0.4], 4)
    t, x = 0.1, 0.0
    grad = eval_points(exp, t, [[x]]).gradient[0, 0]
    assert normal_derivative(exp, t, [x], [-1.0]) == \
        pytest.approx(-grad[0], rel=1e-14)
    # unit-normal precondition
    with pytest.raises(ParameterError):
        normal_derivative(exp, t, [x], [2.0])
    # direction orthogonal to the gradient (2D) gives zero
    pc2 = ProblemCoefficients(2, 1, {})
    exp2 = expand(pc2, [0.0, 0.0], 1)
    g2 = eval_points(exp2, 0.2, [[0.5, 0.0]]).gradient[0, 0]
    nu = np.array([0.0, 1.0])
    assert abs(float(np.dot(nu, g2))) <= 1e-15


def test_gradient_fd_agreement_timedep():
    entry = TimeEntry(((0, PolyEntry(1, ((0.3, (0,)),))),
                       (1, PolyEntry(1, ((0.5, (0,)),)))))
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): entry})
    exp = expand(pc, [0.0], 4)
    h = 1e-5
    t, x = 0.25, -0.4
    g = eval_points(exp, t, [[x]]).gradient[0, 0, 0]
    up, down = eval_points(exp, t, [[x + h], [x - h]]).value[0]
    assert g == pytest.approx((up - down) / (2 * h), rel=1e-6)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_zero_drift():
    exp = expand(PC_ZERO, [0.0], 2)
    rel = eval_points(exp, 0.1, [[0.4]], PC_ZERO).residual_rel
    assert abs(rel[0, 0]) <= 1e-13


def test_residual_const_drift_terminating_series():
    exp = expand(PC_CONST, [0.0], 2)
    for t in (0.05, 0.3, 0.8):
        rel = eval_points(exp, t, [[0.5]], PC_CONST).residual_rel
        assert abs(rel[0, 0]) <= 1e-12


def test_residual_decreases_with_order():
    worst = {}
    for K in (2, 4, 6):
        exp = expand(PC_SIN, [0.0], K, WarpParams(), 12)
        worst[K] = np.max(np.abs(eval_points(
            exp, 0.05, np.linspace(-0.5, 0.5, 11)[:, None],
            PC_SIN).residual_rel[0]))
    assert worst[4] < worst[2] and worst[6] < worst[4]


def test_residual_beta_and_tau_modes():
    wp_b = WarpParams(mode="beta", beta=0.5)
    exp_b = expand(PC_SIN, [0.0], 6, wp_b, 12)
    rel_b = eval_points(exp_b, 0.1, [[0.2]], PC_SIN).residual_rel
    assert abs(rel_b[0, 0]) < 1e-6
    wp_t = WarpParams(mode="tau", beta=1.0)
    exp_t = expand(PC_SIN, [0.0], 6, wp_t, 12)
    rel_t = eval_points(exp_t, 0.1, [[0.2]], PC_SIN).residual_rel
    assert abs(rel_t[0, 0]) < 1e-6


# ---------------------------------------------------------------------------
# normalization / delta property
# ---------------------------------------------------------------------------

def test_normalization_examples():
    fld0 = KernelField(PC_ZERO, WarpParams(), K=1)
    assert normalization_check(fld0, 0.3, [0.0], 40) == \
        pytest.approx(1.0, abs=1e-12)
    flds = KernelField(PC_SIN, WarpParams(), K=6, D=12)
    assert normalization_check(flds, 0.1, [0.0], 40) == \
        pytest.approx(1.0, abs=1e-4)
    fldc = KernelField(PC_CONST, WarpParams(), K=2)
    assert normalization_check(fldc, 0.2, [0.3], 40) == \
        pytest.approx(1.0, abs=1e-10)


def test_delta_property_linear_rate_with_stable_constant():
    # int p(t, x, y) cos(y) dy -> cos(x) at a linear rate; the fitted
    # constant is the Taylor factor |cos x + 0.3 sin^2 x| at the probe
    fld = KernelField(PC_SIN, WarpParams(), K=6, D=12)
    x = 0.0
    errs = {}
    for t in (1e-2, 1e-3):
        val = delta_property(fld, lambda y: math.cos(y[0]), t, [x], 40)
        errs[t] = abs(val - math.cos(x))
    c_fit = errs[1e-2] / 1e-2
    assert errs[1e-3] <= 1.2 * c_fit * 1e-3
    assert errs[1e-3] >= 0.8 * c_fit * 1e-3
    assert c_fit == pytest.approx(1.0, rel=0.1)  # |L cos|(0) = 1


# ---------------------------------------------------------------------------
# varadhan diagnostic
# ---------------------------------------------------------------------------

def test_varadhan_zero_drift_exact():
    exp = expand(PC_ZERO, [0.0], 1)
    out = varadhan_diag(exp, [1e-2, 1e-3], [0.4])
    assert np.allclose(out, 0.16, atol=1e-14)


def test_varadhan_sin_drift_linear_in_t():
    exp = expand(PC_SIN, [0.0], 6, WarpParams(), 12)
    for t, val in zip((1e-2, 1e-3), varadhan_diag(exp, [1e-2, 1e-3], [0.4])):
        assert abs(val - 0.16) <= 5 * t


def test_varadhan_const_drift_closed_form():
    exp = expand(PC_CONST, [0.0], 2)
    b0, dx = 0.7, 0.4
    for t in (1e-2, 1e-3):
        val = varadhan_diag(exp, [t], [dx])[0]
        ref = dx * dx + 4 * t * (b0 * dx / 2 + b0 * b0 * t / 4)
        assert val == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# warp equivalences
# ---------------------------------------------------------------------------

def test_mode_equivalence_plain_beta():
    beta = 0.5
    plain = expand(PC_SIN, [0.0], 8, WarpParams(), 18)
    bexp = expand(PC_SIN, [0.0], 8, WarpParams(mode="beta", beta=beta), 18)
    xs = np.linspace(-0.5, 0.5, 5)[:, None]
    for t in (0.05, 0.1, 0.2):
        v1 = eval_points(plain, t, xs).log_value
        v2 = eval_points(bexp, t / beta, xs).log_value
        assert np.all(np.abs(np.exp(v2 - v1) - 1.0) <= 1e-10)


def test_mode_equivalence_plain_tau():
    wp = select_beta(PC_SIN)
    plain = expand(PC_SIN, [0.0], 8, WarpParams(), 18)
    texp = expand(PC_SIN, [0.0], 8, WarpParams(mode="tau", beta=wp.beta), 18)
    t, xs = 0.1, np.linspace(-0.5, 0.5, 5)[:, None]
    v1 = eval_points(plain, t, xs).log_value
    v2 = eval_points(texp, texp.warp.mode_time(t), xs).log_value
    assert np.all(np.abs(np.exp(v2 - v1) - 1.0) <= 1e-6)


# ---------------------------------------------------------------------------
# the array evaluator against a per-point TimeJet reference
# ---------------------------------------------------------------------------

PROBLEMS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                         "problems", "*.json")))
WARPS = {"plain": WarpParams(), "beta": WarpParams(mode="beta", beta=0.5),
         "tau": WarpParams(mode="tau", beta=0.5)}


def _per_point(exp, pc, time, x):
    """Log-correction, log value, log-gradient and relative residual of
    every component at one point, one ``jet_eval`` per jet."""
    x = np.asarray(x, dtype=float)
    n, m, beta = exp.dim, exp.components, exp.warp.beta
    if exp.warp.mode == "plain":
        t_eff, dteff = time, 1.0
    elif exp.warp.mode == "beta":
        t_eff, dteff = beta * time, beta
    else:
        t_eff, dteff = -beta * math.log1p(-time), beta / (1.0 - time)
    dx = x - np.asarray(exp.center)
    r2 = float(np.dot(dx, dx))
    logw, dtw, lap = np.zeros(m), np.zeros(m), np.zeros(m)
    grad = np.tile(-dx / (2.0 * t_eff), (m, 1))
    for j in range(m):
        for k, jet in enumerate(jets_of(exp)[j]):
            tv = time ** k
            logw[j] += jet_eval(jet, time, x) * tv
            dtw[j] += jet_eval(jet_dt(jet), time, x) * tv
            if k >= 1:
                dtw[j] += k * jet_eval(jet, time, x) * time ** (k - 1)
            for axis in range(n):
                djet = jet_partial(jet, axis)
                grad[j, axis] += jet_eval(djet, time, x) * tv
                lap[j] += jet_eval(jet_partial(djet, axis), time, x) * tv
    logp = -0.5 * n * math.log(4.0 * math.pi * t_eff) - r2 / (4.0 * t_eff) \
        + logw
    rel = np.zeros(m)
    for i in range(m):
        total = lap[i] + sum(-0.5 / t_eff + g * g for g in grad[i])
        for (ei, fj, ax), entry in pc.drift.items():
            if ei == i:
                total += entry.eval(t_eff, x) * math.exp(logw[fj] - logw[i]) \
                    * grad[fj, ax]
        if i in pc.potential:
            total += pc.potential[i].eval(t_eff, x)
        rel[i] = (-0.5 * n / t_eff + r2 / (4.0 * t_eff ** 2)) * dteff \
            + dtw[i] - dteff * total
    return logw, logp, grad, rel


# beyond the problem files: the eval benchmark's shape (2D, two
# components, constant drift, K = 6, D = 14) and a system with Fourier,
# time-polynomial and potential entries
SYSTEMS = {"const_system_2d": (CONST2, 6, 14), "rich_system": (RICH, 3, 6)}


@pytest.mark.parametrize("mode", sorted(WARPS))
@pytest.mark.parametrize("path", PROBLEMS + sorted(SYSTEMS),
                         ids=os.path.basename)
def test_eval_points_matches_per_point_reference(path, mode):
    if path in SYSTEMS:
        pc, K, D = SYSTEMS[path]
    else:
        pf = load_problem_file(path)
        pc, K, D = pf.pc, pf.order_K, pf.degree_D
    center = np.full(pc.n, 0.1)
    exp = expand(pc, center, K, WARPS[mode], D)
    xs = np.random.default_rng(4).uniform(-0.9, 0.9, (4, pc.n))
    for t in (0.05, 0.1, 0.3):
        kp = eval_points(exp, t, xs, pc)
        for p, x in enumerate(xs):
            logw, logp, log_grad, rel = _per_point(exp, pc, t, x)
            value = np.exp(logp)
            for got, ref in ((kp.value[:, p], value),
                             (kp.log_value[:, p], logp),
                             (kp.gradient[:, p], log_grad * value[:, None])):
                assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
            assert np.all(np.abs(kp.residual_rel[:, p] - rel) <= 1e-12)
            for j in range(pc.components):
                assert abs(kp.correction[j, p] - logw[j]) <= \
                    1e-13 * abs(logw[j])
                assert np.all(np.abs(kp.log_gradient[j, p] - log_grad[j])
                              <= 1e-13 * np.abs(log_grad[j]))


@pytest.mark.parametrize("k, t", [(3, 0.02), (4, 0.3), (5, 0.08)])
def test_eval_points_over_times_takes_python_float_powers(k, t):
    # a correction c t^k alone, large enough that its last bit shows in
    # the log value; numpy's power rounds t ** k otherwise at these t on
    # some builds
    coeffs = np.zeros((1, 6, 1, 3))
    coeffs[0, k, 0, 0] = c = 100.0 / t ** k
    coeffs.flags.writeable = False
    exp = ExpansionCoeffs((0.0,), WarpParams(), 5, 2, 1, coeffs,
                          np.zeros((1, 6), dtype=int))
    kp = eval_points(exp, [0.5 * t, t], [[0.0]])
    gauss = -0.5 * math.log(4.0 * math.pi * t) - 0.0 / (4.0 * t)
    assert kp.log_value[0, 1, 0] == gauss + c * t ** k


def test_eval_points_in_chunks_equals_one_pass(monkeypatch):
    pf = load_problem_file(PROBLEMS[[os.path.basename(p) for p in PROBLEMS]
                                    .index("coupled_system.json")])
    exp = expand(pf.pc, [0.1, -0.2], 4, WARPS["tau"], 10)
    xs = np.random.default_rng(6).uniform(-0.9, 0.9, (7, 2))
    whole = eval_points(exp, 0.2, xs, pf.pc)
    monkeypatch.setattr(kernel, "_CHUNK_FLOATS", 1)     # one point each
    split = eval_points(exp, 0.2, xs, pf.pc)
    for name in ("value", "log_value", "gradient", "residual_rel"):
        assert getattr(split, name).tobytes() == \
            getattr(whole, name).tobytes()
    assert eval_points(exp, 0.2, np.empty((0, 2))).value.shape == (2, 0)


def test_overflow_raises_at_the_first_failing_row_and_component():
    # only component 1 has drift, so only it overflows far out
    pc = ProblemCoefficients(2, 2, {
        (1, 1, 0): FourierEntry(2, ((0.3, (1.0, 0.5), 0.0),))})
    exp = expand(pc, [0.0, 0.0], 6, WarpParams(), 12)
    xs = np.array([[0.2, 0.1], [0.5, -0.4], [-25.0, 3.0], [25.0, 0.0]])
    t = 0.1
    first = None
    for p, x in enumerate(xs):
        logp = _per_point(exp, pc, t, x)[1]
        if first is None and (logp >= 700.0).any():
            first = (p, int(np.argmax(logp >= 700.0)), logp)
    p, j, logp = first
    assert (p, j) == (2, 1) and logp[0] < 700.0
    expected = (f"log kernel value {logp[j]:.3g} at |x - y| = "
                f"{float(np.linalg.norm(xs[p])):.3g} overflows")
    for call in (lambda: eval_points(exp, t, xs, pc),
                 lambda: eval_points(exp, t, xs),
                 lambda: eval_points(exp, t, xs[p:p + 1], pc),
                 lambda: eval_points(exp, t, xs[p:])):
        with pytest.raises(ScalingError, match="trust radius") as err:
            call()
        assert str(err.value).startswith(expected)


def test_residual_raises_when_a_coupling_ratio_overflows():
    # p_1 / p_0 = exp(c_1 - c_0) ~ exp(1000) at x - y = (-20, 0) for t =
    # 0.01, while both log values stay far below 700
    pc = ProblemCoefficients(2, 2, {
        (0, 1, 0): PolyEntry(2, ((0.1, (0, 0)),)),
        (1, 1, 0): PolyEntry(2, ((100.0, (0, 0)),))})
    exp = expand(pc, [0.0, 0.0], 2, WarpParams(), 6)
    far, near = [-20.0, 0.0], [-0.2, 0.1]
    assert (eval_points(exp, 0.01, [far]).log_value < 0.0).all()
    with pytest.raises(ScalingError, match="ratio p_1/p_0 overflows"):
        eval_points(exp, 0.01, [far], pc)
    assert np.isfinite(eval_points(exp, 0.01, [near], pc).residual_rel).all()


def test_tau_max_is_enforced_by_the_point_evaluator():
    wp = WarpParams(mode="tau", beta=0.5, tau_max=0.6)
    exp = expand(PC_SIN, [0.0], 4, wp, 10)
    assert math.isfinite(eval_points(exp, 0.6, [[0.2]]).value[0, 0])
    for call in (lambda: eval_points(exp, 0.61, [[0.2]]),
                 lambda: eval_points(exp, 0.61, [[0.2]], PC_SIN),
                 lambda: eval_points(exp, 0.61, [[0.2], [0.3]])):
        with pytest.raises(ParameterError, match="tau_max = 0.6"):
            call()
    # tau_max = 0 means unset; tau >= 1 is still the mode's own error
    unset = expand(PC_SIN, [0.0], 4, WarpParams(mode="tau", beta=0.5), 10)
    assert math.isfinite(eval_points(unset, 0.9, [[0.2]]).value[0, 0])
    with pytest.raises(ParameterError, match=r"\(0, 1\)"):
        eval_points(exp, 1.0, [[0.2]])


def test_tau_max_is_enforced_by_the_kernel_field():
    # the field's sums read rows at t - s mapped to tau, and the delta
    # property a tau directly; neither checked tau_max
    wp = WarpParams(mode="tau", beta=0.5, tau_max=0.6)
    fld = KernelField(PC_SIN, wp, K=4, D=10)
    assert math.isfinite(normalization_check(fld, 0.6, [0.0], 20))
    t_over = 0.5 * -math.log1p(-0.61)       # tau = 0.61
    for call in (lambda: normalization_check(fld, 0.61, [0.0], 20),
                 lambda: fld.gauss_hermite(20, [(t_over, 0.0, [0.0], None)])):
        with pytest.raises(ParameterError, match="tau_max = 0.6"):
            call()
    # a zero-drift field reads no expansion and so no tau
    heat = KernelField(PC_ZERO, wp, K=4, D=10)
    assert math.isfinite(heat.gauss_hermite(
        20, [(t_over, 0.0, [0.0], None)])[0][0][0])


def _fields(exp, t, x):
    kp = eval_points(exp, t, [x])
    return kp.correction, kp.log_gradient


# every public function of the kernel module that reads an expansion, as
# a read of (expansion, time, point)
READERS = {
    "eval_points": _fields,
    "varadhan_diag": lambda exp, t, x: varadhan_diag(exp, [t], x),
}


def test_every_reader_of_an_expansion_checks_time_and_overflow():
    # the side readers log_correction and kernel_log_gradient returned
    # numbers past tau_max, at tau >= 1, t <= 0 or NaN, and NaN at 1e300
    found = {name for name, f in vars(kernel).items()
             if inspect.isfunction(f) and f.__module__ == kernel.__name__
             and not name.startswith("_")
             and list(inspect.signature(f).parameters.values())[0].annotation
             == "ExpansionCoeffs"}
    assert found == set(READERS)
    plain = expand(PC_SIN, [0.0], 6, WarpParams(), 12)
    tau = expand(PC_SIN, [0.0], 6, warp_schedule(0.25, 0.3).params, 12)
    assert tau.warp.tau_max == pytest.approx(1.0 - 1.0 / math.e)
    for name, read in READERS.items():
        for exp, t in ((tau, 0.9), (tau, 1.0), (tau, 1.5), (tau, -0.2),
                       (tau, math.nan), (plain, 0.0), (plain, -0.2),
                       (plain, math.nan), (plain, math.inf)):
            with pytest.raises(ParameterError):
                read(exp, t, [0.3])
        for exp in (plain,) if name == "varadhan_diag" else (plain, tau):
            with pytest.raises(ScalingError, match="overflows"):
                read(exp, 0.1, [1e300])
    correction, log_gradient = _fields(tau, 0.6, [0.3])
    assert np.isfinite(correction).all() and np.isfinite(log_gradient).all()


COUPLED_FILE = os.path.join(os.path.dirname(__file__), "..", "problems",
                            "coupled_system.json")
COMPONENT_READERS = {
    "varadhan_diag": lambda exp, fld, j: varadhan_diag(
        exp, [0.1], [0.1, 0.2], j=j)[0],
    "normalization_check": lambda exp, fld, j: normalization_check(
        fld, 0.1, [0.0, 0.0], 10, j),
    "delta_property": lambda exp, fld, j: delta_property(
        fld, lambda y: 1.0, 0.1, [0.0, 0.0], 10, j),
}


@pytest.mark.parametrize("reader", sorted(COMPONENT_READERS))
def test_a_component_index_out_of_range_is_a_structure_error(reader):
    # coupled_system.json has two components: j = -1 read component 1 and
    # labelled it -1, j = 2 raised a bare IndexError
    pc = load_problem_file(COUPLED_FILE).pc
    exp = expand(pc, [0.0, 0.0], 2, WarpParams(), 6)
    fld = KernelField(pc, WarpParams(), 2, 6)
    read = COMPONENT_READERS[reader]
    for j in (-1, 2):
        with pytest.raises(StructureError, match=f"component {j} out of "
                           "range: the kernel has 2 component"):
            read(exp, fld, j)
    assert math.isfinite(read(exp, fld, 1))


def test_autonomous_entries_are_read_once_per_point(monkeypatch):
    # the residual evaluates an autonomous drift or potential entry on the
    # P points and repeats it over the T times, a time-dependent one on
    # all T * P rows; the repeat has the bits of the per-row values
    seen = []
    real = TimeEntry.eval
    monkeypatch.setattr(TimeEntry, "eval", lambda self, t, x: seen.append(
        (self.max_order, len(x))) or real(self, t, x))
    exp = expand(RICH, [0.1, -0.2], 3, WARPS["tau"], 6)
    times = np.array([0.05, 0.1, 0.3])
    xs = np.random.default_rng(8).uniform(-0.6, 0.6, (5, 2))
    eval_points(exp, times, xs, RICH)
    entries = [*RICH.drift.values(), *RICH.potential.values()]
    assert sorted(seen) == sorted((e.max_order, 5 if e.max_order == 0
                                   else 15) for e in entries)
    t_eff = np.repeat([exp.warp.physical_time(t)[0] for t in times], 5)
    rows = np.tile(xs, (3, 1))
    for entry in entries:
        if entry.max_order == 0:
            assert np.tile(real(entry, 0.0, xs), 3).tobytes() == \
                real(entry, t_eff, rows).tobytes()


def test_eval_points_rejects_misshapen_points():
    exp = expand(PC_ZERO, [0.0], 1)
    for xs in ([0.1, 0.2], [[0.1, 0.2]]):
        with pytest.raises(StructureError):
            eval_points(exp, 0.1, xs)


@pytest.mark.parametrize("mode", ["plain", "beta", "tau"])
def test_pair_log_terms_rows_equal_one_point_calls(monkeypatch, mode):
    # rows of several centres through KernelField.integrate, in one pass
    # and in one-row chunks, equal one-row calls bit for bit,
    # time-dependent origin included
    entry = TimeEntry(((0, PolyEntry(1, ((0.3, (0,)), (0.2, (1,))))),
                       (1, PolyEntry(1, ((0.5, (0,)),)))))
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): entry})
    fld = KernelField(pc, WARPS[mode], K=4)
    s, ys = 0.1, np.array([[-0.2], [0.1], [0.4]])
    centre = np.array([0, 2, 1, 0, 2])
    t = s + np.array([0.05, 0.2, 0.1, 0.3, 0.01])
    sigma = t - s
    xs = np.array([[0.1], [0.3], [-0.4], [0.0], [0.45]])

    def rows(t, xs, centre):
        # one segment per row: its sums are p and grad_x p at that row
        return [Rows(s, t[:, None], xs[:, None, :], centre[:, None], 1.0,
                     gradient=True)]

    [whole] = fld.integrate(ys, rows(t, xs, centre))
    monkeypatch.setattr(kernel, "_CHUNK_FLOATS", 1)     # one row each
    [split] = fld.integrate(ys, rows(t, xs, centre))
    for a, b in zip(whole, split):
        assert a.tobytes() == b.tobytes()
    value, grad = whole[0][0], whole[1][0, :, 0]
    for r, c in enumerate(centre):
        assert pair_log_value(fld, t[r], s, xs[r], ys[c]) == \
            math.log(value[r])
        [one] = fld.integrate(ys[c:c + 1], rows(t[r:r + 1], xs[r:r + 1],
                                                np.array([0])))
        assert one[0].tobytes() == whole[0][:, r:r + 1].tobytes()
        assert np.array_equal(one[1], whole[1][:, r:r + 1])
        # and the single-center expansion read by the point evaluator
        exp = expand(shifted_origin(pc, s), ys[c], 4, WARPS[mode], 10)
        time, dx = fld.warp.mode_time(sigma[r]), xs[r] - ys[c]
        log_g = -0.5 * math.log(4 * math.pi * sigma[r]) \
            - dx[0] ** 2 / (4 * sigma[r])
        kp = eval_points(exp, time, xs[r:r + 1])
        assert math.log(value[r]) == pytest.approx(
            log_g + kp.correction[0, 0], rel=1e-13)
        assert grad[r] / value[r] == pytest.approx(
            kp.log_gradient[0, 0], rel=1e-13)
    with pytest.raises(ParameterError, match="need t > s"):
        fld.integrate(ys, [Rows(0.0, np.array([[0.1], [0.0]]),
                                np.zeros((2, 1, 1)), np.array([[0], [1]]),
                                1.0)])


def test_pair_log_terms_of_a_trivial_field_is_the_gaussian(monkeypatch):
    # no expansion is built: the kernel is the Gaussian
    monkeypatch.setattr(kernel, "expand_batch", None)
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    sigma, dx = np.array([0.1, 0.4]), np.array([[0.3], [-0.2]])
    [(value, grad)] = fld.integrate([[0.0]], [Rows(
        0.0, sigma[:, None], dx[:, None, :], 0, 1.0, gradient=True)])
    assert np.allclose(np.log(value[0]), -0.5 * np.log(4 * math.pi * sigma)
                       - dx[:, 0] ** 2 / (4 * sigma), rtol=1e-15, atol=0)
    assert np.array_equal(grad[0],
                          value[0][:, None] * (-dx / (2 * sigma[:, None])))


def test_negative_degree_cap_is_rejected():
    # the trust radius takes a (D + 1)-st root; D = -1 divided by zero
    with pytest.raises(ParameterError, match="degree_D must be >= 0"):
        KernelField(PC_SIN, WarpParams(), K=2, D=-1)
    assert KernelField(PC_ZERO, WarpParams(), K=0, D=0).D == 0


def test_negative_order_is_rejected():
    # a zero-drift field never builds an expansion, so K = -1 passed
    for pc in (PC_ZERO, PC_SIN):
        with pytest.raises(ParameterError, match="K must be >= 0"):
            KernelField(pc, WarpParams(), K=-1, D=4)


def test_eval_points_over_times_reports_the_first_failure_in_time_order():
    # only component 1 has drift; at t = 0.02 the last point overflows,
    # at t = 0.05 the middle one too: the (time, point) rows run
    # time-major, so the first failing row is (0.02, last point)
    pc = ProblemCoefficients(2, 2, {
        (1, 1, 0): FourierEntry(2, ((0.3, (1.0, 0.5), 0.0),))})
    exp = expand(pc, [0.0, 0.0], 6, WarpParams(), 12)
    xs = np.array([[0.2, 0.1], [-12.0, 0.0], [14.0, 2.0]])
    with pytest.raises(ScalingError) as first:
        eval_points(exp, 0.02, xs)
    eval_points(exp, 0.02, xs[:2])
    with pytest.raises(ScalingError) as both:
        eval_points(exp, [0.02, 0.05], xs, pc)
    assert str(both.value) == str(first.value)
    assert "|x - y| = 14.1" in str(first.value)


def test_eval_points_over_times_checks_each_time_in_order():
    wp = WarpParams(mode="tau", beta=0.5, tau_max=0.6)
    exp = expand(PC_SIN, [0.0], 4, wp, 10)
    xs = [[0.2], [0.3]]
    with pytest.raises(ParameterError, match="tau = 0.61 exceeds"):
        eval_points(exp, [0.5, 0.61, 0.7], xs)
    with pytest.raises(ParameterError, match="delta"):
        eval_points(exp, np.array([0.1, 0.0]), xs)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            eval_points(exp, [0.1, bad], xs)
    with pytest.raises(StructureError, match="times of shape"):
        eval_points(exp, [[0.1, 0.2]], xs)
    kp = eval_points(exp, np.array([0.1, 0.2]), xs, PC_SIN)
    assert kp.value.shape == kp.residual_rel.shape == (1, 2, 2)
    assert kp.gradient.shape == (1, 2, 2, 1)
    empty = eval_points(exp, [], xs)
    assert empty.value.shape == (1, 0, 2)


# ---------------------------------------------------------------------------
# the contraction over the live table rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N, last, rows", [
    (5, 2, 5), (13, 0, 8), (13, 7, 8), (13, 8, 13), (120, 3, 8),
    (120, 6, 8), (120, 8, 16), (120, 119, 120), (128, 120, 128),
    (153, 71, 72), (153, 72, 153), (300, 100, 144), (300, 150, 300)])
def test_live_rows_keep_numpy_pairwise_blocks(N, last, rows):
    coeffs = np.zeros((2, 3, N))
    coeffs[1, 2, last] = -1.0
    coeffs[0, 0, 0] = 2.0
    assert kernel._live_rows(coeffs) == rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(),
       nd=st.sampled_from([(1, 4), (1, 12), (1, 22), (2, 6), (2, 14),
                           (2, 16), (3, 6)]),
       seed=st.integers(0, 2 ** 32 - 1), per_row=st.booleans())
def test_trimmed_contraction_equals_full_rows(data, nd, seed, per_row):
    # rows past the last nonzero one are dropped, in blocks that keep
    # numpy's pairwise summation; the result is the full-row one bit for
    # bit, signed zeros included.  The last live row is drawn over the
    # whole table, often among rows 4-7, where a plain cut regroups the sum
    n, D = nd
    N = len(index_table(n, D)[0])
    last = data.draw(st.one_of(st.integers(3, min(6, N - 1)),
                               st.integers(0, N - 1)), label="last")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((2, 3, 2, 4, N))
    coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
    coeffs[rng.random(coeffs.shape) < 0.2] = -0.0
    coeffs[..., last + 1:] = np.where(rng.random(coeffs[..., last + 1:].shape)
                                      < 0.5, 0.0, -0.0)
    coeffs[1, 2, 1, 3, last] = 0.7
    dx = rng.uniform(-1.0, 1.0, (4, n))
    dx[0] = data.draw(st.sampled_from([0.0, -0.0, 0.25]), label="dx[0]")
    time = rng.uniform(0.05, 0.5, 4) if per_row else 0.3
    t_eff = 2.0 * time
    out = kernel._log_terms(coeffs, dx, D, time, t_eff, second=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_live_rows", lambda c: c.shape[-1])
        full = kernel._log_terms(coeffs, dx, D, time, t_eff, second=True)
    for got, ref in zip(out, full):
        assert got.tobytes() == ref.tobytes()


def test_constant_drift_system_reads_one_table_row():
    # the benchmark's shape: a 2D two-component constant-drift system in
    # tau mode has one nonzero row of 120, so the evaluator reads 8
    pc = ProblemCoefficients(2, 2, {
        (c, c, k): PolyEntry(2, ((0.3 - 0.2 * c + 0.1 * k, (0, 0)),))
        for c in range(2) for k in range(2)})
    exp = expand(pc, [0.1, -0.2], 6, WarpParams(mode="tau", beta=0.5), 14)
    assert exp.coeffs.shape[-1] == 120
    assert kernel._live_rows(exp.coeffs) == 8


# ---------------------------------------------------------------------------
# Gauss-Hermite passes fail loudly
# ---------------------------------------------------------------------------

SIN_FILE = os.path.join(os.path.dirname(__file__), "..", "problems",
                        "sin_drift.json")


def test_gh_pass_raises_where_the_correction_overflows():
    # K = 10, D = 22 over T = 0.25: from x = 0.5, the node at |x - y| =
    # 8.1 carries a log correction past 700, which would be an inf in the
    # integral
    pf = load_problem_file(SIN_FILE)
    fld = KernelField(pf.pc, WarpParams(), K=10, D=22)
    expected = r"K = 10, D = 22 expansion does not hold"
    with pytest.raises(ScalingError, match=expected) as err:
        normalization_check(fld, pf.ps.horizon, [0.5], 40)
    assert "t = 0.25, |x - y| = 8.1" in str(err.value)
    with pytest.raises(ScalingError, match=expected):
        solvers.solve_cauchy(pf.ps, fld, pf.quad, points=np.array([[0.5]]))
    # the file's own K and D stay finite at the same horizon
    fld = KernelField(pf.pc, WarpParams(), pf.order_K, pf.degree_D)
    assert math.isfinite(normalization_check(fld, pf.ps.horizon, [0.0], 40))


def _normalization_at_k10():
    pf = load_problem_file(SIN_FILE)
    fld = KernelField(pf.pc, WarpParams(), K=10, D=22)
    value = normalization_check(fld, 0.25, [0.0], 40)
    # validate's normalization tolerance
    assert abs(value - 1.0) <= 1e-4, value


def _cauchy_at_half():
    pf = load_problem_file(SIN_FILE)
    ps = dataclasses.replace(pf.ps, horizon=0.5)
    sol = solvers.solve_cauchy(ps, KernelField(pf.pc, WarpParams(), K=8, D=18),
                               pf.quad, points=np.array([[-0.5], [0.0], [0.5]]))
    # the maximum principle of a drift-only equation: phi = exp(-x^2)
    # lies in [0, 1], so u does
    assert np.all((sol.values >= 0.0) & (sol.values <= 1.0)), sol.values


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2(a): a log correction below 700 but far above the "
    "node's Gaussian passes the overflow check, so these return 1.2e7 "
    "and 6.6e55 rather than raising ScalingError"))
@pytest.mark.parametrize("case", [_normalization_at_k10, _cauchy_at_half],
                         ids=["normalization_K10_D22", "cauchy_T05_K8_D18"])
def test_a_grown_correction_raises_or_gives_a_sane_value(case):
    # past the trust radius' reach, either fail loudly or be right
    try:
        case()
    except ScalingError:
        pass
