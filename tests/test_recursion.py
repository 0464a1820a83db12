import glob
import json
import math
import os

import numpy as np
import pytest

from parakern import oracle, recursion
from parakern.errors import ParameterError, SequencingError
from parakern.funcspec import FourierEntry, PolyEntry, TimeEntry
from parakern.problemfile import load_problem_file
from parakern.recursion import (ProblemCoefficients,
                                WarpParams, beta_from_bound,
                                beta_upper_bound, expand, expand_batch,
                                expansion_from_dict,
                                expansion_to_dict, select_beta,
                                warp_schedule)

from objalg import (compute_R, compute_c0, jet_eval, jets_of, poly_add,
                    poly_euler)

SIN_DRIFT = FourierEntry(1, ((0.3, (1.0,), 0.0),))
PROBLEMS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                         "problems", "*.json")))


def scalar_pc(entry, potential=None, n=1):
    drift = {(0, 0, 0): entry} if entry is not None else {}
    pot = {0: potential} if potential is not None else {}
    return ProblemCoefficients(n, 1, drift, pot)


# ---------------------------------------------------------------------------
# compute_c0
# ---------------------------------------------------------------------------

def test_c0_zero_drift():
    pc = scalar_pc(None)
    c0 = compute_c0(pc, [0.0], 0, 6)
    assert c0.max_abs() == 0.0


def test_c0_constant_drift():
    pc = scalar_pc(PolyEntry(1, ((0.7, (0,)),)))
    c0 = compute_c0(pc, [0.2], 0, 6)
    assert c0.terms[0].coeff((1,)) == pytest.approx(-0.35, abs=1e-15)
    assert c0.terms[0].coeff((0,)) == 0.0


def test_c0_linear_drift_vs_quadrature():
    # b(x) = x about y: c0(x) = -(dx/2) int_0^1 (y + s dx) ds
    pc = scalar_pc(PolyEntry(1, ((1.0, (1,)),)))
    y = 0.3
    c0 = compute_c0(pc, [y], 0, 6)
    for dx in (-0.5, 0.2, 0.7):
        ref = -0.5 * dx * oracle.quad_ray(lambda s: y + s * dx, 1.0)
        assert jet_eval(c0, 0.0, [y + dx]) == pytest.approx(ref, abs=1e-13)


# ---------------------------------------------------------------------------
# ray weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 7.0, 4.0])
def test_ray_weights_match_quadrature(a):
    for go in range(9):
        weight = 1.0 / (go + a)
        ref = oracle.quad_ray(lambda s, go=go: s ** go, a)
        assert abs(weight - ref) <= 1e-13


# ---------------------------------------------------------------------------
# compute_R
# ---------------------------------------------------------------------------

def test_R_zero_for_zero_coefficients():
    pc = scalar_pc(None)
    exp = expand(pc, [0.0], 3)
    for k in range(1, 4):
        R = compute_R(k, jets_of(exp), pc, 0, exp.warp)
        assert R.max_abs() == 0.0


def test_R_constant_drift_first_order():
    pc = scalar_pc(PolyEntry(1, ((0.7, (0,)),)))
    exp = expand(pc, [0.0], 1)
    R0 = compute_R(1, jets_of(exp), pc, 0, exp.warp)
    assert R0.terms[0].coeff((0,)) == pytest.approx(-0.7 ** 2 / 4, abs=1e-15)
    assert jets_of(exp)[0][1].terms[0].coeff((0,)) == \
        pytest.approx(-0.7 ** 2 / 4, abs=1e-15)


def test_R_potential_enters_first_order():
    pc = scalar_pc(None, potential=PolyEntry(1, ((0.4, (0,)),)))
    exp = expand(pc, [0.0], 2)
    R0 = compute_R(1, jets_of(exp), pc, 0, exp.warp)
    assert R0.terms[0].coeff((0,)) == pytest.approx(0.4, abs=1e-16)
    assert jets_of(exp)[0][1].terms[0].coeff((0,)) == \
        pytest.approx(0.4, abs=1e-16)
    assert jets_of(exp)[0][2].max_abs() == 0.0


def test_time_dependent_potential_closed_form():
    # V(t) = 0.4 + 0.2 t: exponent integrates to 0.4 t + 0.1 t^2
    entry = TimeEntry(((0, PolyEntry(1, ((0.4, (0,)),))),
                       (1, PolyEntry(1, ((0.2, (0,)),)))))
    exp = expand(scalar_pc(None, potential=entry), [0.0], 3)
    assert jets_of(exp)[0][1].terms[0].coeff((0,)) == pytest.approx(0.4)
    assert jets_of(exp)[0][2].terms[0].coeff((0,)) == pytest.approx(0.1)
    assert jets_of(exp)[0][3].max_abs() <= 1e-15


def test_potential_in_warped_modes_matches_plain():
    pc = scalar_pc(SIN_DRIFT, potential=PolyEntry(1, ((0.4, (0,)),)))
    plain = expand(pc, [0.0], 6, WarpParams(), 12)
    beta = 0.5
    bexp = expand(pc, [0.0], 6, WarpParams(mode="beta", beta=beta), 12)
    texp = expand(pc, [0.0], 6, WarpParams(mode="tau", beta=1.0), 12)
    t = 0.1
    for x in (-0.3, 0.4):
        w_plain = sum(jet_eval(jets_of(plain)[0][k], t, [x]) * t ** k
                      for k in range(7))
        w_beta = sum(jet_eval(jets_of(bexp)[0][k], t / beta, [x])
                     * (t / beta) ** k for k in range(7))
        tau = texp.warp.mode_time(t)
        w_tau = sum(jet_eval(jets_of(texp)[0][k], tau, [x]) * tau ** k
                    for k in range(7))
        assert w_beta == pytest.approx(w_plain, abs=1e-12)
        assert w_tau == pytest.approx(w_plain, abs=1e-8)


def test_R_requires_prior_orders():
    pc = scalar_pc(SIN_DRIFT)
    exp = expand(pc, [0.0], 1)
    with pytest.raises(SequencingError):
        compute_R(3, jets_of(exp), pc, 0, exp.warp)


def test_time_order_is_stored_from_the_normalised_entries():
    # max_time_order and time_dependent are plain attributes, set once
    # every drift and potential entry is a TimeEntry
    quadratic = TimeEntry(((0, SIN_DRIFT), (2, PolyEntry(1, ((0.5, (1,)),)))))
    linear = TimeEntry(((1, PolyEntry(1, ((0.2, (0,)),))),))
    cases = [(scalar_pc(None), 0), (scalar_pc(SIN_DRIFT), 0),
             (scalar_pc(quadratic, SIN_DRIFT), 2),
             (scalar_pc(SIN_DRIFT, linear), 1)]
    for pc, order in cases:
        assert vars(pc)["max_time_order"] == pc.max_time_order == order
        assert vars(pc)["time_dependent"] == pc.time_dependent == (order > 0)


# ---------------------------------------------------------------------------
# expand: closed forms and identities
# ---------------------------------------------------------------------------

def test_expand_zero_drift_all_modes():
    pc = scalar_pc(None)
    for wp in (WarpParams(), WarpParams(mode="beta", beta=0.3),
               WarpParams(mode="tau", beta=0.5)):
        exp = expand(pc, [0.0], 4, wp)
        assert all(c.max_abs() == 0.0 for c in jets_of(exp)[0])
        assert all(s == 0.0 for s in exp.diagnostics.sup_norms)


def test_expand_time_dependent_closed_forms():
    b0, b1 = 0.3, 0.5
    entry = TimeEntry(((0, PolyEntry(1, ((b0, (0,)),))),
                       (1, PolyEntry(1, ((b1, (0,)),)))))
    exp = expand(scalar_pc(entry), [0.0], 4)
    ref = oracle.const_drift_series_coeffs(b0, b1)
    for k, table in enumerate(ref):
        jet = jets_of(exp)[0][k]
        for (g, l), val in table.items():
            assert jet.term(l).coeff((g,)) == pytest.approx(val, abs=1e-12)
    assert jets_of(exp)[0][4].max_abs() <= 1e-15


@pytest.mark.parametrize("where", ["drift", "potential"])
def test_time_parts_of_one_order_add(where):
    # b = 0.3 + 0.2 sin x written as two order-0 parts of a time_poly: at
    # origin 0 only the last part of an order reached the recursion
    def pc(*parts):
        entry = TimeEntry(parts)
        return scalar_pc(entry) if where == "drift" else scalar_pc(None, entry)

    ramp = (1, PolyEntry(1, ((0.1, (2,)),)))
    const = (0, PolyEntry(1, ((0.3, (0,)),)))
    ys = np.array([[-0.5], [0.0], [0.5]])
    split = expand_batch(pc(const, (0, PolyEntry(1, ((0.2, (1,)),))), ramp),
                         ys, 4, WarpParams(), 10)
    summed = expand_batch(pc((0, PolyEntry(1, ((0.3, (0,)), (0.2, (1,))))),
                             ramp), ys, 4, WarpParams(), 10)
    np.testing.assert_allclose(split.coeffs, summed.coeffs, rtol=1e-14,
                               atol=1e-16)
    # origin 0 against the re-anchored path at an origin of 1e-300
    mixed = pc(const, (0, FourierEntry(1, ((0.2, (1.0,), 0.0),))), ramp)
    at0 = expand_batch(mixed, ys, 4, WarpParams(), 10, origins=0.0)
    near0 = expand_batch(mixed, ys, 4, WarpParams(), 10, origins=1e-300)
    np.testing.assert_allclose(at0.coeffs, near0.coeffs, rtol=1e-14,
                               atol=1e-16)


def test_expand_beta_example_and_scaling():
    pc = scalar_pc(PolyEntry(1, ((0.7, (0,)),)))
    beta = 0.5
    bexp = expand(pc, [0.0], 2, WarpParams(mode="beta", beta=beta))
    assert jets_of(bexp)[0][1].terms[0].coeff((0,)) == \
        pytest.approx(-beta * 0.7 ** 2 / 4, abs=1e-15)
    # general drift: c_{k,beta} = beta^k c_k coefficient-wise
    pcs = scalar_pc(SIN_DRIFT)
    plain = expand(pcs, [0.1], 5, WarpParams(), 12)
    scaled = expand(pcs, [0.1], 5, WarpParams(mode="beta", beta=beta), 12)
    for k in range(6):
        a = plain.coeffs[0, k, 0] * beta ** k
        b = scaled.coeffs[0, k, 0]
        assert np.max(np.abs(a - b)) <= 1e-14
    # every time order: the time^l term of c_k scales by beta^(k + l), for
    # a time-dependent drift and potential re-anchored at nonzero origins;
    # a power of two scales exactly
    pct = scalar_pc(TimeEntry(((0, SIN_DRIFT),
                               (1, PolyEntry(1, ((0.4, (0,)), (0.2, (1,))))),
                               (2, FourierEntry(1, ((0.1, (2.0,), 0.3),))))),
                    TimeEntry(((0, PolyEntry(1, ((0.3, (2,)),))),
                               (1, FourierEntry(1, ((0.5, (1.0,), 0.0),))))))
    ys, origins = np.array([[-0.4], [0.1], [0.7]]), np.array([0.0, 0.25, 0.6])
    plain = expand_batch(pct, ys, 5, WarpParams(), 12, origins=origins)
    assert plain.coeffs.shape[2] > 1
    for beta in (0.5, 0.25, 0.3):
        scaled = expand_batch(pct, ys, 5, WarpParams(mode="beta", beta=beta),
                              12, origins=origins)
        assert np.array_equal(scaled.jet_order, plain.jet_order)
        assert np.array_equal(scaled.truncated, plain.truncated)
        assert scaled.coeffs.shape == plain.coeffs.shape
        for k in range(6):
            top = np.max(np.abs(scaled.coeffs[:, k]))
            for l in range(plain.coeffs.shape[2]):
                gap = plain.coeffs[:, k, l] * beta ** (k + l) \
                    - scaled.coeffs[:, k, l]
                if beta == 0.3:
                    assert np.max(np.abs(gap)) <= 2e-15 * top
                else:
                    assert not gap.any()


def test_plain_operator_identity():
    # k c_k + dx . grad c_k = R_{k-1}, coefficient-wise
    pc = scalar_pc(SIN_DRIFT)
    exp = expand(pc, [0.2], 5, WarpParams(), 12)
    for k in range(1, 6):
        R = compute_R(k, jets_of(exp), pc, 0, exp.warp)
        ck = jets_of(exp)[0][k]
        for l in range(max(ck.order, R.order) + 1):
            lhs = poly_add(ck.term(l) * float(k), poly_euler(ck.term(l)))
            gap = np.max(np.abs(lhs.coeffs - R.term(l).coeffs))
            assert gap <= 1e-12


def test_beta_operator_identity_carries_beta():
    # k c_{k,b} + dx . grad c_{k,b} = beta R_{k-1,b}; dividing the graded
    # equation by beta moves the factor onto the weight, not the gradient
    pc = scalar_pc(SIN_DRIFT)
    beta = 0.25
    wp = WarpParams(mode="beta", beta=beta)
    exp = expand(pc, [0.0], 4, wp, 10)
    for k in range(1, 5):
        R = compute_R(k, jets_of(exp), pc, 0, wp)
        ck = jets_of(exp)[0][k]
        lhs = poly_add(ck.term(0) * float(k), poly_euler(ck.term(0)))
        gap = np.max(np.abs(lhs.coeffs - R.term(0).coeffs))
        assert gap <= 1e-13


def test_warped_modes_with_time_dependent_drift():
    entry = TimeEntry(((0, PolyEntry(1, ((0.3, (0,)),))),
                       (1, PolyEntry(1, ((0.5, (0,)),)))))
    pc = scalar_pc(entry)
    texp = expand(pc, [0.0], 8, WarpParams(mode="tau", beta=1.0), 18)
    bexp = expand(pc, [0.0], 8, WarpParams(mode="beta", beta=0.5), 18)
    from parakern.kernel import eval_points
    xs = np.array([[-0.4], [0.3]])
    for t in (0.05, 0.1):
        ref = np.array([oracle.exact_const_drift_kernel(0.3, 0.5, t, x, 0.0)
                        for x in xs[:, 0]])
        assert eval_points(bexp, t / 0.5, xs).value[0] == \
            pytest.approx(ref, rel=1e-12)
        assert eval_points(texp, texp.warp.mode_time(t), xs).value[0] == \
            pytest.approx(ref, rel=1e-9)


def test_c0_has_no_time_dependence_for_homogeneous_drift():
    pc = scalar_pc(SIN_DRIFT)
    for wp in (WarpParams(), WarpParams(mode="tau", beta=0.7)):
        exp = expand(pc, [0.3], 3, wp)
        assert jets_of(exp)[0][0].is_time_constant()


def test_decoupled_system_matches_scalar():
    drift = {(0, 0, 0): SIN_DRIFT,
             (1, 1, 1): PolyEntry(2, ((0.2, (0, 1)),))}
    sys_entries = {}
    for (i, j, k), e in drift.items():
        if isinstance(e, FourierEntry):
            sys_entries[(i, j, k)] = FourierEntry(
                2, tuple((a, (w[0], 0.0), p) for a, w, p in e.terms))
        else:
            sys_entries[(i, j, k)] = e
    pc_sys = ProblemCoefficients(2, 2, sys_entries)
    exp_sys = expand(pc_sys, [0.1, -0.2], 4, WarpParams(), 8)
    # component 0 only sees the x1-Fourier drift; compare against the 2D
    # scalar problem with that single drift row
    pc_scalar0 = ProblemCoefficients(
        2, 2, {(0, 0, 0): sys_entries[(0, 0, 0)]})
    exp_s0 = expand(pc_scalar0, [0.1, -0.2], 4, WarpParams(), 8)
    for k in range(5):
        a = exp_sys.coeffs[0, k, 0]
        b = exp_s0.coeffs[0, k, 0]
        assert np.max(np.abs(a - b)) <= 1e-13


def test_sin_testbed_weighted_sup_norms_decay():
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): SIN_DRIFT}, bound_C=1.0,
                             domain_radius_R=1.0)
    wp = select_beta(pc)
    exp = expand(pc, [0.0], 8, WarpParams(mode="beta", beta=wp.beta), 12)
    assert exp.diagnostics.tau_ref == 0.5
    assert exp.diagnostics.monotone_from(2)


def test_diagnostics_sample_every_time_order():
    # with a time-dependent drift, c_k has terms above time order 0 (tau
    # mode re-expands them into one each); the sampled sup of c_k at
    # tau_ref against one jet_eval per point
    entry = TimeEntry(((0, SIN_DRIFT), (1, PolyEntry(1, ((0.5, (1,)),)))))
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): entry}, domain_radius_R=0.8)
    exp = expand(pc, [0.1], 4, WarpParams(), 10)
    diag = exp.diagnostics
    xs = np.linspace(-0.8, 0.8, 17)
    for k, jet in enumerate(jets_of(exp)[0]):
        assert jet.order > 0
        ref = max(abs(jet_eval(jet, diag.tau_ref, [x])) for x in xs)
        assert diag.sup_norms[k] == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert diag.weighted[k] == diag.sup_norms[k] * diag.tau_ref ** k


# ---------------------------------------------------------------------------
# warp parameters
# ---------------------------------------------------------------------------

def test_beta_bound_examples():
    assert beta_upper_bound(1, 1.0, 1.0) == pytest.approx(1 / 12)
    assert beta_from_bound(1, 1.0, 1.0) == pytest.approx(1 / 24)
    assert beta_upper_bound(2, 2.0, 3.0) == pytest.approx(1 / 1728)
    assert beta_from_bound(2, 2.0, 3.0) == pytest.approx(1 / 3456)
    assert beta_from_bound(1, 1.0, 0.0) == 1.0


def test_select_beta_zero_drift():
    assert select_beta(scalar_pc(None)).beta == 1.0


def test_select_beta_sin_testbed_caps_at_one():
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): SIN_DRIFT}, bound_C=1.0,
                             domain_radius_R=1.0)
    wp = select_beta(pc)
    assert wp.mode == "beta"
    assert wp.beta == 1.0  # sampled c0_up ~ 0.069 puts the bound above the cap


def test_tau_transform_examples_and_roundtrip():
    # WarpParams.mode_time and physical_time are the tau map and its inverse
    wp = WarpParams(mode="tau", beta=1.0)
    assert wp.mode_time(0.0) == 0.0
    assert wp.physical_time(0.5)[0] == pytest.approx(math.log(2.0), rel=1e-14)
    rng = np.random.default_rng(9)
    for _ in range(100):
        # keep tau away from its saturation at 1, where float64 cannot
        # represent the inverse map to full precision
        wp = WarpParams(mode="tau", beta=rng.uniform(0.5, 2.0))
        t = rng.uniform(0.0, 2.0)
        assert wp.physical_time(wp.mode_time(t))[0] == \
            pytest.approx(t, rel=1e-14, abs=1e-14)
    with pytest.raises(ParameterError):
        WarpParams(mode="tau").physical_time(1.0)


def test_warp_schedule_examples():
    sched = warp_schedule(0.9, math.e)
    assert sched.achievable
    assert sched.max_horizon == pytest.approx(1.0, abs=1e-12)
    assert sched.params.beta == pytest.approx(1.0, abs=1e-12)
    assert sched.params.tau_max == pytest.approx(1 - 1 / math.e, abs=1e-12)
    assert not warp_schedule(2.0, math.e).achievable
    assert warp_schedule(1e-9, math.e).achievable
    for T, c in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                 (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ParameterError, match="positive and finite"):
            warp_schedule(T, c)
    # a non-finite beta would write NaN coefficients or overflow
    for mode in ("beta", "tau"):
        for beta in (math.nan, math.inf, -math.inf, 0.0, -0.5):
            with pytest.raises(ParameterError, match="positive and finite"):
                WarpParams(mode=mode, beta=beta)


def test_tau_max_needs_tau_mode():
    # plain and beta mode have no tau to bound; the bound was ignored
    assert WarpParams(mode="tau", beta=0.5, tau_max=0.5).tau_max == 0.5
    for kw in ({"mode": "plain"}, {"mode": "beta", "beta": 0.5}):
        with pytest.raises(ParameterError, match="requires tau_max = 0"):
            WarpParams(tau_max=0.5, **kw)
    # nor does an expansion file carry one
    data = expansion_to_dict(expand(scalar_pc(SIN_DRIFT), [0.0], 2,
                                    WarpParams(), 6))
    expansion_from_dict(dict(data))
    with pytest.raises(ParameterError, match="requires tau_max = 0"):
        expansion_from_dict(dict(data, tau_max=0.5))




# ---------------------------------------------------------------------------
# serialization and validation bookkeeping
# ---------------------------------------------------------------------------

def _assert_roundtrip(exp):
    data = json.loads(json.dumps(expansion_to_dict(exp)))
    clone = expansion_from_dict(data)
    assert expansion_to_dict(clone) == data
    # bit for bit, except that the file lists nonzero coefficients only,
    # so a signed zero comes back as +0.0
    unsigned = np.where(exp.coeffs == 0.0, 0.0, exp.coeffs)
    assert clone.coeffs.shape == exp.coeffs.shape
    assert clone.coeffs.tobytes() == unsigned.tobytes()
    assert np.array_equal(clone.jet_order, exp.jet_order)
    assert clone.jet_order.dtype == exp.jet_order.dtype
    assert clone.domain_radius_R == exp.domain_radius_R
    for e in (exp, clone):
        assert not e.coeffs.flags.writeable
    assert clone == exp and exp == clone and not clone != exp
    # the clone samples its diagnostics again, to the same bits
    for name in ("sup_norms", "weighted"):
        assert np.array(getattr(clone.diagnostics, name)).tobytes() == \
            np.array(getattr(exp.diagnostics, name)).tobytes()


def test_expansion_roundtrip_is_exact():
    pc = scalar_pc(SIN_DRIFT)
    exp = expand(pc, [0.1], 4, WarpParams(mode="tau", beta=0.8), 10)
    clone = expansion_from_dict(expansion_to_dict(exp))
    for k in range(5):
        for l in range(jets_of(exp)[0][k].order + 1):
            a = jets_of(exp)[0][k].term(l).coeffs
            b = jets_of(clone)[0][k].term(l).coeffs
            assert np.array_equal(a, b)
    _assert_roundtrip(exp)
    # every problem file in every mode, at the file's order and degree
    for path in PROBLEMS:
        pf = load_problem_file(path)
        for wp in (WarpParams(), WarpParams(mode="beta", beta=0.5),
                   WarpParams(mode="tau", beta=0.5)):
            _assert_roundtrip(expand(pf.pc, np.zeros(pf.pc.n), pf.order_K,
                                     wp, pf.degree_D))


def test_expansion_files_do_not_carry_diagnostics():
    # a file's diagnostics that disagree with its coefficients are not read
    exp = expand(scalar_pc(SIN_DRIFT), [0.1], 4, WarpParams(), 10)
    data = expansion_to_dict(exp)
    data["diagnostics"] = dict(data["diagnostics"], sup_norms=[9.0] * 5,
                               weighted=[9.0] * 5, tau_ref=0.25)
    assert expansion_from_dict(data).diagnostics == exp.diagnostics


def test_expansion_files_keep_the_domain_radius():
    # the radius sizes the diagnostics' lattice; coupled_system.json's is
    # sqrt(2), and a file written before the field existed reads as 1
    path = [p for p in PROBLEMS if p.endswith("coupled_system.json")][0]
    pf = load_problem_file(path)
    exp = expand(pf.pc, np.zeros(pf.pc.n), 2, WarpParams(), 6)
    assert exp.domain_radius_R == math.sqrt(2.0)
    data = expansion_to_dict(exp)
    assert expansion_from_dict(data).domain_radius_R == math.sqrt(2.0)
    del data["domain_radius_R"]
    older = expansion_from_dict(data)
    assert older.domain_radius_R == 1.0 and older != exp


def test_spot_check_bounds_on_testbed():
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): SIN_DRIFT}, bound_C=1.0,
                             domain_radius_R=1.0)
    assert pc.spot_check_bounds(max_order=4) <= 1.0


def test_expansion_equality_answers_without_raising():
    pc = scalar_pc(SIN_DRIFT)
    wp = WarpParams(mode="beta", beta=0.5)
    exp = expand(pc, [0.1], 4, wp, 10)
    clone = expansion_from_dict(json.loads(json.dumps(expansion_to_dict(exp))))
    other = expand(pc, [0.3], 4, wp, 10)
    assert exp == clone
    assert exp != other and not exp == other
    # same centre, different coefficients: the arrays decide
    assert expand(scalar_pc(PolyEntry(1, ((0.7, (0,)),))), [0.1], 4, wp,
                  10) != exp
    assert exp != "not an expansion"


def test_recursion_imports_nothing_from_scipy():
    # scipy.sparse enters the expansion side only through polyalg's
    # scatter, loaded when the first one is built; the recursion module
    # itself, function bodies included, imports no scipy
    import ast

    with open(recursion.__file__) as fh:
        tree = ast.parse(fh.read())
    modules = [a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level]
    assert modules
    assert not [m for m in modules if m.split(".")[0] == "scipy"], modules
