"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Criterion 7's delta-property bound is implemented exactly as stated and
is expected to fail; see the analysis next to that test.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from parakern import oracle
from parakern.funcspec import FourierEntry, GaussianMix, PolyEntry, TimeEntry
from parakern.kernel import (KernelField, delta_property, eval_points,
                             normalization_check, varadhan_diag)
from parakern.oracle import FDConfig, quad_ray
from parakern import recursion
from parakern.recursion import (ProblemCoefficients, WarpParams, expand,
                                select_beta, warp_schedule, _BatchWorkspace)
from parakern.solvers import ProblemSpec, QuadratureConfig, burgers_demo, \
    solve_cauchy, solve_ibvp2
from parakern.funcspec import ExpTime, SpacePolyFourier

from objalg import jets_of

SIN_DRIFT = FourierEntry(1, ((0.3, (1.0,), 0.0),))
PC_SIN = ProblemCoefficients(1, 1, {(0, 0, 0): SIN_DRIFT}, bound_C=1.0,
                             domain_radius_R=1.0)
PC_ZERO = ProblemCoefficients(1, 1, {})


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>3s} {name}: {verdict}"
          + (f" ({detail})" if detail else ""))


def test_criterion_01_constant_drift_exactness():
    b0 = 0.7
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): PolyEntry(1, ((b0, (0,)),))})
    start = time.perf_counter()
    xs = np.linspace(-1, 1, 21)
    worst = 0.0
    tail = 0.0
    for y in xs:
        exp = expand(pc, [y], 2)
        tail = max(tail, max((jets_of(exp)[0][k].max_abs()
                              for k in range(2, 3)), default=0.0))
        for t in (0.1, 0.5, 1.0):
            for x in xs:
                val = eval_points(exp, t, [[x]]).value[0, 0]
                ref = oracle.exact_const_drift_kernel(b0, 0.0, t, x, y)
                worst = max(worst, abs(val / ref - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and tail <= 1e-14 and elapsed < 1.0
    report("1", "constant-drift exactness", ok,
           f"max rel dev {worst:.2e}, c_k tail {tail:.1e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert tail <= 1e-14
    assert elapsed < 1.0


def test_criterion_02_time_dependent_drift():
    b0, b1 = 0.3, 0.5
    entry = TimeEntry(((0, PolyEntry(1, ((b0, (0,)),))),
                       (1, PolyEntry(1, ((b1, (0,)),)))))
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): entry})
    exp = expand(pc, [0.0], 4)
    ref = oracle.const_drift_series_coeffs(b0, b1)
    coeff_dev = 0.0
    for k, table in enumerate(ref):
        jet = jets_of(exp)[0][k]
        for (g, l), val in table.items():
            coeff_dev = max(coeff_dev, abs(jet.term(l).coeff((g,)) - val))
    kernel_dev = 0.0
    for t in np.linspace(0.1, 1.0, 10):
        for x in np.linspace(-1, 1, 9):
            val = eval_points(exp, t, [[x]]).value[0, 0]
            kernel_dev = max(kernel_dev, abs(
                val / oracle.exact_const_drift_kernel(b0, b1, t, x, 0.0) - 1))
    ok = coeff_dev <= 1e-12 and kernel_dev <= 1e-10
    report("2", "time-dependent drift", ok,
           f"coeff dev {coeff_dev:.2e}, kernel dev {kernel_dev:.2e}")
    assert coeff_dev <= 1e-12
    assert kernel_dev <= 1e-10


def test_criterion_03_potential_term():
    v0 = 0.4
    pc = ProblemCoefficients(1, 1, {}, {0: PolyEntry(1, ((v0, (0,)),))})
    exp = expand(pc, [0.0], 3)
    c1 = jets_of(exp)[0][1].terms[0]
    c1_dev = abs(c1.coeff((0,)) - v0)
    others = max(jets_of(exp)[0][k].max_abs() for k in (0, 2, 3))
    kernel_dev = 0.0
    for t in (0.1, 0.5, 1.0):
        for x in np.linspace(-1, 1, 9):
            val = eval_points(exp, t, [[x]]).value[0, 0]
            ref = oracle.exact_potential_kernel(v0, t, x, 0.0)
            kernel_dev = max(kernel_dev, abs(val / ref - 1.0))
    ok = c1_dev <= 1e-14 and others == 0.0 and kernel_dev <= 1e-12
    report("3", "potential term", ok,
           f"c1 dev {c1_dev:.1e}, kernel dev {kernel_dev:.2e}")
    assert c1_dev <= 1e-14
    assert kernel_dev <= 1e-12


def test_criterion_04_ray_weight_adjudication():
    # the weights the recursion applies to dx^g, against quad_ray: plain
    # 1/(k + g) from _BatchWorkspace.ray; tau mode applies no weight of
    # its own but re-expands the plain series by [tau^q] t(tau)^m, checked
    # against exact rationals: (-ln(1 - tau))^m = m! sum_q c(q, m) tau^q / q!
    # with c the unsigned Stirling numbers of the first kind
    D, K = 8, 8
    ws = _BatchWorkspace(ProblemCoefficients(1, 1, {}), np.zeros((1, 1)),
                         None, D)
    plain_dev = tau_dev = 0.0
    for k in range(1, 9):
        applied = ws.ray(np.ones((D + 1, 1, 1)), float(k))[:, 0, 0]
        for g in range(D + 1):
            plain_dev = max(plain_dev, abs(
                applied[g] - quad_ray(lambda s, g=g: s ** g, k)))
    stirling = [[1] + [0] * K]
    for q in range(K):
        stirling.append([(q * stirling[q][m] if m <= q else 0)
                         + (stirling[q][m - 1] if m else 0)
                         for m in range(K + 1)])
    for beta in (Fraction(1, 2), Fraction(2)):
        M = recursion._tau_reexpansion(float(beta), K)
        for q in range(K + 1):
            for m in range(K + 1):
                exact = beta ** m * Fraction(math.factorial(m)
                                             * stirling[q][m],
                                             math.factorial(q))
                tau_dev = max(tau_dev, abs(Fraction(M[q, m]) - exact))
    ok = plain_dev <= 1e-12 and tau_dev <= 1e-12
    report("4", "ray-weight adjudication", ok,
           f"plain dev {plain_dev:.2e}, tau dev {float(tau_dev):.2e}")
    assert plain_dev <= 1e-12
    assert tau_dev <= 1e-12


def test_criterion_05_residual_order():
    xs = np.linspace(-0.5, 0.5, 21)
    worst = {}
    for K in range(2, 7):
        exp = expand(PC_SIN, [0.0], K, WarpParams(), 12)
        worst[K] = max(abs(eval_points(exp, 0.05, [[x]],
                                       PC_SIN).residual_rel[0, 0])
                       for x in xs)
    ratios = [worst[K + 1] / worst[K] for K in range(2, 6)]
    ok = all(r <= 0.5 for r in ratios)
    report("5", "residual order", ok,
           "ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    assert all(r <= 0.5 for r in ratios)


def _criterion6_solution():
    ps = ProblemSpec("cauchy", (-2.0,), (2.0,), 0.25, PC_SIN,
                     phi=GaussianMix(((1.0, 1.0, (0.0,)),)))
    fld = KernelField(PC_SIN, WarpParams(), K=6)
    pts = np.linspace(-2, 2, 65)[:, None]
    sol = solve_cauchy(ps, fld, QuadratureConfig(gh_order=40), points=pts)
    return pts, sol


def test_criterion_06_fd_cross_check():
    start = time.perf_counter()
    pts, sol = _criterion6_solution()

    ps_box = ProblemSpec("cauchy", (-6.0,), (6.0,), 0.25, PC_SIN,
                         phi=GaussianMix(((1.0, 1.0, (0.0,)),)))
    ref_sol = oracle.fd_solve(ps_box, FDConfig(h=1 / 256, dt=1e-4))
    idx = np.searchsorted(ref_sol.points[:, 0], pts[:, 0])
    ref = ref_sol.values[-1][idx, 0]
    dev = float(np.max(np.abs(sol.values[0, :, 0] - ref)))
    elapsed = time.perf_counter() - start
    ok = dev <= 5e-3 and elapsed < 60.0
    report("6", "FD cross-check", ok, f"Linf {dev:.2e}, {elapsed:.1f}s")
    assert dev <= 5e-3
    assert elapsed < 60.0


def test_criterion_07a_normalization():
    fld = KernelField(PC_SIN, WarpParams(), K=6)
    devs = [abs(normalization_check(fld, t, [0.0], 40) - 1.0)
            for t in (0.1, 0.25)]
    ok = max(devs) <= 1e-4
    report("7a", "normalization", ok, f"max dev {max(devs):.2e}")
    assert max(devs) <= 1e-4


@pytest.mark.xfail(strict=True, reason=(
    "stated constant is unattainable: int p(t,x,y)cos(y)dy - cos(x) = "
    "t (cos x + 0.3 sin^2 x) + O(t^2), and |cos x + 0.3 sin^2 x| >= 0.75 "
    "everywhere on the testbed domain, so the error is ~0.75t..1.0t, "
    "an order above the 0.1t bound; even zero drift gives t|cos x|. "
    "The linear rate itself is verified in test_kernel.py."))
def test_criterion_07b_delta_property_as_stated():
    fld = KernelField(PC_SIN, WarpParams(), K=6)
    devs = {}
    for t in (1e-2, 1e-3):
        val = delta_property(fld, lambda y: math.cos(y[0]), t, [0.0], 40)
        devs[t] = abs(val - 1.0)
    ok = all(devs[t] <= 0.1 * t for t in devs)
    report("7b", "delta property (as stated)", ok,
           ", ".join(f"e({t:g})={devs[t]:.2e} vs {0.1 * t:.0e}" for t in devs))
    assert all(devs[t] <= 0.1 * t for t in devs)


def test_criterion_08_warp_equivalences():
    beta = 0.5
    plain = expand(PC_SIN, [0.0], 8, WarpParams(), 18)
    bexp = expand(PC_SIN, [0.0], 8, WarpParams(mode="beta", beta=beta), 18)
    beta_dev = 0.0
    for t in (0.05, 0.1, 0.2):
        for x in np.linspace(-0.5, 0.5, 7):
            v1 = eval_points(plain, t, [[x]]).log_value[0, 0]
            v2 = eval_points(bexp, t / beta, [[x]]).log_value[0, 0]
            beta_dev = max(beta_dev, abs(math.exp(v2 - v1) - 1.0))

    wp = select_beta(PC_SIN)
    texp = expand(PC_SIN, [0.0], 8, WarpParams(mode="tau", beta=wp.beta), 18)
    t = 0.1
    tau = texp.warp.mode_time(t)
    tau_dev = 0.0
    for x in np.linspace(-0.5, 0.5, 7):
        v1 = eval_points(plain, t, [[x]]).log_value[0, 0]
        v2 = eval_points(texp, tau, [[x]]).log_value[0, 0]
        tau_dev = max(tau_dev, abs(math.exp(v2 - v1) - 1.0))
    c0_constant = jets_of(texp)[0][0].is_time_constant(tol=0.0)
    ok = beta_dev <= 1e-10 and tau_dev <= 1e-6 and c0_constant
    report("8", "warp equivalences", ok,
           f"beta dev {beta_dev:.2e}, tau dev {tau_dev:.2e}, "
           f"c0 tau-independent: {c0_constant}")
    assert beta_dev <= 1e-10
    assert tau_dev <= 1e-6
    assert c0_constant


def test_criterion_09_warp_schedule():
    c = math.e
    sched = warp_schedule(0.9, c)
    horizon_dev = abs(sched.max_horizon - c / math.e)
    below = warp_schedule(c / math.e * 0.999, c).achievable
    above = warp_schedule(c / math.e * 1.001, c).achievable
    noted = warp_schedule(2.0, c)
    ok = horizon_dev <= 1e-12 and below and not above and noted.note != ""
    report("9", "warp schedule", ok,
           f"horizon dev {horizon_dev:.1e}, flags {below}/{not above}, "
           f"caveat reported: {bool(noted.note)}")
    assert horizon_dev <= 1e-12
    assert below and not above
    assert noted.note  # the bounded-horizon caveat is part of the output


def _ibvp2_error(steps):
    ps = ProblemSpec(
        "ibvp2", (0.0,), (1.0,), 1.0, PC_ZERO,
        phi=FourierEntry(1, ((1.0, (1.0,), math.pi / 2),)),
        alpha=PolyEntry(1, ((1.0, (0,)),)),
        psi=ExpTime(-1.0, SpacePolyFourier((
            (1.0, (0,), (1.0,), math.pi / 2),
            (-1.0, (1,), (1.0,), 0.0)))))
    fld = KernelField(PC_ZERO, WarpParams(), K=2)
    xs = np.linspace(0, 1, 21)[1:-1][:, None]
    sol, _ = solve_ibvp2(ps, fld, steps=steps,
                         quad=QuadratureConfig(gl_order=24),
                         points=xs, sample_times=[1.0])
    exact = math.exp(-1.0) * np.cos(xs[:, 0])
    return float(np.max(np.abs(sol.values[0, :, 0] - exact)))


def test_criterion_10_ibvp2_manufactured():
    e64 = _ibvp2_error(64)
    e128 = _ibvp2_error(128)
    ratio = e128 / e64
    ok = e64 <= 1e-2 and ratio <= 0.7
    report("10", "IBVP-2 manufactured solution", ok,
           f"Linf(64)={e64:.2e}, Linf(128)={e128:.2e}, ratio {ratio:.2f}")
    assert e64 <= 1e-2
    assert ratio <= 0.7


def test_criterion_11_burgers_demo():
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=0.1,
                     phi0=PolyEntry(1, ((-0.5, (2,)),)))
    pts = np.linspace(-1, 1, 21)[:, None]
    times = [0.1, 0.2, 0.3, 0.4, 0.5]
    sol = burgers_demo(ps, K=2, points=pts, sample_times=times)
    dev = 0.0
    for it, t in enumerate(sol.times):
        dev = max(dev, float(np.max(np.abs(
            sol.values[it, :, 0] - pts[:, 0] / (1 + t)))))
    ok = dev <= 1e-3
    report("11", "Burgers demo", ok, f"max dev {dev:.2e}")
    assert dev <= 1e-3


def test_criterion_12_system_mode():
    # (a) decoupled diagonal system reproduces per-component scalars
    diag = {(0, 0, 0): FourierEntry(2, ((0.3, (1.0, 0.0), 0.0),)),
            (1, 1, 1): PolyEntry(2, ((0.25, (0, 0)),))}
    pc_sys = ProblemCoefficients(2, 2, diag)
    exp_sys = expand(pc_sys, [0.1, -0.1], 4, WarpParams(), 8)
    dev_a = 0.0
    for j in range(2):
        pc_one = ProblemCoefficients(2, 2, {k: v for k, v in diag.items()
                                            if k[0] == j})
        exp_one = expand(pc_one, [0.1, -0.1], 4, WarpParams(), 8)
        for k in range(5):
            a = exp_sys.coeffs[j, k, 0]
            b = exp_one.coeffs[j, k, 0]
            dev_a = max(dev_a, float(np.max(np.abs(a - b))))

    # (b) genuinely coupled pair: equation 0 driven by component 1's
    # x1-derivative; the residual report is the deliverable, thresholds
    # are deliberately not asserted (vectorial ansatz gap)
    pc_cpl = ProblemCoefficients(
        2, 2, {(0, 1, 0): PolyEntry(2, ((0.2, (0, 0)),))})
    exp_cpl = expand(pc_cpl, [0.0, 0.0], 6, WarpParams(), 12)
    lines = []
    finite = True
    for t in (0.05, 0.1):
        for x in ((0.2, 0.1), (-0.3, 0.4)):
            kp = eval_points(exp_cpl, t, [x], pc_cpl)
            rel = kp.residual_rel[:, 0]
            raw = rel * kp.value[:, 0]
            finite &= bool(np.all(np.isfinite(raw)) and
                           np.all(np.isfinite(rel)))
            lines.append(f"    t={t:4.2f} x={x}: rel residual "
                         + ", ".join(f"{v:+.3e}" for v in rel))
    ok = dev_a <= 1e-12 and finite
    report("12", "system mode", ok,
           f"decoupled dev {dev_a:.2e}; coupled residual report below")
    print("  coupled 2x2 residual report (K=6, b^1_21=0.2):")
    for line in lines:
        print(line)
    assert dev_a <= 1e-12
    assert finite


def test_criterion_13_varadhan_diagnostic():
    exp = expand(PC_SIN, [0.0], 6, WarpParams(), 14)
    ts = (1e-2, 1e-3)
    vals = varadhan_diag(exp, ts, [0.4])
    devs = [abs(v - 0.16) for v in vals]
    ok = all(d <= 5 * t for d, t in zip(devs, ts))
    report("13", "Varadhan diagnostic", ok,
           ", ".join(f"dev({t:g})={d:.2e}" for t, d in zip(ts, devs)))
    for d, t in zip(devs, ts):
        assert d <= 5 * t
