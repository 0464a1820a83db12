"""The batched expansion core against the per-order object reference.

``expand_batch`` runs the coefficient recursion once for many centres on
arrays; ``compute_c0``/``compute_R`` of the tests' ``objalg`` module build
the same quantities one centre at a time with TimeJets.  Every problem
file is checked in every mode.
"""

import glob
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from parakern import recursion
from parakern.errors import StructureError
from parakern.kernel import (KernelField, _gh_integrals, kernel_log_gradient,
                             log_correction)
from parakern.polyalg import FourierEntry, PolyEntry, TimeEntry, index_table
from parakern.problemfile import load_problem_dict, load_problem_file
from parakern.recursion import (ProblemCoefficients, WarpParams, _series_nu,
                                expand, expand_batch)

from objalg import (DenseWorkspace, TaylorPoly, TimeJet, _Workspace,
                    compute_c0, compute_R, jet_ray, shifted_origin)

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEMS = sorted(glob.glob(os.path.join(HERE, "..", "problems", "*.json")))
SIN_DRIFT = os.path.join(HERE, "..", "problems", "sin_drift.json")
MODES = {"plain": WarpParams(), "beta": WarpParams(mode="beta", beta=0.5),
         "tau": WarpParams(mode="tau", beta=0.5)}
B = 8

# beyond the problem files: a 2D system with Fourier, time-polynomial and
# potential entries, and a polynomial drift whose products overflow the cap
RICH = ProblemCoefficients(2, 2, {
    (0, 0, 0): FourierEntry(2, ((0.3, (1.0, -0.5), 0.2),)),
    (0, 1, 1): TimeEntry(((0, PolyEntry(2, ((0.2, (1, 0)),))),
                          (1, PolyEntry(2, ((-0.4, (0, 0)),))))),
    (1, 1, 0): PolyEntry(2, ((0.1, (0, 2)), (0.3, (0, 0)))),
    (1, 0, 1): TimeEntry(((1, FourierEntry(2, ((0.2, (0.0, 1.0), 0.0),))),)),
}, {0: TimeEntry(((0, PolyEntry(2, ((0.5, (1, 1)),))),
                  (1, FourierEntry(2, ((0.1, (1.0, 1.0), 0.3),))))),
    1: PolyEntry(2, ((-0.2, (0, 0)),))})
OVERFLOW = ProblemCoefficients(1, 1, {
    (0, 0, 0): PolyEntry(1, ((0.5, (2,)), (0.1, (1,))))},
    {0: TimeEntry(((1, PolyEntry(1, ((0.3, (1,)),))),))})
# a 2D two-component Ornstein-Uhlenbeck system: linear drift, a constant
# cross coupling and a linear potential, so every jet stays low in degree
OU = ProblemCoefficients(2, 2, {
    (0, 0, 0): PolyEntry(2, ((-0.5, (1, 0)), (0.2, (0, 1)))),
    (0, 0, 1): PolyEntry(2, ((0.1, (1, 0)), (-0.4, (0, 1)))),
    (0, 1, 0): PolyEntry(2, ((0.2, (0, 0)),)),
    (1, 1, 0): PolyEntry(2, ((-0.3, (1, 0)),)),
    (1, 1, 1): PolyEntry(2, ((-0.3, (0, 1)), (0.05, (0, 0)))),
}, {1: PolyEntry(2, ((0.1, (1, 0)),))})
CASES = {os.path.basename(p): p for p in PROBLEMS}
CASES.update({"rich_system": (RICH, 3, 6), "poly_overflow": (OVERFLOW, 3, 4),
              "ou_system": (OU, 4, 10)})


def _setup(case, mode):
    wp = MODES[mode]
    if isinstance(CASES[case], tuple):
        pc, K, D = CASES[case]
    else:
        pf = load_problem_file(CASES[case])
        pc, K = pf.pc, pf.order_K
        D = pf.degree_D if pf.degree_D is not None else 2 * K + 2
    radius = min(KernelField(pc, wp, K, D).trust_radius, pc.domain_radius_R)
    rng = np.random.default_rng(20261017)
    ys = rng.uniform(-1.0, 1.0, (B, pc.n))
    ys *= 0.9 * radius / np.maximum(np.linalg.norm(ys, axis=1),
                                    radius)[:, None]
    return pc, wp, K, D, ys


def _jet(batch, j, k, b, center):
    """Row b of the batch's c^j_k as a TimeJet."""
    n = batch.centers.shape[1]
    return TimeJet(batch.warp.time_var, tuple(
        TaylorPoly(n, center, batch.degree_D, batch.coeffs[j, k, l, b].copy(),
                   bool(batch.jet_truncated[j, k, b]))
        for l in range(batch.jet_order[j, k] + 1)))


def _solve_residual(c: TimeJet, R: TimeJet, k: int, wp: WarpParams,
                    jet_cap) -> float:
    """Largest |(k + dx . grad) c - R| coefficient (tau: as jets in tau)."""
    orders = index_table(c.dim, c.cap)[2]
    if wp.mode in ("plain", "beta"):
        assert c.order == R.order
        return max(float(np.max(np.abs((k + orders) * c.terms[l].coeffs
                                       - R.terms[l].coeffs)))
                   for l in range(c.order + 1))
    nu = _series_nu(jet_cap)
    worst = 0.0
    for l in range(jet_cap + 1):
        lhs = sum((k * (m == 0) + orders * nu[m]) * c.terms[l - m].coeffs
                  for m in range(l + 1))
        worst = max(worst, float(np.max(np.abs(lhs - R.term(l).coeffs))))
    return worst


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_object_reference(case, mode):
    pc, wp, K, D, ys = _setup(case, mode)
    jet_cap = max(K, pc.max_time_order) if mode == "tau" else None
    batch = expand_batch(pc, ys, K, wp, D)
    assert batch.coeffs.shape[:2] == (pc.components, K + 1)
    assert batch.coeffs.shape[3:] == (B, len(index_table(pc.n, D)[0]))
    for b, y in enumerate(ys):
        center = tuple(float(v) for v in y)
        ws = _Workspace(pc, y, wp, D, jet_cap)
        flags = []
        for j in range(pc.components):
            c0 = compute_c0(pc, y, j, D, wp, jet_cap, _ws=ws)
            assert batch.jet_order[j, 0] == c0.order
            assert batch.jet_truncated[j, 0, b] == c0.truncated
            assert np.array_equal(batch.coeffs[j, 0, :c0.order + 1, b],
                                  np.array([p.coeffs for p in c0.terms]))
            flags.append(c0.truncated)
        for k in range(1, K + 1):
            prior = [[_jet(batch, j, r, b, center) for r in range(k)]
                     for j in range(pc.components)]
            for j in range(pc.components):
                R = compute_R(k, prior, pc, j, wp, _ws=ws)
                assert batch.jet_order[j, k] == R.order
                assert batch.jet_truncated[j, k, b] == R.truncated
                flags.append(R.truncated)
                c = _jet(batch, j, k, b, center)
                scale = max(1.0, R.max_abs())
                assert _solve_residual(c, R, k, wp, jet_cap) <= 1e-13 * scale
                if mode != "tau":
                    # same operations in the same order: equal values
                    ref = jet_ray(R, float(k))
                    assert all(np.array_equal(p.coeffs, q.coeffs)
                               for p, q in zip(c.terms, ref.terms))
        assert batch.truncated[b] == (ws.truncated or any(flags))


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_rows_do_not_leak(case, mode):
    pc, wp, K, D, ys = _setup(case, mode)
    batch = expand_batch(pc, ys, K, wp, D)
    for b in range(B):
        alone = expand_batch(pc, ys[b:b + 1], K, wp, D)
        assert np.array_equal(alone.jet_order, batch.jet_order)
        assert alone.truncated[0] == batch.truncated[b]
        assert np.array_equal(alone.jet_truncated[..., 0],
                              batch.jet_truncated[..., b])
        # bit for bit, signed zeros included
        assert (alone.coeffs[:, :, :, 0].tobytes()
                == batch.coeffs[:, :, :, b].tobytes())


@pytest.mark.parametrize("mode", sorted(MODES))
def test_expand_is_the_single_centre_batch(mode):
    pc, wp, K, D, ys = _setup("sin_drift.json", mode)
    exp = expand(pc, ys[3], K, wp, D)
    batch = expand_batch(pc, ys[3:4], K, wp, D)
    assert exp.truncated == bool(batch.truncated[0])
    for k in range(K + 1):
        order = exp.jet_order[0, k]
        assert order == batch.jet_order[0, k]
        assert np.array_equal(exp.coeffs[0, k, :order + 1],
                              batch.coeffs[0, k, :order + 1, 0])


@pytest.mark.parametrize("mode", sorted(MODES))
def test_gh_pass_matches_per_centre_sum(mode):
    # the batched Gauss-Hermite pass against one expand per kept node
    pf = load_problem_file(SIN_DRIFT)
    wp = MODES[mode]
    fld = KernelField(pf.pc, wp, 4, 10)
    t, x, order = 0.2, np.array([0.3]), 12
    g = lambda y: math.exp(-float(y[0]) ** 2)
    # the pass evaluates g once, on the array of kept nodes
    vals, grads = _gh_integrals(fld, t, 0.0, x, lambda ys: [g(y) for y in ys],
                                (0,), order, gradient=True)
    z, w = np.polynomial.hermite.hermgauss(order)
    time = fld.mode_time(t)
    root = 2.0 * math.sqrt(t)
    ref, ref_grad = 0.0, 0.0
    for zi, wi in zip(z, w):
        if root * abs(zi) > fld.trust_radius:
            continue
        y = x + root * zi
        exp = expand(pf.pc, y, 4, wp, 10)
        weight = wi * math.exp(log_correction(exp, time, x, 0)) * g(y)
        ref += weight
        ref_grad += weight * kernel_log_gradient(exp, time, x, 0)[0]
    scale = math.sqrt(math.pi)
    assert vals[0] == pytest.approx(ref / scale, rel=1e-13)
    assert grads[0, 0] == pytest.approx(ref_grad / scale, rel=1e-12)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_per_row_origins_equal_the_shifted_problem(mode):
    # one batch with an origin per centre: each row is the expansion of the
    # problem rewritten about its origin, and the rows at origin 0 are the
    # origin-free ones.  RICH's potential mixes polynomial and Fourier
    # parts; a drift with a t^2 part brings binomial weights above 1
    pc, wp, K, D, ys = _setup("rich_system", mode)
    pc = ProblemCoefficients(2, 2, {**pc.drift, (1, 1, 1): TimeEntry((
        (0, PolyEntry(2, ((0.1, (0, 1)),))),
        (2, FourierEntry(2, ((0.3, (0.5, 1.0), 0.1),)))))}, pc.potential)
    origins = np.array([0.0, 0.3, 0.0, 0.05, 0.7, 0.0, 1.2, 0.3])
    batch = expand_batch(pc, ys, K, wp, D, origins)
    free = expand_batch(pc, ys, K, wp, D)
    assert np.array_equal(batch.jet_order, free.jet_order)
    for b, (y, s) in enumerate(zip(ys, origins)):
        ref = expand(shifted_origin(pc, s), y, K, wp, D)
        row = batch.coeffs[:, :, :, b]
        assert row.shape == ref.coeffs.shape
        assert np.all(np.abs(row - ref.coeffs)
                      <= 1e-13 * max(1.0, float(np.abs(ref.coeffs).max())))
        assert batch.truncated[b] == ref.truncated
        if s == 0.0:
            # == compares -0.0 and 0.0 equal: bit for bit up to their sign
            assert np.array_equal(row, free.coeffs[:, :, :, b])
            assert np.array_equal(batch.jet_truncated[..., b],
                                  free.jet_truncated[..., b])
    with pytest.raises(StructureError, match="origins of shape"):
        expand_batch(pc, ys, K, wp, D, origins[:3])


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("case", sorted(CASES) + ["rich_system_origins"])
def test_degree_trimmed_batch_equals_dense_reference(case, mode, monkeypatch):
    # jets hold only the rows up to their degree, and products form only
    # the pairs of those rows; the dense workspace keeps all N rows and
    # multiplies every in-cap pair.  Only exact zeros are dropped, so the
    # coefficients are equal up to the sign of zero and the flags exactly
    origins = 0.0
    if case == "rich_system_origins":
        case = "rich_system"
        origins = np.array([0.2, 0.0, 0.9, 0.0, 0.4, 1.1, 0.0, 0.05])
    pc, wp, K, D, ys = _setup(case, mode)
    trimmed = expand_batch(pc, ys, K, wp, D, origins)
    monkeypatch.setattr(recursion, "_BatchWorkspace", DenseWorkspace)
    dense = expand_batch(pc, ys, K, wp, D, origins)
    # adding +0.0 maps -0.0 to +0.0 and leaves every other value alone
    assert (trimmed.coeffs + 0.0).tobytes() == (dense.coeffs + 0.0).tobytes()
    assert np.array_equal(trimmed.jet_order, dense.jet_order)
    assert np.array_equal(trimmed.jet_truncated, dense.jet_truncated)
    assert np.array_equal(trimmed.truncated, dense.truncated)


def test_one_chunk_peaks_within_the_chunk_bound(monkeypatch):
    # a dense 1D problem with time-dependent drift and potential: its
    # Fourier entries fill every row, so each product takes the full pair
    # table, and tau mode has the most time pairs per order
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): TimeEntry((
        (0, FourierEntry(1, ((0.3, (1.0,), 0.0),))),
        (1, FourierEntry(1, ((0.5, (2.0,), 0.1),)))))},
        {0: TimeEntry(((1, FourierEntry(1, ((0.2, (1.0,), 0.3),))),))})
    peaks, sizes = [], []
    real = recursion._expand_chunk

    def traced(pc, ys, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = real(pc, ys, *args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        sizes.append(len(ys))
        return out

    monkeypatch.setattr(recursion, "_expand_chunk", traced)
    ys = np.linspace(-0.5, 0.5, 3000)[:, None]
    tracemalloc.start()
    try:
        expand_batch(pc, ys, 4, WarpParams(mode="tau", beta=0.5), 10)
    finally:
        tracemalloc.stop()
    assert len(sizes) > 1 and sizes[0] > 1      # at least one full chunk
    assert max(peaks) <= 2 * recursion._CHUNK_FLOATS * 8


def test_chunked_batch_equals_one_chunk(monkeypatch):
    pc, wp, K, D, ys = _setup("rich_system", "tau")
    whole = expand_batch(pc, ys, K, wp, D)
    monkeypatch.setattr(recursion, "_CHUNK_FLOATS", 1)    # one centre each
    split = expand_batch(pc, ys, K, wp, D)
    assert split.coeffs.tobytes() == whole.coeffs.tobytes()
    assert np.array_equal(split.jet_order, whole.jet_order)
    assert np.array_equal(split.jet_truncated, whole.jet_truncated)
    assert np.array_equal(split.truncated, whole.truncated)


@pytest.mark.parametrize("case", sorted(CASES))
def test_select_beta_matches_object_reference(case, monkeypatch):
    # a problem file loaded in beta and tau mode without a beta selects
    # beta from c_0 sampled over a lattice; the sampled sup must equal,
    # bit for bit, the one compute_c0 gives centre by centre
    sampled = []
    real = recursion.beta_from_bound
    monkeypatch.setattr(recursion, "beta_from_bound",
                        lambda n, C, c0: sampled.append(c0) or real(n, C, c0))
    if isinstance(CASES[case], tuple):
        pc = CASES[case][0]
        betas = [recursion.select_beta(pc).beta] * 2
        sampled *= 2
    else:
        with open(CASES[case]) as fh:
            data = json.load(fh)
        betas = []
        for mode in ("beta", "tau"):
            data["expansion"] = {"order_K": data["expansion"]["order_K"],
                                 "mode": mode}
            betas.append(load_problem_dict(data).warp.beta)
        pc = load_problem_file(CASES[case]).pc
    if pc.is_zero_drift():
        assert betas == [1.0, 1.0] and not sampled
        return
    R, D = pc.domain_radius_R, 6
    points = recursion._lattice(pc.n, R, recursion.SAMPLE_LATTICE)
    exps = index_table(pc.n, D)[0]
    worst = 0.0
    for y in points:
        ws = _Workspace(pc, y, WarpParams(), D, None)
        mono = np.prod((points - y)[:, None, :] ** exps[None], axis=2)
        for j in range(pc.components):
            c0 = compute_c0(pc, y, j, D, _ws=ws).terms[0].coeffs
            worst = max(worst, float(np.max(np.abs(mono @ c0))))
    c0_up = min(worst, pc.components ** 2 * R * pc.bound_C)
    assert [c.hex() for c in sampled] == [c0_up.hex()] * 2
    assert betas == [real(pc.n, pc.bound_C, c0_up)] * 2
