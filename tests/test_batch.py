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

from parakern import kernel, polyalg, recursion
from parakern.errors import ParameterError, StructureError
from parakern.funcspec import FourierEntry, PolyEntry, TimeEntry
from parakern.kernel import KernelField, Rows, eval_points
from parakern.polyalg import (index_table, _mul_cols, _overflow_cols, _rows,
                              _tensor_grid)
from parakern.problemfile import load_problem_dict, load_problem_file
from parakern.recursion import (ProblemCoefficients, WarpParams, expand,
                                expand_batch)
from parakern.solvers import solve_cauchy

from objalg import (DenseWorkspace, TaylorPoly, TimeJet, _Workspace,
                    compute_c0, compute_R, jet_ray, shifted_origin,
                    tau_reexpanded)

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
# the eval benchmark's shape: a 2D two-component system, each component
# with its own constant drift, so c_0 is linear and every later c_k is
# constant in space
CONST2 = ProblemCoefficients(2, 2, {
    (0, 0, 0): PolyEntry(2, ((0.3, (0, 0)),)),
    (0, 0, 1): PolyEntry(2, ((-0.4, (0, 0)),)),
    (1, 1, 0): PolyEntry(2, ((-0.2, (0, 0)),)),
    (1, 1, 1): PolyEntry(2, ((0.35, (0, 0)),))})
CASES = {os.path.basename(p): p for p in PROBLEMS}
CASES.update({"rich_system": (RICH, 3, 6), "poly_overflow": (OVERFLOW, 3, 4),
              "ou_system": (OU, 4, 10), "const_system_2d": (CONST2, 6, 14)})


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
    return TimeJet("t" if batch.warp.mode == "plain" else "tau", tuple(
        TaylorPoly(n, center, batch.degree_D, batch.coeffs[j, k, l, b].copy())
        for l in range(batch.jet_order[j, k] + 1)))


def _solve_residual(c: TimeJet, R: TimeJet, k: int) -> float:
    """Largest |(k + dx . grad) c - R| coefficient."""
    orders = index_table(c.dim, c.cap)[2]
    assert c.order == R.order
    return max(float(np.max(np.abs((k + orders) * c.terms[l].coeffs
                                   - R.terms[l].coeffs)))
               for l in range(c.order + 1))


def _tau_deviation(batch, b, pc, K, D, ordered=False) -> tuple:
    """Tau mode about centre b against its reference: the object recursion
    run alone in plain mode, c_k the ray solve of its own R_{k-1}, then
    re-expanded by ``tau_reexpanded``.  Returns the largest coefficient
    deviation over the largest reference coefficient, and the reference
    flag."""
    y = batch.centers[b]
    ws = _Workspace(pc, y, WarpParams(), D)
    jets = [[compute_c0(pc, y, j, D, _ws=ws)] for j in range(pc.components)]
    flags = [cj[0].truncated for cj in jets]
    for k in range(1, K + 1):
        Rs = [compute_R(k, jets, pc, j, WarpParams(), _ws=ws, ordered=ordered)
              for j in range(pc.components)]
        for cj, R in zip(jets, Rs):
            flags.append(R.truncated)
            cj.append(jet_ray(R, float(k)))
    ref = np.array([[q.terms[0].coeffs for q in cj]
                    for cj in tau_reexpanded(jets, batch.warp.beta, K)])
    assert batch.coeffs.shape[2] == 1 and not batch.jet_order.any()
    dev = float(np.max(np.abs(batch.coeffs[:, :, 0, b] - ref)))
    return dev, float(np.max(np.abs(ref))), ws.truncated or any(flags)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_object_reference(case, mode):
    pc, wp, K, D, ys = _setup(case, mode)
    batch = expand_batch(pc, ys, K, wp, D)
    assert batch.coeffs.shape[:2] == (pc.components, K + 1)
    assert batch.coeffs.shape[3:] == (B, len(index_table(pc.n, D)[0]))
    if mode == "tau":
        for b in range(B):
            dev, scale, flag = _tau_deviation(batch, b, pc, K, D)
            assert dev <= 1e-13 * max(1.0, scale)
            assert batch.truncated[b] == flag
        return
    for b, y in enumerate(ys):
        center = tuple(float(v) for v in y)
        ws = _Workspace(pc, y, wp, D)
        flags = []
        for j in range(pc.components):
            c0 = compute_c0(pc, y, j, D, wp, _ws=ws)
            assert batch.jet_order[j, 0] == c0.order
            assert np.array_equal(batch.coeffs[j, 0, :c0.order + 1, b],
                                  np.array([p.coeffs for p in c0.terms]))
            flags.append(c0.truncated)
        for k in range(1, K + 1):
            prior = [[_jet(batch, j, r, b, center) for r in range(k)]
                     for j in range(pc.components)]
            for j in range(pc.components):
                R = compute_R(k, prior, pc, j, wp, _ws=ws)
                assert batch.jet_order[j, k] == R.order
                flags.append(R.truncated)
                c = _jet(batch, j, k, b, center)
                scale = max(1.0, R.max_abs())
                assert _solve_residual(c, R, k) <= 1e-13 * scale
                # same operations in the same order: equal values
                ref = jet_ray(R, float(k))
                assert all(np.array_equal(p.coeffs, q.coeffs)
                           for p, q in zip(c.terms, ref.terms))
        assert batch.truncated[b] == (ws.truncated or any(flags))


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_the_ordered_gradient_sum(case, mode):
    # the batch forms each distinct gradient pair once and doubles it; the
    # full ordered double sum, each of its k pairs a product of its own,
    # gives the same c_k up to rounding and the same flags
    pc, wp, K, D, ys = _setup(case, mode)
    batch = expand_batch(pc, ys, K, wp, D)
    if mode == "tau":
        for b in range(B):
            dev, scale, flag = _tau_deviation(batch, b, pc, K, D, True)
            assert dev <= 1e-14 * scale
            assert batch.truncated[b] == flag
        return
    for b, y in enumerate(ys):
        center = tuple(float(v) for v in y)
        ws = _Workspace(pc, y, wp, D)
        flags = [compute_c0(pc, y, j, D, wp, _ws=ws).truncated
                 for j in range(pc.components)]
        for k in range(1, K + 1):
            prior = [[_jet(batch, j, r, b, center) for r in range(k)]
                     for j in range(pc.components)]
            for j in range(pc.components):
                R = compute_R(k, prior, pc, j, wp, _ws=ws, ordered=True)
                assert batch.jet_order[j, k] == R.order
                flags.append(R.truncated)
                c = _jet(batch, j, k, b, center)
                tol = 1e-14 * R.max_abs()
                ref = jet_ray(R, float(k))
                assert all(np.max(np.abs(p.coeffs - q.coeffs)) <= tol
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
@pytest.mark.parametrize("case", sorted(CASES))
def test_eval_points_over_times_equals_one_call_per_time(case, mode):
    # one pass over the (time, point) rows gives each time's own call bit
    # for bit: values, log values, gradients and residuals
    pc, wp, K, D, ys = _setup(case, mode)
    exp = expand(pc, ys[0], K, wp, D)
    times = (0.05, 0.1, 0.3)
    whole = eval_points(exp, np.array(times), ys, pc)
    assert whole.value.shape == (pc.components, len(times), B)
    some = eval_points(exp, list(times), ys)
    for i, t in enumerate(times):
        one = eval_points(exp, t, ys, pc)
        for name in ("value", "log_value", "gradient", "residual_rel"):
            assert getattr(whole, name)[:, i].tobytes() == \
                getattr(one, name).tobytes()
        assert some.gradient[:, i].tobytes() == one.gradient.tobytes()


@pytest.mark.parametrize("size", [1, 2, 3, 17, 256, 1000])
def test_rows_equal_their_one_row_calls_at_any_pass_size(size):
    # eval_points reads one coefficient column for every row,
    # KernelField.integrate one column per row; either way each row is
    # its one-row call bit for bit, with and without second derivatives
    # (the residual) or gradients.  Up to 17 rows every row is checked,
    # past that the ends and a sample
    pc, wp, K, D = RICH, MODES["tau"], 3, 6
    rng = np.random.default_rng(size)
    xs = rng.uniform(-0.6, 0.6, (size, 2))
    check = range(size) if size <= 17 else sorted(
        {0, 1, size // 2, size - 1, *rng.choice(size, 6, replace=False)})
    exp = expand(pc, [0.1, -0.2], K, wp, D)
    for with_pc in (None, pc):
        whole = eval_points(exp, 0.2, xs, with_pc)
        for p in check:
            one = eval_points(exp, 0.2, xs[p:p + 1], with_pc)
            for name in ("value", "log_value", "gradient", "correction",
                         "log_gradient") + (("residual_rel",) if with_pc
                                            else ()):
                assert getattr(one, name).tobytes() == \
                    getattr(whole, name)[:, p:p + 1].tobytes()
    fld = KernelField(pc, wp, K, D)
    ys = rng.uniform(-0.3, 0.3, (size, 2))
    s, t = 0.05, 0.05 + rng.uniform(0.05, 0.3, size)
    for gradient in (False, True):
        [(value, grad)] = fld.integrate(ys, [Rows(
            s, t[:, None], xs[:, None], np.arange(size)[:, None], 1.0,
            gradient=gradient)])
        for p in check:
            [(one, one_grad)] = fld.integrate(ys[p:p + 1], [Rows(
                s, t[p:p + 1, None], xs[p:p + 1, None], [[0]], 1.0,
                gradient=gradient)])
            assert one.tobytes() == value[:, p:p + 1].tobytes()
            if gradient:
                assert one_grad.tobytes() == grad[:, p:p + 1].tobytes()


@pytest.mark.parametrize("case", ["const_system_2d", "rich_system"])
def test_tau_batches_equal_their_single_centres(case, monkeypatch):
    # B = 1, 2, 7 and one centre past a full chunk: each centre's
    # coefficients, jet orders and flag are those of its B = 1 batch
    pc, wp, K, D, _ = _setup(case, "tau")
    rng = np.random.default_rng(11)
    sizes, real = [], recursion._expand_chunk
    monkeypatch.setattr(recursion, "_expand_chunk", lambda pc, ys, *a: sizes
                        .append(len(ys)) or real(pc, ys, *a))
    expand_batch(pc, rng.uniform(-0.5, 0.5, (1000, pc.n)), K, wp, D)
    chunk = sizes[0]
    assert chunk < 1000
    for size in (1, 2, 7, chunk + 1):
        ys = rng.uniform(-0.5, 0.5, (size, pc.n))
        sizes.clear()
        batch = expand_batch(pc, ys, K, wp, D)
        assert sizes == ([size] if size <= chunk else [chunk, 1])
        check = range(size) if size <= 17 else [0, chunk - 1, chunk]
        for b in check:
            alone = expand_batch(pc, ys[b:b + 1], K, wp, D)
            assert alone.coeffs[:, :, :, 0].tobytes() == \
                batch.coeffs[:, :, :, b].tobytes()
            assert np.array_equal(alone.jet_order, batch.jet_order)
            assert alone.truncated[0] == batch.truncated[b]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_gh_pass_matches_per_centre_sum(mode):
    # the batched Gauss-Hermite pass against one expand per kept node
    pf = load_problem_file(SIN_DRIFT)
    wp = MODES[mode]
    fld = KernelField(pf.pc, wp, 4, 10)
    t, x, order = 0.2, np.array([0.3]), 12
    g = lambda y: math.exp(-float(y[0]) ** 2)
    # the pass evaluates g once, on the array of kept nodes
    [(vals, grads)] = fld.gauss_hermite(
        order, [(t, 0.0, x, lambda s, ys: [g(y) for y in ys])], gradient=True)
    z, w = np.polynomial.hermite.hermgauss(order)
    time = fld.warp.mode_time(t)
    root = 2.0 * math.sqrt(t)
    ref, ref_grad = 0.0, 0.0
    for zi, wi in zip(z, w):
        if root * abs(zi) > fld.trust_radius:
            continue
        y = x + root * zi
        exp = expand(pf.pc, y, 4, wp, 10)
        kp = eval_points(exp, time, [x])
        weight = wi * math.exp(kp.correction[0, 0]) * g(y)
        ref += weight
        ref_grad += weight * kp.log_gradient[0, 0, 0]
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
            assert batch.truncated[b] == free.truncated[b]
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
    assert np.array_equal(trimmed.truncated, dense.truncated)


def test_a_mixed_chunk_keeps_rows_live_at_any_centre(monkeypatch):
    # b = x^2 about y is y^2 + 2y dx + dx^2, so c_0's top row (dx^2 at
    # D = 2) is -y/2: zero at the first centre only.  The chunk keeps the
    # row for all; the first centre alone cuts it.  Both equal the dense
    # reference up to the sign of zero
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): PolyEntry(1, ((1.0, (2,)),))})
    ys = np.array([[0.0], [0.3], [-0.5]])
    for wp in MODES.values():
        batch = expand_batch(pc, ys, 3, wp, 2)
        top = batch.coeffs[0, 0, :, :, 2]
        assert not top[:, 0].any() and top[0, 1:].all()
        for b in range(len(ys)):
            alone = expand_batch(pc, ys[b:b + 1], 3, wp, 2)
            assert (batch.coeffs[..., b:b + 1, :] + 0.0).tobytes() \
                == (alone.coeffs + 0.0).tobytes()
            assert np.array_equal(batch.jet_order, alone.jet_order)
            assert batch.truncated[b] == alone.truncated[0]
        with monkeypatch.context() as m:
            m.setattr(recursion, "_BatchWorkspace", DenseWorkspace)
            dense = expand_batch(pc, ys, 3, wp, 2)
        assert (batch.coeffs + 0.0).tobytes() == (dense.coeffs + 0.0).tobytes()
        assert np.array_equal(batch.truncated, dense.truncated)


def test_cut_drops_only_rows_of_exact_zeros():
    ws = recursion._BatchWorkspace(ProblemCoefficients(2, 1, {}),
                                   np.zeros((3, 2)), None, 4)
    x = np.zeros((_rows(2, 3), 2, 3))       # degree 3, two time orders
    x[0] = 1.0
    x[_rows(2, 2) + 1, 1, 2] = 0.5          # one degree-3 entry, one centre
    assert ws.cut(x) is x
    x[_rows(2, 2) + 1, 1, 2] = 0.0
    x[4, 0, 1] = 2.0                        # a degree-2 entry, one centre
    cut = ws.cut(x)
    assert cut.shape == (_rows(2, 2), 2, 3)
    assert np.array_equal(cut, x[:_rows(2, 2)])
    # NaN and inf are never cut: they count as nonzero
    for bad in (np.nan, np.inf, -np.inf):
        y = np.zeros_like(x)
        y[-1, 0, 0] = bad
        assert ws.cut(y) is y
        y[-1, 0, 0] = 0.0
        y[1, 1, 2] = bad
        assert np.array_equal(ws.cut(y), y[:_rows(2, 1)], equal_nan=True)
    # all zeros: the zero jet, no rows, the time orders kept
    assert ws.cut(np.zeros_like(x)).shape == (0, 2, 3)
    assert ws.cut(x[:0]).shape == (0, 2, 3)


def test_zero_jets_keep_time_orders_and_flags():
    # a zero factor gives the zero jet and leaves the centres' flags alone
    ws = recursion._BatchWorkspace(ProblemCoefficients(1, 1, {}),
                                   np.zeros((2, 1)), None, 4)
    ws.truncated[0] = True
    zero = np.zeros((0, 2, 2))
    dense = np.full((_rows(1, 2), 3, 2), np.inf)
    assert ws.mul(zero, dense).shape == (0, 4, 2)
    assert ws.mul(dense, zero).shape == (0, 4, 2)
    assert ws.truncated.tolist() == [True, False]
    const = np.ones((1, 1, 2))
    assert ws.partial(const, 0).shape == (0, 1, 2)
    assert ws.partial(zero, 0).shape == (0, 2, 2)
    out = ws.add(const, zero)
    assert out.shape == (1, 2, 2) and np.array_equal(out[:, 0], const[:, 0])


def test_a_zero_product_needs_no_pair_plan(monkeypatch):
    # the zero jet returns before the product's pair plan is looked up,
    # with time orders La + Lb + 1, and marks no centre
    def no_plan(*args):
        raise AssertionError("pair plan looked up for a zero product")
    monkeypatch.setattr(recursion, "_pair_plan", no_plan)
    zero = np.zeros((0, 2, 2))                                  # La = 1
    dense = np.ones((_rows(1, 2), 3, 2))
    ws = recursion._BatchWorkspace(ProblemCoefficients(1, 1, {}),
                                   np.zeros((2, 1)), None, 4)
    for a, b, orders in ((zero, dense, 4), (dense, zero, 4), (zero, zero, 3)):
        assert ws.mul(a, b).shape == (0, orders, 2)
    assert not ws.truncated.any()


def test_zero_products_skip_the_column_kernel(monkeypatch):
    # on the benchmark-shaped system every gradient past c_0's is zero,
    # so 100 of the 112 jet products have a zero factor
    calls = []
    real = recursion._mul_cols
    monkeypatch.setattr(recursion, "_mul_cols",
                        lambda *a: calls.append(1) or real(*a))
    pc, K, D = CASES["const_system_2d"]
    batch = expand_batch(pc, [[0.1, -0.2]], K, MODES["tau"], D)
    assert len(calls) == 12
    # c_0 is linear, every later c_k constant in space
    live = np.flatnonzero(batch.coeffs.any(axis=(0, 1, 2, 3)))
    assert live.tolist() == [0, 1, 2]
    assert not batch.coeffs[:, 1:, :, :, 1:].any()


def test_gradient_square_forms_each_distinct_pair_once(monkeypatch):
    # one sin_drift.json expansion, as a Gauss-Hermite pass of the file's
    # solve builds it: order k forms ceil(k/2) gradient products and one
    # drift product, and c_0 one, so 12 + 6 + 1 = 19 (all k ordered
    # pairs would make 21 + 6 + 1 = 28)
    calls, centres = [], []
    real, real_expand = recursion._mul_cols, kernel.expand_batch
    monkeypatch.setattr(recursion, "_mul_cols",
                        lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(kernel, "expand_batch", lambda pc, ys, *a, **kw:
                        centres.append(len(ys)) or real_expand(pc, ys, *a,
                                                               **kw))
    pf = load_problem_file(SIN_DRIFT)
    assert (pf.order_K, pf.degree_D, pf.ps.horizon) == (6, 12, 0.25)
    fld = KernelField(pf.pc, WarpParams(), pf.order_K, pf.degree_D)
    solve_cauchy(pf.ps, fld, pf.quad, points=np.array([[0.0]]))
    assert centres == [28] and len(calls) == 19


def test_an_entry_cut_alone_marks_the_centres():
    # without a drift, a potential V t enters c_2 alone, so up to K = 3
    # every product has a zero factor and only V's own Taylor cut at
    # D = 4 can mark a centre
    ys = np.array([[0.1], [-0.4]])
    for V, cut in ((FourierEntry(1, ((0.2, (1.0,), 0.3),)), True),
                   (PolyEntry(1, ((0.3, (5,)),)), True),
                   (PolyEntry(1, ((0.3, (4,)),)), False)):
        pc = ProblemCoefficients(1, 1, {}, {0: TimeEntry(((1, V),))})
        for wp in MODES.values():
            batch = expand_batch(pc, ys, 3, wp, 4)
            assert batch.coeffs[0, 2].any()
            assert batch.truncated.tolist() == [cut, cut]


def test_degree_zero_rejects_a_drift():
    # c_0 = -1/2 b.(x - y) has degree 1, so a drift needs D >= 1
    pc = load_problem_file(SIN_DRIFT).pc
    with pytest.raises(ParameterError, match="degree_D = 0"):
        expand_batch(pc, [[0.1]], 2, WarpParams(), 0)
    with pytest.raises(ParameterError, match="degree_D = 0"):
        expand(pc, [0.1], 2, WarpParams(), 0)
    # without a drift, D = 0 holds the whole expansion
    pot = ProblemCoefficients(1, 1, {}, {0: PolyEntry(1, ((0.3, (0,)),))})
    for pc in (ProblemCoefficients(1, 1, {}), pot):
        batch = expand_batch(pc, [[0.1]], 2, WarpParams(), 0)
        assert batch.coeffs.shape[-1] == 1


def test_one_chunk_peaks_within_the_chunk_bound(monkeypatch):
    # a dense 1D problem with time-dependent drift and potential: its
    # Fourier entries fill every row, so each product takes the full pair
    # table, and its time terms give c_k up to k + 1 time orders
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
    assert np.array_equal(split.truncated, whole.truncated)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", [os.path.basename(p) for p in PROBLEMS])
def test_every_map_application_is_the_sparse_product(name, mode,
                                                     monkeypatch):
    # a product's scatter goes through one helper on scipy's private
    # kernels, in every mode: every result must be ``M @ x``
    # to the bit, signed zeros included, at one centre (the operator's
    # vector kernel) and at three (its matrix kernel)
    widths = []
    real = polyalg._csr_apply

    def checked(S, x):
        out = real(S, x)
        ref = S @ x
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        widths.append(x.shape[1])
        return out
    monkeypatch.setattr(polyalg, "_csr_apply", checked)
    pf = load_problem_file(CASES[name])
    wp, K, D = MODES[mode], pf.order_K, pf.degree_D
    expand(pf.pc, [0.1] * pf.pc.n, K, wp, D)
    ys = np.linspace(-0.2, 0.3, 3 * pf.pc.n).reshape(3, pf.pc.n)
    expand_batch(pf.pc, ys, K, wp, D, origins=[0.0, 0.05, 0.1])
    if name == "sin_drift.json":
        # the benchmark's file scatters its products; T time orders of B
        # centres are T * B columns
        assert 1 in widths and 3 in widths


@pytest.mark.parametrize("marked", [None, 0, 2])
@pytest.mark.parametrize("degrees", [(3, 4), (0, 4), (4, 0), (0, 0)])
def test_a_one_order_product_equals_the_gathered_one(degrees, marked):
    # with one time order each, the product takes its operands as they
    # are; it must give the bits and flags of the pair plan's gathered
    # path, on columns holding -0.0, inf and NaN; a centre ``marked``
    # truncated before the product stays marked
    D, B = 5, 12                # columns 6 to 11 hold plain values
    rng = np.random.default_rng(20261020)
    x, y = (rng.standard_normal((_rows(1, d), 1, B)) for d in degrees)
    for jet, col in ((x, 1), (y, 2), (x, 4)):
        jet[:, 0, col] = -0.0
    x[-1, 0, 3], y[0, 0, 3] = np.inf, -0.0
    x[0, 0, 4], y[-1, 0, 5] = np.nan, np.inf
    ws = recursion._BatchWorkspace(ProblemCoefficients(1, 1, {}),
                                   np.zeros((B, 1)), None, D)
    if marked is not None:
        ws.truncated[marked] = True
    ia, ib, ranks = recursion._pair_plan(0, 0)
    with np.errstate(invalid="ignore"):     # inf * 0
        got = ws.mul(x, y)
        xa, yb = x[:, ia], y[:, ib]
        ref = _mul_cols(xa, yb, 1, D)[:, :ranks[0][1]]
        flags = _overflow_cols(xa, yb, 1, D).any(axis=0) \
            if sum(degrees) > D else np.zeros(B, dtype=bool)
    if marked is not None:
        flags[marked] = True
    assert ranks == ((0, 1, 0),)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert np.array_equal(ws.truncated, flags)


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
    points = _tensor_grid([np.linspace(-R, R, recursion.SAMPLE_LATTICE)]
                          * pc.n)
    exps = index_table(pc.n, D)[0]
    worst = 0.0
    for y in points:
        ws = _Workspace(pc, y, WarpParams(), D)
        mono = np.prod((points - y)[:, None, :] ** exps[None], axis=2)
        for j in range(pc.components):
            c0 = compute_c0(pc, y, j, D, _ws=ws).terms[0].coeffs
            worst = max(worst, float(np.max(np.abs(mono @ c0))))
    c0_up = min(worst, pc.components ** 2 * R * pc.bound_C)
    assert [c.hex() for c in sampled] == [c0_up.hex()] * 2
    assert betas == [real(pc.n, pc.bound_C, c0_up)] * 2
