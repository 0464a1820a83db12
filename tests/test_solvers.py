import csv
import json
import math
import os

import numpy as np
import pytest

from parakern import kernel, solvers
from parakern.errors import (ConditioningError, ParameterError, ScalingError,
                             UnsupportedSpecError)
from parakern.funcspec import (CallableFunc, ExpTime, FourierEntry,
                               GaussianMix, GridSamples, PolyEntry,
                               SpacePolyFourier, TimeEntry, ZeroFunc)
from parakern.kernel import KernelField, eval_points
from parakern.oracle import FDConfig, fd_solve, fd_solve_burgers
from parakern.problemfile import load_problem_file
from parakern.recursion import (ProblemCoefficients, WarpParams, expand,
                                expand_batch)
from parakern.solvers import (BoundaryDensity, GridSolution, ProblemSpec,
                              QuadratureConfig, _double_sqrt_weights,
                              _gl_rule, burgers_demo, solve_cauchy,
                              solve_ibvp2)

from objalg import pair_log_value, shifted_origin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIN_DRIFT = FourierEntry(1, ((0.3, (1.0,), 0.0),))
PC_SIN = ProblemCoefficients(1, 1, {(0, 0, 0): SIN_DRIFT})
PC_ZERO = ProblemCoefficients(1, 1, {})
QUAD = QuadratureConfig(gh_order=40, gl_order=24, gl_panels=3)
COS_SPEC = FourierEntry(1, ((1.0, (1.0,), math.pi / 2),))


def gauss_phi():
    return GaussianMix(((1.0, 1.0, (0.0,)),))


# ---------------------------------------------------------------------------
# solve_cauchy
# ---------------------------------------------------------------------------

def test_cauchy_preserves_constants_under_drift():
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.2, PC_SIN,
                     phi=PolyEntry(1, ((1.0, (0,)),)))
    fld = KernelField(PC_SIN, WarpParams(), K=6, D=12)
    sol = solve_cauchy(ps, fld, QUAD, points=np.array([[-0.5], [0.0], [0.5]]))
    assert np.max(np.abs(sol.values - 1.0)) <= 1e-4


def test_cauchy_gaussian_closed_form():
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.25, PC_ZERO, phi=gauss_phi())
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    pts = np.linspace(-1, 1, 9)[:, None]
    sol = solve_cauchy(ps, fld, QUAD, points=pts)
    t = 0.25
    exact = (1 + 4 * t) ** -0.5 * np.exp(-pts[:, 0] ** 2 / (1 + 4 * t))
    assert np.max(np.abs(sol.values[0, :, 0] - exact)) <= 1e-8


def test_cauchy_constant_drift_translates():
    b0 = 0.7
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): PolyEntry(1, ((b0, (0,)),))})
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.3, pc, phi=gauss_phi())
    fld = KernelField(pc, WarpParams(), K=2)
    pts = np.linspace(-1, 1, 9)[:, None]
    sol = solve_cauchy(ps, fld, QUAD, points=pts)
    t = 0.3
    shifted = pts[:, 0] + b0 * t
    exact = (1 + 4 * t) ** -0.5 * np.exp(-shifted ** 2 / (1 + 4 * t))
    assert np.max(np.abs(sol.values[0, :, 0] - exact)) <= 1e-8


def test_cauchy_source_term_matches_duhamel():
    # b = 0, phi = 0, f(t, x) = exp(-x^2): u(t,x) = int_0^t heat(s)f ds
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.2, PC_ZERO,
                     phi=ZeroFunc(),
                     source=GaussianMix(((1.0, 1.0, (0.0,)),)))
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    pts = np.array([[0.0], [0.4]])
    sol = solve_cauchy(ps, fld, QUAD, points=pts)
    t = 0.2
    # reference by dense time quadrature of the closed-form propagator
    ss, ws = np.polynomial.legendre.leggauss(60)
    ss = 0.5 * t * (ss + 1.0)
    ws = 0.5 * t * ws
    for ip, x in enumerate(pts[:, 0]):
        ref = sum(w * (1 + 4 * (t - s)) ** -0.5
                  * math.exp(-x * x / (1 + 4 * (t - s)))
                  for s, w in zip(ss, ws))
        assert sol.values[0, ip, 0] == pytest.approx(ref, abs=1e-8)


def test_two_time_kernel_matches_characteristics_oracle():
    # time-dependent drift forces re-expansion about the source time s;
    # b = b0 + b1 t, with b1 also written as a Fourier part sin(0 x + pi/2)
    b0, b1 = 0.3, 0.5
    for part1 in (PolyEntry(1, ((b1, (0,)),)),
                  FourierEntry(1, ((b1, (0.0,), math.pi / 2),))):
        entry = TimeEntry(((0, PolyEntry(1, ((b0, (0,)),))), (1, part1)))
        pc = ProblemCoefficients(1, 1, {(0, 0, 0): entry})
        fld = KernelField(pc, WarpParams(), K=4)
        for s in (0.0, 0.1, 0.3):
            for t in (s + 0.05, s + 0.2, s + 0.5):
                for x, y in ((0.4, -0.1), (-0.2, 0.3)):
                    sig = t - s
                    shift = b0 * sig + b1 * (t * t - s * s) / 2
                    ref = math.exp(-((x - y) + shift) ** 2 / (4 * sig)) \
                        / math.sqrt(4 * math.pi * sig)
                    assert math.exp(pair_log_value(fld, t, s, [x], [y])) \
                        == pytest.approx(ref, rel=1e-12)


def test_cauchy_source_with_time_dependent_drift_vs_fd():
    entry = TimeEntry(((0, PolyEntry(1, ((0.3, (0,)),))),
                       (1, PolyEntry(1, ((0.5, (0,)),)))))
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): entry})
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.2, pc,
                     phi=gauss_phi(),
                     source=GaussianMix(((1.0, 2.0, (0.2,)),)))
    fld = KernelField(pc, WarpParams(), K=4)
    # probe points sit on the reference grid (multiples of 1/128)
    pts = np.array([[-0.5], [0.0], [0.5]])
    quad = QuadratureConfig(gh_order=20, gl_order=8, gl_panels=2)
    sol = solve_cauchy(ps, fld, quad, points=pts)

    ps_box = ProblemSpec("cauchy", (-8.0,), (8.0,), 0.2, pc,
                         phi=gauss_phi(),
                         source=GaussianMix(((1.0, 2.0, (0.2,)),)))
    ref = fd_solve(ps_box, FDConfig(h=1 / 128, dt=5e-4))
    idx = np.searchsorted(ref.points[:, 0], pts[:, 0])
    assert np.max(np.abs(sol.values[0, :, 0] - ref.values[-1][idx, 0])) <= 1e-4


def test_cauchy_linearity():
    phi1 = GaussianMix(((1.0, 1.0, (0.0,)),))
    phi2 = GaussianMix(((1.0, 2.0, (0.3,)),))
    combo = GaussianMix(((2.0, 1.0, (0.0,)), (-0.5, 2.0, (0.3,))))
    fld = KernelField(PC_SIN, WarpParams(), K=5, D=10)
    pts = np.array([[-0.3], [0.2]])
    sols = []
    for phi in (phi1, phi2, combo):
        ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.15, PC_SIN, phi=phi)
        sols.append(solve_cauchy(ps, fld, QUAD, points=pts).values)
    assert np.max(np.abs(2.0 * sols[0] - 0.5 * sols[1] - sols[2])) <= 1e-10


def test_cauchy_semigroup_through_grid_samples():
    fld = KernelField(PC_SIN, WarpParams(), K=6, D=12)
    t1 = t2 = 0.1
    quad = QuadratureConfig(gh_order=30)
    mid_grid = np.linspace(-6.0, 6.0, 97)
    ps1 = ProblemSpec("cauchy", (-6.0,), (6.0,), t1, PC_SIN, phi=gauss_phi())
    sol1 = solve_cauchy(ps1, fld, quad, points=mid_grid[:, None])
    resampled = GridSamples(tuple(mid_grid), tuple(sol1.values[0, :, 0]))
    ps2 = ProblemSpec("cauchy", (-6.0,), (6.0,), t2, PC_SIN, phi=resampled)
    final_pts = np.linspace(-1, 1, 9)[:, None]
    sol2 = solve_cauchy(ps2, fld, quad, points=final_pts)
    ps_direct = ProblemSpec("cauchy", (-6.0,), (6.0,), t1 + t2, PC_SIN,
                            phi=gauss_phi())
    direct = solve_cauchy(ps_direct, fld, quad, points=final_pts)
    assert np.max(np.abs(sol2.values - direct.values)) <= 5e-3


def test_cauchy_rejects_vector_initial_data():
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.1, PC_ZERO, phi=gauss_phi())
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    object.__setattr__(ps, "phi", [gauss_phi(), gauss_phi()])
    with pytest.raises(UnsupportedSpecError):
        solve_cauchy(ps, fld, QUAD, points=np.array([[0.0]]))


class CountedGaussian(GaussianMix):
    """A GaussianMix that records the shape of every ``eval`` call."""

    def eval(self, t, x):
        self.calls.append(np.shape(x))
        return super().eval(t, x)


def counted_gaussian(*terms):
    spec = CountedGaussian(terms)
    object.__setattr__(spec, "calls", [])
    return spec


def _counted_source_solve(fld):
    """The 3-point, 2-time sin-drift solve with a source, GH 12 and GL 4;
    returns its counted phi and source."""
    phi = counted_gaussian((1.0, 1.0, (0.0,)))
    source = counted_gaussian((0.5, 2.0, (0.3,)))
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.2, PC_SIN, phi=phi,
                     source=source)
    quad = QuadratureConfig(gh_order=12, gl_order=4, gl_panels=1)
    pts = np.array([[-0.5], [0.0], [0.5]])
    solve_cauchy(ps, fld, quad, points=pts, sample_times=[0.1, 0.2])
    return phi, source


def test_cauchy_evaluates_data_once_per_solve():
    # one call for all 2 * 3 passes of phi and one for all 2 * 3 * 4 of
    # the source (it was one per pass), each on the array of the kept
    # nodes; nodes past the trust radius are dropped first
    phi, source = _counted_source_solve(KernelField(PC_SIN, WarpParams(), K=2))
    assert len(phi.calls) == 1 and len(source.calls) == 1
    (nphi, dim), (nsource, sdim) = phi.calls[0], source.calls[0]
    assert dim == sdim == 1
    assert 2 * 3 < nphi <= 2 * 3 * 12
    assert 2 * 3 * 4 < nsource <= 2 * 3 * 4 * 12


def test_cauchy_source_solve_expands_once_per_chunk_of_centres(monkeypatch):
    # every kept node of the solve is one centre; they are expanded in
    # batches of at most _BATCH_CENTRES, not one batch per pass: the
    # 2 sample times * 3 points * (1 + 4 GL nodes) passes made 30 calls
    sizes = []

    def recording(pc, ys, *args):
        sizes.append(len(ys))
        return expand_batch(pc, ys, *args)

    monkeypatch.setattr(kernel, "expand_batch", recording)
    phi, source = _counted_source_solve(KernelField(PC_SIN, WarpParams(), K=2))
    nodes = phi.calls[0][0] + source.calls[0][0]
    assert sum(sizes) == nodes
    assert len(sizes) == -(-nodes // kernel._BATCH_CENTRES) < 2 * 3 * 5
    assert max(sizes) <= kernel._BATCH_CENTRES


PC_TIME = ProblemCoefficients(1, 1, {(0, 0, 0): TimeEntry((
    (0, PolyEntry(1, ((0.3, (0,)),))), (1, PolyEntry(1, ((0.5, (0,)),)))))})


@pytest.mark.parametrize("mode", ["plain", "beta", "tau"])
@pytest.mark.parametrize("with_source", [False, True])
@pytest.mark.parametrize("pc", [PC_SIN, PC_TIME], ids=["sin", "time"])
def test_cauchy_points_equal_one_point_solves(mode, with_source, pc):
    # the passes of all points are rows of one call; each point's values
    # are those of a solve at that point alone, bit for bit
    wp = WarpParams() if mode == "plain" else WarpParams(mode=mode, beta=0.5)
    source = GaussianMix(((0.5, 2.0, (0.3,)),)) if with_source else ZeroFunc()
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.2, pc, phi=gauss_phi(),
                     source=source)
    fld = KernelField(pc, wp, K=3, D=8)
    quad = QuadratureConfig(gh_order=12, gl_order=4, gl_panels=2)
    pts = np.array([[-0.7], [0.0], [0.25], [0.9]])
    whole = solve_cauchy(ps, fld, quad, points=pts, sample_times=[0.1, 0.2])
    for p in range(len(pts)):
        one = solve_cauchy(ps, fld, quad, points=pts[p:p + 1],
                           sample_times=[0.1, 0.2])
        assert one.values.tobytes() == whole.values[:, p:p + 1].tobytes()


# ---------------------------------------------------------------------------
# solve_ibvp2
# ---------------------------------------------------------------------------

def make_ibvp(phi, alpha, psi, source=None, T=1.0):
    return ProblemSpec("ibvp2", (0.0,), (1.0,), T, PC_ZERO, phi=phi,
                       alpha=alpha, psi=psi, source=source or ZeroFunc())


def test_ibvp2_trivial_zero():
    ps = make_ibvp(ZeroFunc(), ZeroFunc(), ZeroFunc(), T=0.5)
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    sol, dens = solve_ibvp2(ps, fld, steps=16, quad=QUAD,
                            points=np.array([[0.3], [0.7]]))
    assert np.max(np.abs(sol.values)) <= 1e-14
    assert np.max(np.abs(dens.values)) <= 1e-14


def test_ibvp2_long_horizon_is_not_singular():
    # the march matrix is about 0.5 I / sqrt(t_m): tiny at t_m = 5e9 but
    # perfectly conditioned, so the singularity test must be scale-free
    ps = make_ibvp(ZeroFunc(), ZeroFunc(), ZeroFunc(), T=1e10)
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    sol, dens = solve_ibvp2(ps, fld, steps=2, quad=QUAD)
    assert np.max(np.abs(sol.values)) == 0.0
    assert np.max(np.abs(dens.values)) == 0.0


def test_ibvp2_singular_step_raises():
    # at the first step A_ee = 0.5/sqrt(t_1) + sqrt(pi) alpha / 2 and the
    # off-diagonal coupling is ~1e-20, so this alpha makes A vanish
    t1 = 0.01
    alpha = PolyEntry(1, ((-1.0 / math.sqrt(math.pi * t1), (0,)),))
    ps = make_ibvp(ZeroFunc(), alpha, PolyEntry(1, ((1.0, (0,)),)), T=2 * t1)
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    with pytest.raises(ConditioningError, match="singular marching step"):
        solve_ibvp2(ps, fld, steps=2, quad=QUAD)


MANUFACTURED = [
    # u* = e^{-t} cos x, alpha = 1, f = 0
    dict(phi=COS_SPEC,
         alpha=PolyEntry(1, ((1.0, (0,)),)),
         psi=ExpTime(-1.0, SpacePolyFourier((
             (1.0, (0,), (1.0,), math.pi / 2),
             (-1.0, (1,), (1.0,), 0.0)))),
         source=None,
         exact=lambda t, x: math.exp(-t) * math.cos(x)),
    # u* = e^{-t} sin(x + 0.3), alpha = 1, f = 0
    dict(phi=FourierEntry(1, ((1.0, (1.0,), 0.3),)),
         alpha=PolyEntry(1, ((1.0, (0,)),)),
         psi=ExpTime(-1.0, SpacePolyFourier((
             (2.0, (1,), (1.0,), 0.3 + math.pi / 2),
             (-1.0, (0,), (1.0,), 0.3 + math.pi / 2),
             (1.0, (0,), (1.0,), 0.3)))),
         source=None,
         exact=lambda t, x: math.exp(-t) * math.sin(x + 0.3)),
    # u* = (1 + t)(1 + x^2/2), alpha = 1, f = x^2/2 - t
    dict(phi=PolyEntry(1, ((1.0, (0,)), (0.5, (2,)))),
         alpha=PolyEntry(1, ((1.0, (0,)),)),
         psi=TimeEntry((
             (0, PolyEntry(1, ((2.5, (2,)), (-1.0, (1,)), (1.0, (0,))))),
             (1, PolyEntry(1, ((2.5, (2,)), (-1.0, (1,)), (1.0, (0,))))))),
         source=TimeEntry((
             (0, PolyEntry(1, ((0.5, (2,)),))),
             (1, PolyEntry(1, ((-1.0, (0,)),))))),
         exact=lambda t, x: (1 + t) * (1 + x * x / 2)),
]


@pytest.mark.parametrize("member", range(3))
def test_ibvp2_manufactured_family(member):
    rec = MANUFACTURED[member]
    ps = make_ibvp(rec["phi"], rec["alpha"], rec["psi"], rec["source"], T=0.5)
    fld = KernelField(PC_ZERO, WarpParams(), K=2)
    xs = np.linspace(0, 1, 9)[1:-1][:, None]
    sol, dens = solve_ibvp2(ps, fld, steps=32, quad=QUAD, points=xs,
                            sample_times=[0.5])
    exact = np.array([rec["exact"](0.5, x) for x in xs[:, 0]])
    assert np.max(np.abs(sol.values[0, :, 0] - exact)) <= 3e-2
    assert np.all(np.isfinite(dens.values))


def test_ibvp2_rejects_sample_times_outside_the_horizon():
    # the density is marched only to the horizon: later times used to
    # return a silently wrong value, t <= 0 has no kernel value at all
    rec = MANUFACTURED[0]
    ps = make_ibvp(rec["phi"], rec["alpha"], rec["psi"], T=0.5)
    fld = KernelField(PC_ZERO, WarpParams(), K=2)
    pts = np.array([[0.5]])
    for bad in ([0.7], [0.25, 0.5000001], [0.0], [-0.1, 0.5]):
        with pytest.raises(ParameterError, match="sample times"):
            solve_ibvp2(ps, fld, steps=8, quad=QUAD, points=pts,
                        sample_times=bad)
    sol, _ = solve_ibvp2(ps, fld, steps=8, quad=QUAD, points=pts,
                         sample_times=[0.0625, 0.5])
    assert np.all(np.isfinite(sol.values))


def _fd_errors(ps, fld):
    """Max error at x = 1/4, 1/2, 3/4 after 16 and 32 steps, against the
    Crank-Nicolson oracle on the same interval with the same Robin data."""
    xs = np.array([[0.25], [0.5], [0.75]])
    ref = fd_solve(ps, FDConfig(h=1 / 128, dt=1 / 1024))
    idx = np.searchsorted(ref.points[:, 0], xs[:, 0])
    assert np.allclose(ref.points[idx, 0], xs[:, 0], rtol=0, atol=1e-12)
    errs = []
    for steps in (16, 32):
        sol, dens = solve_ibvp2(ps, fld, steps=steps,
                                quad=QuadratureConfig(gl_order=8),
                                points=xs)
        assert np.all(np.isfinite(dens.values))
        errs.append(float(np.max(np.abs(sol.values[0, :, 0]
                                        - ref.values[-1][idx, 0]))))
    return errs


def test_ibvp2_constant_drift_converges_to_fd():
    # the first Robin solve through the drift kernel path: b = 0.5 with
    # the data of MANUFACTURED[0]
    rec = MANUFACTURED[0]
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): PolyEntry(1, ((0.5, (0,)),))})
    ps = ProblemSpec("ibvp2", (0.0,), (1.0,), 0.5, pc, phi=rec["phi"],
                     alpha=rec["alpha"], psi=rec["psi"])
    errs = _fd_errors(ps, KernelField(pc, WarpParams(), K=4))
    assert errs[0] <= 2.5e-2
    assert errs[1] / errs[0] <= 0.7


def test_ibvp2_time_drift_file_converges_to_fd():
    # a time-dependent drift whose parts mix poly (0.3) and fourier
    # (0.2 sin x, times t), with a source; the constant-drift bounds
    pf = load_problem_file(os.path.join(ROOT, "problems",
                                        "time_drift_ibvp2.json"))
    assert pf.pc.time_dependent
    errs = _fd_errors(pf.ps, KernelField(pf.pc, pf.warp, pf.order_K,
                                         pf.degree_D))
    assert errs[0] <= 2.5e-2
    assert errs[1] / errs[0] <= 0.7


# ---------------------------------------------------------------------------
# the per-scalar march, kept as the reference for the array march
# ---------------------------------------------------------------------------

class _ScalarMarch:
    """The Robin march one kernel value at a time.

    Each value is a scalar log p(t, x; s, y) or d/dx log p from a
    single-center ``expand`` about y (re-anchored at s for
    time-dependent coefficients, memoized per center and origin) read by
    ``eval_points``' correction and log-gradient; the Gaussian is
    closed form for a trivial field.  Quadratures, loops and summation
    order are those of the march before it moved onto arrays.
    """

    def __init__(self, ps, fld, quad):
        self.ps, self.fld, self.quad = ps, fld, quad
        self.a, self.b = ps.domain_lo[0], ps.domain_hi[0]
        self.ends = np.array([self.a, self.b])
        self.normals = np.array([-1.0, 1.0])
        self.has_source = not isinstance(ps.source, ZeroFunc)
        self.exps = {}

    def _expansion(self, y, s):
        fld = self.fld
        origin = s if fld.pc.time_dependent else 0.0
        key = (float(y[0]), origin)
        if key not in self.exps:
            self.exps[key] = expand(shifted_origin(fld.pc, origin), y, fld.K,
                                    fld.warp, fld.D)
        return self.exps[key]

    def _read(self, t, s, x, y):
        """The correction and grad_x log p of the expansion about y."""
        kp = eval_points(self._expansion(y, s),
                         self.fld.warp.mode_time(t - s), [x])
        return kp.correction[0, 0], kp.log_gradient[0, 0]

    def log_value(self, t, s, x, y):
        sigma = t - s
        dx = x - y
        log_g = -0.5 * math.log(4.0 * math.pi * sigma) \
            - float(np.dot(dx, dx)) / (4.0 * sigma)
        if self.fld._trivial:
            return log_g
        return log_g + self._read(t, s, x, y)[0]

    def log_gradient(self, t, s, x, y):
        if self.fld._trivial:
            return -(x - y) / (2.0 * (t - s))
        return self._read(t, s, x, y)[1]

    def kernel_k(self, t, e, s, eprime):
        xe = np.array([self.ends[e]])
        ye = np.array([self.ends[eprime]])
        p = math.exp(self.log_value(t, s, xe, ye))
        lg = self.log_gradient(t, s, xe, ye)
        return self.normals[e] * lg[0] * p + self.ps.alpha.eval(t, xe) * p

    def layer_value(self, t, x, s, eprime):
        return math.exp(self.log_value(t, s, x,
                                       np.array([self.ends[eprime]])))

    def domain_term(self, t, x, with_nu):
        quad = self.quad
        ys, ws = _gl_rule(self.a, self.b, quad.gl_order,
                          max(quad.gl_panels, 8))

        def kernel_factor(t_, s_, y):
            p = math.exp(self.log_value(t_, s_, x, np.array([y])))
            if with_nu is None:
                return p
            lg = self.log_gradient(t_, s_, x, np.array([y]))
            return self.normals[with_nu] * lg[0] * p

        total = 0.0
        for y, w in zip(ys, ws):
            fv = self.ps.phi.eval(0.0, np.array([y]))
            if fv != 0.0:
                total += w * kernel_factor(t, 0.0, y) * fv
        if self.has_source:
            yg, wg = _gl_rule(self.a, self.b, quad.gl_order, 4)
            rs, rw = _gl_rule(0.0, math.sqrt(t), max(8, quad.gl_order // 2), 1)
            for r, wr in zip(rs, rw):
                s = t - r * r
                inner = 0.0
                for y, w in zip(yg, wg):
                    fv = self.ps.source.eval(s, np.array([y]))
                    if fv != 0.0:
                        inner += w * kernel_factor(t, s, y) * fv
                total += 2.0 * r * wr * inner
        return total

    def forcing(self, t, e):
        xe = np.array([self.ends[e]])
        alpha = self.ps.alpha.eval(t, xe)
        val = self.domain_term(t, xe, None)
        dnu = self.domain_term(t, xe, e)
        return self.ps.psi.eval(t, xe) - dnu - alpha * val

    def solve(self, steps, points, sample_times):
        T = self.ps.horizon
        edges = np.linspace(0.0, T, steps + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        gvals = np.zeros((steps, 2))
        for mstep in range(1, steps + 1):
            t_m = edges[mstep]
            wts = _double_sqrt_weights(t_m, edges[:mstep + 1])
            rhs = np.array([self.forcing(t_m, e) for e in range(2)])
            for i in range(mstep - 1):
                for e in range(2):
                    for ep in range(2):
                        kappa = self.kernel_k(t_m, e, mids[i], ep) * \
                            math.sqrt(t_m - mids[i])
                        rhs[e] -= wts[i] * kappa * gvals[i, ep]
            A = 0.5 * np.eye(2) / math.sqrt(t_m)
            for e in range(2):
                for ep in range(2):
                    kappa = self.kernel_k(t_m, e, mids[mstep - 1], ep) * \
                        math.sqrt(t_m - mids[mstep - 1])
                    A[e, ep] += wts[mstep - 1] * kappa
            gvals[mstep - 1] = np.linalg.solve(A, rhs)
        if points is None:
            points = np.linspace(self.a, self.b, 23)[1:-1, None]
        times = sorted(sample_times or [T])
        nsub = 4
        values = np.zeros((len(times), len(points), 1))
        for it, t in enumerate(times):
            mlast = max(1, min(steps, int(round(t / (T / steps)))))
            for ip, x in enumerate(points):
                u = self.domain_term(t, x, None)
                for i in range(mlast):
                    subs = np.linspace(edges[i], edges[i + 1], nsub + 1)
                    wts = _double_sqrt_weights(t, subs)
                    smids = 0.5 * (subs[:-1] + subs[1:])
                    for sm, wi in zip(smids, wts):
                        sm = min(sm, t - 1e-13)
                        for ep in range(2):
                            rho = self.layer_value(t, x, sm, ep) * \
                                math.sqrt(t - sm)
                            u += wi * rho * gvals[i, ep]
                values[it, ip, 0] = u
        return values, gvals / np.sqrt(mids)[:, None]


def _drift_spec(member, pc):
    rec = MANUFACTURED[member]
    return ProblemSpec("ibvp2", (0.0,), (1.0,), 0.5, pc, phi=rec["phi"],
                       alpha=rec["alpha"], psi=rec["psi"],
                       source=rec["source"] or ZeroFunc())


CONST_DRIFT = ProblemCoefficients(1, 1, {(0, 0, 0): PolyEntry(1, ((0.5, (0,)),))})
TIME_DRIFT = ProblemCoefficients(1, 1, {(0, 0, 0): TimeEntry((
    (0, PolyEntry(1, ((0.3, (0,)),))), (1, PolyEntry(1, ((0.5, (0,)),)))))})
PIN_POINTS = np.array([[0.1], [0.5], [0.85]])
COARSE = QuadratureConfig(gl_order=8, gl_panels=2)


def _pin_case(name):
    """(problem, field, steps, quadrature, points, sample times)."""
    if name == "manufactured_ibvp2.json":
        pf = load_problem_file(os.path.join(ROOT, "problems", name))
        return (pf.ps, KernelField(pf.pc, pf.warp, pf.order_K, pf.degree_D),
                64, pf.quad, None, None)
    if name.startswith("member"):
        member = int(name[-1])
        return (_drift_spec(member, PC_ZERO),
                KernelField(PC_ZERO, WarpParams(), K=2), 16, QUAD,
                PIN_POINTS, None)
    if name == "on_grid_times":
        return (_drift_spec(0, PC_ZERO), KernelField(PC_ZERO, WarpParams(), K=2),
                16, QUAD, PIN_POINTS, [0.5, 0.125])
    if name == "alpha_in_time_and_space":
        # alpha = 1 + x + t differs between the ends and the steps
        alpha = TimeEntry(((0, PolyEntry(1, ((1.0, (0,)), (1.0, (1,))))),
                              (1, PolyEntry(1, ((1.0, (0,)),)))))
        rec = MANUFACTURED[1]
        ps = ProblemSpec("ibvp2", (0.0,), (1.0,), 0.5, CONST_DRIFT,
                         phi=rec["phi"], alpha=alpha, psi=rec["psi"])
        return (ps, KernelField(CONST_DRIFT, WarpParams(), K=4), 8, COARSE,
                PIN_POINTS, None)
    pc = {"const_drift": CONST_DRIFT, "time_drift": TIME_DRIFT,
          "time_drift_source": TIME_DRIFT}[name]
    member = 2 if name.endswith("source") else 0
    steps = 4 if name.endswith("source") else 8
    return (_drift_spec(member, pc), KernelField(pc, WarpParams(), K=4),
            steps, COARSE, PIN_POINTS, [0.25, 0.5])


PIN_CASES = ["manufactured_ibvp2.json", "member0", "member1", "member2",
             "const_drift", "time_drift", "time_drift_source", "on_grid_times",
             "alpha_in_time_and_space"]


@pytest.mark.parametrize("name", PIN_CASES)
def test_ibvp2_array_march_matches_per_scalar_reference(name):
    ps, fld, steps, quad, pts, times = _pin_case(name)
    sol, dens = solve_ibvp2(ps, fld, steps=steps, quad=quad, points=pts,
                            sample_times=times)
    values, density = _ScalarMarch(ps, fld, quad).solve(steps, pts, times)
    for new, ref in ((sol.values, values), (dens.values, density)):
        assert new.shape == ref.shape
        assert np.all(np.abs(new - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def _time_drift_source_solve(source):
    """The 32-step Robin solve with drift 0.3 + 0.5 t and ``source``."""
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): TimeEntry((
        (0, PolyEntry(1, ((0.3, (0,)),))), (1, PolyEntry(1, ((0.5, (0,)),)))))})
    ps = ProblemSpec("ibvp2", (0.0,), (1.0,), 0.5, pc, phi=COS_SPEC,
                     source=source, alpha=PolyEntry(1, ((1.0, (0,)),)))
    fld = KernelField(pc, WarpParams(), K=4)
    solve_ibvp2(ps, fld, steps=32, quad=QUAD,
                points=np.array([[0.25], [0.5], [0.75]]))


def test_ibvp2_time_dependent_source_evaluated_once_per_kernel_pass():
    # the source is sampled at every (time, r node, spatial node) of the
    # solve's one kernel pass in one call: the 32 step times and the
    # sample time T together
    source = counted_gaussian((1.0, 2.0, (0.5,)))
    _time_drift_source_solve(source)
    assert source.calls == [(QUAD.gl_order * 4, 1)]


def test_ibvp2_time_dependent_expansions_built_once_per_solve(monkeypatch):
    # every (origin, centre) row handed to expand_batch over the whole
    # solve: forcing, jump kernel, domain term and layer at the sample time
    built = []

    def recording(pc, ys, K, wp, D, origins=0.0):
        built.extend(zip(np.broadcast_to(origins, len(ys)).tolist(),
                         np.asarray(ys)[:, 0].tolist()))
        return expand_batch(pc, ys, K, wp, D, origins)

    monkeypatch.setattr(kernel, "expand_batch", recording)
    _time_drift_source_solve(GaussianMix(((1.0, 2.0, (0.5,)),)))
    assert len(built) > 10_000
    assert len(set(built)) == len(built)


def test_ibvp2_value_only_rows_skip_the_gradient(monkeypatch):
    # the forcing rows (value and x-derivative at the endpoints) and the
    # jump kernel need d/dx log p; the domain term at the sample time and
    # the layer rows do not, and never reach the gradient tables
    rows = {True: 0, False: 0}

    def recording(coeffs, dx, D, time, t_eff=None, *args, **kwargs):
        rows[t_eff is not None] += len(dx)
        return log_terms(coeffs, dx, D, time, t_eff, *args, **kwargs)

    log_terms = kernel._log_terms
    monkeypatch.setattr(kernel, "_log_terms", recording)
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): PolyEntry(1, ((0.5, (0,)),))})
    ps = ProblemSpec("ibvp2", (0.0,), (1.0,), 0.5, pc, phi=COS_SPEC,
                     alpha=PolyEntry(1, ((1.0, (0,)),)))
    fld = KernelField(pc, WarpParams(), K=2)
    steps, pts = 16, np.array([[0.25], [0.5], [0.75]])
    solve_ibvp2(ps, fld, steps=steps, quad=QUAD, points=pts)
    nodes = np.count_nonzero(
        COS_SPEC.eval(0.0, _gl_rule(0.0, 1.0, QUAD.gl_order, 8)[0][:, None]))
    # forcing: (step, endpoint, node); jump: one (lag, endpoint, endpoint')
    assert rows[True] == steps * 2 * nodes + steps * 2 * 2
    # domain term: (point, node); layer: (point, interval, endpoint, sub)
    assert rows[False] == len(pts) * nodes + len(pts) * steps * 2 * 4


def test_ibvp2_sums_rows_past_the_trust_radius():
    # the trust radius drops Gauss-Hermite tail nodes only: the Robin
    # solve's domain, jump-kernel and layer rows are not Gaussian tails,
    # so a radius below the domain's width must not drop the coupling
    # between the endpoints; the solve equals one with no radius at all
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): FourierEntry(
        1, ((0.3, (5.0,), 0.0),))})
    ps = ProblemSpec("ibvp2", (0.0,), (1.0,), 0.5, pc, phi=COS_SPEC,
                     alpha=PolyEntry(1, ((1.0, (0,)),)))
    fld, unbounded = (KernelField(pc, WarpParams(), K=2) for _ in range(2))
    unbounded.trust_radius = math.inf
    assert fld.trust_radius < 0.6
    pts = np.array([[0.05], [0.5], [0.95]])
    quad = QuadratureConfig(gh_order=40, gl_order=8, gl_panels=1)
    sol, dens = solve_ibvp2(ps, fld, steps=16, quad=quad, points=pts)
    ref_sol, ref_dens = solve_ibvp2(ps, unbounded, steps=16, quad=quad,
                                    points=pts)
    assert sol.values.tobytes() == ref_sol.values.tobytes()
    assert dens.values.tobytes() == ref_dens.values.tobytes()
    assert np.all(np.isfinite(sol.values)) and np.all(dens.values != 0.0)


def test_ibvp2_march_makes_no_per_step_linear_solve(monkeypatch):
    # the step matrices are inverted in one batch before the march, so a
    # solve per step would fail here; every pinned case still marches
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called by the march")

    for name in PIN_CASES:
        ps, fld, steps, quad, pts, times = _pin_case(name)
        with monkeypatch.context() as patch:
            patch.setattr(solvers.np.linalg, "solve", refuse)
            sol, dens = solve_ibvp2(ps, fld, steps=steps, quad=quad,
                                    points=pts, sample_times=times)
        assert np.all(np.isfinite(sol.values))
        assert np.all(np.isfinite(dens.values))


def test_ibvp2_rejects_higher_dimensions():
    pc2 = ProblemCoefficients(2, 1, {})
    with pytest.raises(UnsupportedSpecError):
        ProblemSpec("ibvp2", (0.0, 0.0), (1.0, 1.0), 0.5, pc2)


# ---------------------------------------------------------------------------
# burgers_demo
# ---------------------------------------------------------------------------

def test_burgers_zero_velocity():
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=0.1,
                     phi0=ZeroFunc())
    sol = burgers_demo(ps, K=2, points=np.array([[0.3]]), sample_times=[0.5])
    assert np.max(np.abs(sol.values)) <= 1e-14


def test_burgers_selfsimilar_solution():
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=0.1,
                     phi0=PolyEntry(1, ((-0.5, (2,)),)))
    pts = np.linspace(-1, 1, 21)[:, None]
    sol = burgers_demo(ps, K=2, points=pts, sample_times=[0.1, 0.3, 0.5])
    worst = 0.0
    for it, t in enumerate(sol.times):
        worst = max(worst, np.max(np.abs(sol.values[it, :, 0]
                                         - pts[:, 0] / (1 + t))))
    assert worst <= 1e-3


def test_selfsimilar_reference_satisfies_burgers():
    # v = x/(1+t): v_t + v v_x - nu v_xx = -x/(1+t)^2 + x/(1+t)^2 = 0
    for t, x in ((0.1, 0.5), (0.4, -0.8)):
        vt = -x / (1 + t) ** 2
        vvx = (x / (1 + t)) * (1 / (1 + t))
        assert vt + vvx == pytest.approx(0.0, abs=1e-15)


def test_burgers_against_fd_reference():
    nu = 0.1
    # Phi0 = 0.075 exp(-x^2): small-amplitude v0 = 0.15 x exp(-x^2)
    phi0 = GaussianMix(((0.075, 1.0, (0.0,)),))
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.3, PC_ZERO, nu=nu,
                     phi0=phi0)
    pts = np.linspace(-1, 1, 11)[:, None]
    sol = burgers_demo(ps, K=2, points=pts, sample_times=[0.3])

    def v0(x):
        return 0.15 * x * math.exp(-x * x)

    cfg = FDConfig(h=1 / 50, dt=1.5e-4, scheme="explicit")
    _, grid, vals = fd_solve_burgers(-4.0, 4.0, 0.3, cfg, v0, nu)
    ref = np.interp(pts[:, 0], grid, vals[-1])
    assert np.max(np.abs(sol.values[0, :, 0] - ref)) <= 1e-2


def test_burgers_2d_velocity_stays_potential():
    # anisotropic quadratic potential; the recovered field must be curl-free
    nu = 0.2
    pc2 = ProblemCoefficients(2, 1, {})

    def phi0_fn(t, x):
        return -(0.15 * x[0] ** 2 + 0.25 * x[1] ** 2 + 0.1 * x[0] * x[1])

    ps = ProblemSpec("burgers", (-1.0, -1.0), (1.0, 1.0), 0.2, pc2, nu=nu,
                     phi0=CallableFunc(phi0_fn))
    h = 1e-3
    base = np.array([0.3, -0.2])
    stencil = np.array([base + [h, 0], base - [h, 0],
                        base + [0, h], base - [0, h]])
    sol = burgers_demo(ps, K=2, quad=QuadratureConfig(gh_order=30),
                       points=stencil, sample_times=[0.2])
    v = sol.values[0]
    curl = (v[0, 1] - v[1, 1]) / (2 * h) - (v[2, 0] - v[3, 0]) / (2 * h)
    scale = np.max(np.abs(v))
    assert abs(curl) / scale <= 1e-6


@pytest.mark.parametrize("coefficients", [
    ProblemCoefficients(1, 1, {(0, 0, 0): PolyEntry(1, ((5.0, (0,)),))}),
    ProblemCoefficients(1, 1, {}, {0: PolyEntry(1, ((3.0, (0,)),))}),
], ids=["drift", "potential"])
def test_burgers_rejects_drift_and_potential(coefficients):
    # the substitution turns only the forcing into a potential; a drift or
    # potential of the problem itself would be dropped without a trace
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, coefficients, nu=0.1,
                     phi0=PolyEntry(1, ((-0.5, (2,)),)))
    with pytest.raises(UnsupportedSpecError,
                       match="burgers takes no drift or potential"):
        burgers_demo(ps, K=2, points=np.array([[0.3]]))


def test_burgers_kernel_takes_warp_and_degree():
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=0.1,
                     phi0=PolyEntry(1, ((-0.5, (2,)),)),
                     source=PolyEntry(1, ((0.2, (2,)),)))
    pts = np.array([[-0.4], [0.3]])
    base = burgers_demo(ps, K=2, points=pts).values
    same = burgers_demo(ps, K=2, points=pts, warp=WarpParams(),
                        D=6).values
    assert base.tobytes() == same.tobytes()
    for kw in ({"D": 1}, {"warp": WarpParams(mode="tau", beta=0.5)}):
        assert not np.array_equal(
            burgers_demo(ps, K=2, points=pts, **kw).values, base)


def test_solve_cauchy_rejects_a_burgers_spec():
    # it would integrate the forcing as a heat source and ignore phi0 and nu
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=0.1,
                     phi0=PolyEntry(1, ((-0.5, (2,)),)),
                     source=PolyEntry(1, ((0.2, (0,)),)))
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    with pytest.raises(ParameterError, match="expects a cauchy problem"):
        solve_cauchy(ps, fld, QUAD, points=np.array([[0.0]]))


def test_burgers_underflow_raises_scaling_error():
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=1e-4,
                     phi0=PolyEntry(1, ((-5.0, (2,)),)))
    with pytest.raises(ScalingError, match="subtract"):
        burgers_demo(ps, K=2, points=np.array([[0.9]]))


@pytest.mark.parametrize("phi0, shift", [
    # 400 - x^2: psi0 = exp(2000) already at the lattice point
    (PolyEntry(1, ((400.0, (0,)), (-1.0, (2,)))), "400"),
    # 70 x^2: psi0 = exp(31.5) at x = 0.3, but past exp(709) at the far
    # Gauss-Hermite nodes y = x + 2 sqrt(nu t) z
    (PolyEntry(1, ((70.0, (2,)),)), None),
])
def test_burgers_overflow_raises_scaling_error(phi0, shift):
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=0.1,
                     phi0=phi0)
    with pytest.raises(ScalingError,
                       match=f"psi0 overflows.*subtract about {shift or ''}"):
        burgers_demo(ps, K=2, points=np.array([[0.3]]))


@pytest.mark.parametrize("source", [
    FourierEntry(1, ((0.1, (1.0,), 0.0),)),
    SpacePolyFourier(((0.1, (1,), (1.0,), 0.0),)),
    GaussianMix(((0.1, 1.0, (0.0,)),)),
], ids=["fourier", "polyfourier", "gaussian_mix"])
def test_burgers_rejects_non_polynomial_forcing(source):
    # each has terms, but not the (coefficient, exponents) pairs of a
    # polynomial potential
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=0.1,
                     phi0=PolyEntry(1, ((-0.5, (2,)),)), source=source)
    with pytest.raises(UnsupportedSpecError,
                       match="burgers forcing must be a spatial polynomial"):
        burgers_demo(ps, K=2, points=np.array([[0.3]]))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_grid_solution_csv_roundtrip(tmp_path):
    sol = GridSolution(np.array([0.1]), np.array([[0.0], [1.0]]),
                       np.array([[[1.5], [2.5]]]))
    path = tmp_path / "sol.csv"
    sol.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,component,value"
    assert lines[1].split(",") == ["0.1", "0.0", "0", "1.5"]


class _WriterReference:
    """The emitters the one-write ``to_csv`` and ``to_json`` methods
    replaced (``csv.writer`` row by row, a streamed ``json.dump``), kept
    as their byte-level reference."""

    @staticmethod
    def grid(sol, path):
        n = sol.points.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i + 1}" for i in range(n)]
                            + ["component", "value"])
            for it, t in enumerate(sol.times):
                for ip, p in enumerate(sol.points):
                    for c in range(sol.values.shape[2]):
                        writer.writerow([repr(float(t))]
                                        + [repr(float(v)) for v in p]
                                        + [c, repr(float(sol.values[it, ip, c]))])

    @staticmethod
    def density(dens, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "density"])
            for it, t in enumerate(dens.times):
                for ip, x in enumerate(dens.points):
                    writer.writerow([repr(float(t)), repr(float(x)),
                                     repr(float(dens.values[it, ip]))])

    @staticmethod
    def json(sol, path):
        """The per-value ``float`` lists ``to_json`` streamed through
        ``json.dump`` before it wrote one ``json.dumps``."""
        with open(path, "w") as fh:
            json.dump({
                "times": [float(t) for t in sol.times],
                "points": [[float(v) for v in p] for p in sol.points],
                "values": [[[float(v) for v in comp] for comp in row]
                           for row in sol.values],
                "metadata": sol.metadata,
            }, fh, indent=1)


ODD_FLOATS = [-0.0, 5e-324, math.inf, -math.inf, math.nan, 0.1, -2.5e300]


def test_grid_solution_csv_bytes_match_csv_writer(tmp_path):
    # 2 times, 3 points in 2D, 2 components, with -0.0, a subnormal, +-inf
    # and NaN among the times, coordinates and values
    values = np.array(ODD_FLOATS * 2)[:12].reshape(2, 3, 2)
    sol = GridSolution(np.array([-0.0, 5e-324]),
                       np.array([[0.0, -0.0], [math.inf, 1e-310],
                                 [math.nan, -math.inf]]), values)
    sol.to_csv(str(tmp_path / "new.csv"))
    _WriterReference.grid(sol, str(tmp_path / "ref.csv"))
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\r\n") == 1 + 2 * 3 * 2


def test_boundary_density_csv_bytes_match_csv_writer(tmp_path):
    dens = BoundaryDensity(np.array([0.25, -0.0, 5e-324, math.inf]),
                           np.array([-0.0, 1.0]),
                           np.array(ODD_FLOATS + [1.0]).reshape(4, 2))
    dens.to_csv(str(tmp_path / "new.csv"))
    _WriterReference.density(dens, str(tmp_path / "ref.csv"))
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\r\n") == 1 + 4 * 2


def test_grid_solution_json_bytes_match_a_streamed_dump(tmp_path):
    values = np.array(ODD_FLOATS * 2)[:12].reshape(2, 3, 2)
    sol = GridSolution(np.array([-0.0, 5e-324]),
                       np.array([[0.0, -0.0], [math.inf, 1e-310],
                                 [math.nan, -math.inf]]), values,
                       {"K": 6, "mode": "tau", "beta": 0.5, "D": None})
    sol.to_json(str(tmp_path / "new.json"))
    _WriterReference.json(sol, str(tmp_path / "ref.json"))
    assert (tmp_path / "new.json").read_bytes() == \
        (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("write", [
    lambda path: GridSolution(np.array([0.1, 0.2]), np.array([[0.0], [1.0]]),
                              np.arange(4.0).reshape(2, 2, 1)).to_csv(path),
    lambda path: GridSolution(np.array([0.1, 0.2]), np.array([[0.0], [1.0]]),
                              np.arange(4.0).reshape(2, 2, 1)).to_json(path),
    lambda path: BoundaryDensity(np.array([0.1, 0.2]), np.array([0.0, 1.0]),
                                 np.arange(4.0).reshape(2, 2)).to_csv(path),
], ids=["grid-csv", "grid-json", "density-csv"])
def test_a_rewrite_writes_the_bytes_of_a_fresh_file(tmp_path, write):
    # written in place, never emptied first: an older, longer file loses
    # its tail and a shorter one grows
    write(str(tmp_path / "fresh"))
    fresh = (tmp_path / "fresh").read_bytes()
    for size in (2 * len(fresh) + 100, len(fresh) // 2):
        (tmp_path / "old").write_bytes(b"x" * size)
        write(str(tmp_path / "old"))
        assert (tmp_path / "old").read_bytes() == fresh
    write(os.devnull)
