import math

import numpy as np
import pytest

from parakern.errors import (ConditioningError, ScalingError,
                             UnsupportedSpecError)
from parakern.funcspec import (CallableFunc, ExpTime, GaussianMix,
                               GridSamples, SpaceFourier, SpacePoly,
                               SpacePolyFourier, TimePolyFunc, ZeroFunc)
from parakern.kernel import KernelField
from parakern.oracle import FDConfig, fd_solve, fd_solve_burgers
from parakern.polyalg import FourierEntry, PolyEntry, TimeEntry
from parakern.recursion import ProblemCoefficients, WarpParams
from parakern.solvers import (GridSolution, ProblemSpec,
                              QuadratureConfig, burgers_demo, solve_cauchy,
                              solve_ibvp2)

SIN_DRIFT = FourierEntry(1, ((0.3, (1.0,), 0.0),))
PC_SIN = ProblemCoefficients(1, 1, {(0, 0, 0): SIN_DRIFT})
PC_ZERO = ProblemCoefficients(1, 1, {})
QUAD = QuadratureConfig(gh_order=40, gl_order=24, gl_panels=3)
COS_SPEC = SpaceFourier(((1.0, (1.0,), math.pi / 2),))


def gauss_phi():
    return GaussianMix(((1.0, 1.0, (0.0,)),))


# ---------------------------------------------------------------------------
# solve_cauchy
# ---------------------------------------------------------------------------

def test_cauchy_preserves_constants_under_drift():
    ps = ProblemSpec("cauchy", (-1.0,), (1.0,), 0.2, PC_SIN,
                     phi=SpacePoly(((1.0, (0,)),)))
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
    # time-dependent drift forces re-expansion about the source time s
    b0, b1 = 0.3, 0.5
    entry = TimeEntry(((0, PolyEntry(1, ((b0, (0,)),))),
                       (1, PolyEntry(1, ((b1, (0,)),)))))
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): entry})
    fld = KernelField(pc, WarpParams(), K=4)
    for s in (0.0, 0.1, 0.3):
        for t in (s + 0.05, s + 0.2, s + 0.5):
            for x, y in ((0.4, -0.1), (-0.2, 0.3)):
                sig = t - s
                shift = b0 * sig + b1 * (t * t - s * s) / 2
                ref = math.exp(-((x - y) + shift) ** 2 / (4 * sig)) \
                    / math.sqrt(4 * math.pi * sig)
                assert fld.pair_value(t, s, [x], [y]) == \
                    pytest.approx(ref, rel=1e-12)


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
    alpha = SpacePoly(((-1.0 / math.sqrt(math.pi * t1), (0,)),))
    ps = make_ibvp(ZeroFunc(), alpha, SpacePoly(((1.0, (0,)),)), T=2 * t1)
    fld = KernelField(PC_ZERO, WarpParams(), K=1)
    with pytest.raises(ConditioningError, match="singular marching step"):
        solve_ibvp2(ps, fld, steps=2, quad=QUAD)


MANUFACTURED = [
    # u* = e^{-t} cos x, alpha = 1, f = 0
    dict(phi=COS_SPEC,
         alpha=SpacePoly(((1.0, (0,)),)),
         psi=ExpTime(-1.0, SpacePolyFourier((
             (1.0, (0,), (1.0,), math.pi / 2),
             (-1.0, (1,), (1.0,), 0.0)))),
         source=None,
         exact=lambda t, x: math.exp(-t) * math.cos(x)),
    # u* = e^{-t} sin(x + 0.3), alpha = 1, f = 0
    dict(phi=SpaceFourier(((1.0, (1.0,), 0.3),)),
         alpha=SpacePoly(((1.0, (0,)),)),
         psi=ExpTime(-1.0, SpacePolyFourier((
             (2.0, (1,), (1.0,), 0.3 + math.pi / 2),
             (-1.0, (0,), (1.0,), 0.3 + math.pi / 2),
             (1.0, (0,), (1.0,), 0.3)))),
         source=None,
         exact=lambda t, x: math.exp(-t) * math.sin(x + 0.3)),
    # u* = (1 + t)(1 + x^2/2), alpha = 1, f = x^2/2 - t
    dict(phi=SpacePoly(((1.0, (0,)), (0.5, (2,)))),
         alpha=SpacePoly(((1.0, (0,)),)),
         psi=TimePolyFunc((
             (0, SpacePoly(((2.5, (2,)), (-1.0, (1,)), (1.0, (0,))))),
             (1, SpacePoly(((2.5, (2,)), (-1.0, (1,)), (1.0, (0,))))))),
         source=TimePolyFunc((
             (0, SpacePoly(((0.5, (2,)),))),
             (1, SpacePoly(((-1.0, (0,)),))))),
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
                     phi0=SpacePoly(((-0.5, (2,)),)))
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


def test_burgers_underflow_raises_scaling_error():
    ps = ProblemSpec("burgers", (-1.0,), (1.0,), 0.5, PC_ZERO, nu=1e-4,
                     phi0=SpacePoly(((-5.0, (2,)),)))
    with pytest.raises(ScalingError, match="subtract"):
        burgers_demo(ps, K=2, points=np.array([[0.9]]))


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
