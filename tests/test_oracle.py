import math

import numpy as np
import pytest

from parakern.errors import ParameterError
from parakern.oracle import (FDConfig, exact_const_drift_kernel,
                             exact_potential_kernel, fd_solve,
                             fd_solve_burgers, fd_solve_linear, gh_convolve,
                             quad_ray)

import fdref


# ---------------------------------------------------------------------------
# exact kernels
# ---------------------------------------------------------------------------

def test_const_drift_reduces_to_gaussian():
    t, x, y = 0.3, 0.4, -0.1
    val = exact_const_drift_kernel(0.0, 0.0, t, x, y)
    ref = math.exp(-(x - y) ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t)
    assert val == pytest.approx(ref, rel=1e-15)


def test_const_drift_solves_its_pde():
    # residual of u_t = u_xx + (b0 + b1 t) u_x by central differences
    b0, b1 = 0.4, -0.3
    rng = np.random.default_rng(2)
    hx, ht = 1e-4, 1e-5
    worst = 0.0
    for _ in range(200):
        t = rng.uniform(0.2, 1.0)
        x = rng.uniform(-1, 1)
        y = rng.uniform(-1, 1)

        def p(tt, xx):
            return exact_const_drift_kernel(b0, b1, tt, xx, y)

        ut = (p(t + ht, x) - p(t - ht, x)) / (2 * ht)
        ux = (p(t, x + hx) - p(t, x - hx)) / (2 * hx)
        uxx = (p(t, x + hx) - 2 * p(t, x) + p(t, x - hx)) / hx ** 2
        res = ut - uxx - (b0 + b1 * t) * ux
        worst = max(worst, abs(res) / p(t, x))
    assert worst < 1e-6  # FD-limited; the kernel itself is exact


def test_const_drift_normalizes():
    b0, b1, t, x = 0.7, 0.2, 0.4, 0.3
    val = gh_convolve(lambda y: math.exp(
        -(x - y[0] + b0 * t + b1 * t * t / 2) ** 2 / (4 * t)
        + (x - y[0]) ** 2 / (4 * t)), [x], t, order=60)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_potential_kernel():
    val = exact_potential_kernel(0.4, 0.5, 0.2, 0.0)
    gauss = math.exp(-0.04 / 2.0) / math.sqrt(2 * math.pi)
    assert val == pytest.approx(gauss * math.exp(0.2), rel=1e-15)


# ---------------------------------------------------------------------------
# ray quadrature
# ---------------------------------------------------------------------------

def test_quad_ray_examples():
    assert quad_ray(lambda s: 1.0, 1.0) == pytest.approx(1.0, abs=1e-13)
    assert quad_ray(lambda s: s * s, 1.0) == pytest.approx(1 / 3, abs=1e-13)
    assert quad_ray(lambda s: 1.0, 0.5) == pytest.approx(2.0, abs=1e-11)


@pytest.mark.parametrize("a", [1.5, 2.5, 2.886])
def test_quad_ray_non_integer_exponent_above_one(a):
    # s^(a-1) is not smooth at 0: one panel raised AccuracyError
    assert quad_ray(lambda s: 1.0, a) == pytest.approx(1 / a, abs=1e-13)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
def test_quad_ray_monomials(a):
    for m in range(17):
        val = quad_ray(lambda s, m=m: s ** m, a)
        assert val == pytest.approx(1.0 / (m + a), abs=2e-11)


def test_quad_ray_rejects_bad_exponent():
    for a in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            quad_ray(lambda s: 1.0, a)


# ---------------------------------------------------------------------------
# Gauss-Hermite convolution
# ---------------------------------------------------------------------------

def test_gh_convolve_moments():
    t = 0.37
    assert gh_convolve(lambda y: 1.0, [0.0], t) == pytest.approx(1.0, abs=1e-13)
    assert gh_convolve(lambda y: y[0] ** 2, [0.0], t) == \
        pytest.approx(2 * t, rel=1e-12)
    assert gh_convolve(lambda y: math.exp(y[0]), [0.0], t) == \
        pytest.approx(math.exp(t), rel=1e-12)


def test_gh_convolve_2d():
    t = 0.2
    val = gh_convolve(lambda y: y[0] ** 2 + y[1] ** 2, [0.0, 0.0], t, order=20)
    assert val == pytest.approx(4 * t, rel=1e-12)


# ---------------------------------------------------------------------------
# finite-difference reference
# ---------------------------------------------------------------------------

def test_fd_preserves_constants_under_drift():
    def drift(i, j, t, grid):
        return 0.3 * np.sin(grid)

    cfg = FDConfig(h=1 / 64, dt=1e-3)
    _, grid, vals = fd_solve_linear(-8, 8, 0.2, cfg, lambda x: 1.0,
                                    drift=drift)
    mask = np.abs(grid) <= 2.0
    assert np.max(np.abs(vals[-1][mask, 0] - 1.0)) < 1e-8


def test_fd_self_convergence_is_second_order():
    def run(h, dt):
        cfg = FDConfig(h=h, dt=dt)
        _, grid, vals = fd_solve_linear(-8, 8, 0.25, cfg,
                                        lambda x: math.exp(-x * x))
        mask = np.abs(grid) <= 2
        exact = (1 + 1.0) ** -0.5 * np.exp(-grid[mask] ** 2 / 2.0)
        return np.max(np.abs(vals[-1][mask, 0] - exact))

    e1 = run(1 / 32, 1 / 200)
    e2 = run(1 / 64, 1 / 400)
    order = math.log2(e1 / e2)
    assert order >= 1.9


def test_fd_matches_const_drift_oracle():
    b0 = 0.7
    cfg = FDConfig(h=1 / 256, dt=2e-4)

    def drift(i, j, t, grid):
        return b0 * np.ones_like(grid)

    T = 0.25
    _, grid, vals = fd_solve_linear(-8, 8, T, cfg, lambda x: math.exp(-x * x),
                                    drift=drift)
    mask = np.abs(grid) <= 2
    # phi propagated by the exact shifted kernel: heat solution at x + b0 T
    shifted = grid[mask] + b0 * T
    exact = (1 + 4 * T) ** -0.5 * np.exp(-shifted ** 2 / (1 + 4 * T))
    assert np.max(np.abs(vals[-1][mask, 0] - exact)) <= 1e-4


def test_fd_explicit_stability_guard():
    with pytest.raises(ParameterError):
        fd_solve_burgers(-1, 1, 0.1, FDConfig(h=0.01, dt=0.01,
                                              scheme="explicit"),
                         lambda x: x, nu=0.1)


@pytest.mark.parametrize("h", [0.3, 1.0, 2.0])
def test_a_step_that_does_not_tile_the_box_is_refused(h):
    # h = 0.3 used to march on [0, 0.9] while reading the Robin data at
    # x = 1, h = 1 to return zeros on 2 nodes, and h = 2 to raise an
    # untyped ValueError
    robin = FDConfig(h=h, dt=0.01, boundary="exact_robin")
    with pytest.raises(ParameterError, match="does not tile"):
        fd_solve_linear(0.0, 1.0, 0.05, robin, math.cos,
                        robin_alpha=lambda t, x: 1.0,
                        robin_psi=lambda t, x: 0.0)
    with pytest.raises(ParameterError, match="does not tile"):
        fd_solve_linear(0.0, 1.0, 0.05, FDConfig(h=h, dt=0.01), math.cos)
    with pytest.raises(ParameterError, match="does not tile"):
        fd_solve_burgers(0.0, 1.0, 0.05, FDConfig(h=h, dt=1e-3,
                                                  scheme="explicit"),
                         lambda x: x, nu=0.1)


def test_a_step_that_tiles_the_box_up_to_rounding_is_kept():
    # (0.7 - (-0.1)) / 0.1 is 7.999999999999999 in floating point: 8 steps
    _, grid, _ = fd_solve_linear(-0.1, 0.7, 0.05, FDConfig(h=0.1, dt=0.01),
                                 math.cos)
    assert len(grid) == 9 and grid[-1] == pytest.approx(0.7, abs=1e-15)


def test_fd_solve_dispatcher_all_kinds():
    from parakern.funcspec import (ExpTime, FourierEntry, GaussianMix,
                                   PolyEntry, SpacePolyFourier)
    from parakern.recursion import ProblemCoefficients
    from parakern.solvers import ProblemSpec

    # cauchy with sin drift: constants stay constant
    pc = ProblemCoefficients(1, 1, {(0, 0, 0):
                                    FourierEntry(1, ((0.3, (1.0,), 0.0),))})
    ps = ProblemSpec("cauchy", (-8.0,), (8.0,), 0.2, pc,
                     phi=PolyEntry(1, ((1.0, (0,)),)))
    sol = fd_solve(ps, FDConfig(h=1 / 64, dt=1e-3))
    mask = np.abs(sol.points[:, 0]) <= 2.0
    assert np.max(np.abs(sol.values[-1][mask, 0] - 1.0)) < 1e-8

    # ibvp2 robin rows against the manufactured decaying cosine
    pc0 = ProblemCoefficients(1, 1, {})
    ps2 = ProblemSpec(
        "ibvp2", (0.0,), (1.0,), 0.5, pc0,
        phi=FourierEntry(1, ((1.0, (1.0,), math.pi / 2),)),
        alpha=PolyEntry(1, ((1.0, (0,)),)),
        psi=ExpTime(-1.0, SpacePolyFourier((
            (1.0, (0,), (1.0,), math.pi / 2),
            (-1.0, (1,), (1.0,), 0.0)))))
    sol2 = fd_solve(ps2, FDConfig(h=1 / 128, dt=1e-3))
    exact = math.exp(-0.5) * np.cos(sol2.points[:, 0])
    assert np.max(np.abs(sol2.values[-1][:, 0] - exact)) < 2e-4

    # burgers explicit stepping from a potential initial field
    ps3 = ProblemSpec("burgers", (-4.0,), (4.0,), 0.2, pc0, nu=0.1,
                      phi0=GaussianMix(((0.075, 1.0, (0.0,)),)))
    sol3 = fd_solve(ps3, FDConfig(h=1 / 50, dt=1.5e-4, scheme="explicit"))
    mask = np.abs(sol3.points[:, 0]) <= 1.0
    assert np.all(np.isfinite(sol3.values))
    assert np.max(np.abs(sol3.values[-1][mask, 0])) < 0.1


def test_fd_robin_manufactured():
    # u* = e^{-t} cos x with alpha = 1 on (0,1); psi from u*
    def alpha(t, x):
        return 1.0

    def psi(t, x):
        nu_dir = -1.0 if x < 0.5 else 1.0
        return math.exp(-t) * (nu_dir * (-math.sin(x)) + math.cos(x))

    cfg = FDConfig(h=1 / 128, dt=1e-3, boundary="exact_robin")
    _, grid, vals = fd_solve_linear(0.0, 1.0, 0.5, cfg,
                                    lambda x: math.cos(x),
                                    robin_alpha=alpha, robin_psi=psi)
    exact = math.exp(-0.5) * np.cos(grid)
    assert np.max(np.abs(vals[-1][:, 0] - exact)) < 2e-4


# ---------------------------------------------------------------------------
# pin: the array-assembled oracle against the per-point reference
# ---------------------------------------------------------------------------

def _pin_specs():
    from parakern.funcspec import (ExpTime, FourierEntry, GaussianMix,
                                   PolyEntry, SpacePolyFourier, TimeEntry)
    from parakern.recursion import ProblemCoefficients
    from parakern.solvers import ProblemSpec

    def time_drift(b0, b1):
        return TimeEntry(((0, PolyEntry(1, ((b0, (0,)),))),
                          (1, PolyEntry(1, ((b1, (0,)),)))))

    bump = GaussianMix(((1.1, 2.5, (0.2,)),))
    box = ((-4.0,), (4.0,), 0.2)
    sin_drift = ProblemCoefficients(1, 1, {(0, 0, 0): FourierEntry(
        1, ((0.3, (1.0,), 0.0),))})
    potential = ProblemCoefficients(1, 1, {(0, 0, 0): time_drift(0.2, -0.5)},
                                    {0: TimeEntry((
                                        (0, PolyEntry(1, ((-0.3, (0,)),
                                                          (0.1, (2,))))),
                                        (1, FourierEntry(
                                            1, ((0.4, (2.0,), 0.3),))),
                                        (2, PolyEntry(1, ((0.7, (1,)),)))))})
    return {
        "time_drift": ProblemSpec("cauchy", *box,
                                  ProblemCoefficients(1, 1, {
                                      (0, 0, 0): time_drift(0.6, -1.3)}),
                                  phi=bump),
        # sin vanishes exactly at the node x = 0
        "sin_drift": ProblemSpec("cauchy", *box, sin_drift, phi=bump),
        "time_potential": ProblemSpec("cauchy", *box, potential, phi=bump),
        "gaussian_source": ProblemSpec(
            "cauchy", *box, sin_drift, phi=bump,
            source=GaussianMix(((0.7, 1.5, (-0.4,)),))),
        "exptime_source": ProblemSpec(
            "cauchy", *box, potential, phi=bump,
            source=ExpTime(-2.0, FourierEntry(1, ((0.5, (1.0,), 0.1),)))),
        "robin": ProblemSpec(
            "ibvp2", (0.0,), (1.0,), 0.2,
            ProblemCoefficients(1, 1, {(0, 0, 0): time_drift(0.3, 0.5)}),
            phi=FourierEntry(1, ((1.0, (1.0,), math.pi / 2),)),
            alpha=PolyEntry(1, ((1.0, (0,)),)),
            psi=ExpTime(-1.0, SpacePolyFourier((
                (1.0, (0,), (1.0,), math.pi / 2),
                (-1.0, (1,), (1.0,), 0.0))))),
        "burgers": ProblemSpec("burgers", (-2.0,), (2.0,), 0.05,
                               ProblemCoefficients(1, 1, {}), nu=0.1,
                               phi0=GaussianMix(((0.075, 1.0, (0.0,)),))),
    }


@pytest.mark.parametrize("case", ["time_drift", "sin_drift", "time_potential",
                                  "gaussian_source", "exptime_source", "robin",
                                  "burgers"])
def test_fd_solve_is_bit_identical_to_per_point_reference(case):
    ps = _pin_specs()[case]
    if case == "burgers":
        cfg = FDConfig(h=1 / 25, dt=5e-4, scheme="explicit")
    else:
        cfg = FDConfig(h=1 / 16, dt=0.01)
    times = [0.05, ps.horizon]
    new, ref = fd_solve(ps, cfg, times), fdref.fd_solve(ps, cfg, times)
    assert np.array_equal(new.times, ref.times)
    assert np.array_equal(new.points, ref.points)
    assert np.array_equal(new.values, ref.values)
    assert new.metadata == ref.metadata


def _two_component_case():
    # b^0_1 vanishes on x <= 0, so its block keeps only the x > 0 entries
    def drift(i, j, t, grid):
        if (i, j) == (0, 1):
            return np.where(grid > 0.0, 0.4 * np.sin(grid), 0.0) * (1 + t)
        if i == j:
            return 0.3 - 0.2 * i + 0.1 * t
        return None

    def potential(i, t, grid):
        return -0.2 * (i + 1) * np.cos(grid) * (1 - t)

    def source(i, t, grid):
        return 0.1 * (1 + i) * np.exp(-grid * grid) * t

    def phi(x, j):
        return math.exp(-(x - 0.3 * j) ** 2 * (2 + j))

    for f in (drift, potential):
        f.time_dependent = True
    return (-3.0, 3.0, 0.1, FDConfig(h=1 / 16, dt=0.01), phi), \
        {"drift": drift, "potential": potential, "source": source,
         "components": 2, "sample_times": [0.02, 0.1]}


def test_fd_two_component_coupling_is_bit_identical_to_reference():
    args, kwargs = _two_component_case()
    new = fd_solve_linear(*args, **kwargs)
    ref = fdref.fd_solve_linear(*args, **kwargs)
    assert new[2].shape == (2, 97, 2)
    for a, b in zip(new, ref):
        assert np.array_equal(a, b)
    # the coupling moved component 0 away from its uncoupled march
    coupled = kwargs["drift"]

    def uncoupled(i, j, t, grid):
        return coupled(i, j, t, grid) if i == j else None

    uncoupled.time_dependent = True
    kwargs["drift"] = uncoupled
    assert not np.allclose(fd_solve_linear(*args, **kwargs)[2][..., 0],
                           new[2][..., 0])


def test_fd_robin_manufactured_is_bit_identical_to_reference():
    def alpha(t, x):
        return 1.0 + 0.5 * t

    def psi(t, x):
        nu_dir = -1.0 if x < 0.5 else 1.0
        return math.exp(-t) * (nu_dir * (-math.sin(x))
                               + (1.0 + 0.5 * t) * math.cos(x))

    def drift(i, j, t, grid):
        return 0.2 * np.cos(grid)

    cfg = FDConfig(h=1 / 32, dt=1e-2, boundary="exact_robin")
    for extra in ({}, {"drift": drift}):
        args = (0.0, 1.0, 0.3, cfg, lambda x: math.cos(x))
        kwargs = dict(robin_alpha=alpha, robin_psi=psi,
                      sample_times=[0.1, 0.3], **extra)
        new = fd_solve_linear(*args, **kwargs)
        ref = fdref.fd_solve_linear(*args, **kwargs)
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)


def _exact_zero_case(robin):
    # b = 2/h makes the (r, r-1) entry 1/h^2 - b/(2h) vanish: on x < lo + 1/4
    # at every step, on x > hi - 1/4 only at the midpoint t_star of the
    # fourth step; in the two-component case the coupling b^0_1 vanishes
    # there too.  dt = 1/64 keeps the step midpoints exact.
    h, dt = 1 / 16, 1 / 64
    lo, hi = (0.0, 1.0) if robin else (-2.0, 2.0)
    t_star = 3 * dt + dt / 2

    def drift(i, j, t, grid):
        if i == j:
            return np.where(grid < lo + 0.25, 2 / h, np.where(
                grid > hi - 0.25, (2 / h) * (1 + (t - t_star)),
                0.3 * np.cos(grid)))
        return 0.4 * np.sin(grid) * (t - t_star) if (i, j) == (0, 1) else None

    def phi(x, j=0):
        return math.cos(x + 0.3 * j)

    drift.time_dependent = True
    kwargs = {"drift": drift, "sample_times": [3 * dt, 8 * dt]}
    if robin:
        kwargs.update(robin_alpha=lambda t, x: 1.0 + t,
                      robin_psi=lambda t, x: 0.5 * x - t)
    else:
        kwargs["components"] = 2
    cfg = FDConfig(h=h, dt=dt, boundary="exact_robin" if robin else
                   "large_box_dirichlet")
    return (lo, hi, 8 * dt, cfg, phi), kwargs


@pytest.mark.parametrize("robin", [False, True], ids=["dirichlet", "robin"])
def test_fd_exact_zero_entries_are_bit_identical_to_reference(robin):
    # scipy's sparse sums drop exact zeros, which changes the pattern
    # SuperLU orders; the fixed-pattern assembly must drop the same ones
    args, kwargs = _exact_zero_case(robin)
    new = fd_solve_linear(*args, **kwargs)
    ref = fdref.fd_solve_linear(*args, **kwargs)
    assert len(new[0]) == 2
    for a, b in zip(new, ref):
        assert np.array_equal(a, b)


def _unpruned_case(m, tie):
    # every coupling b^i_j = 0.4 sin(x + 0.3 (1 + i + j)) (1 + t) misses the
    # nodes where it vanishes, so no step prunes an entry.  With ``tie``,
    # dt = 2 h^2 and a self-drift of component 0 that is exactly 0 next to
    # each boundary make the Dirichlet row's 1 and the stencil's
    # -(dt/2)/h^2 = -1 tie for the largest magnitude of a boundary column
    h = 1 / 16
    dt = 2 * h * h if tie else 0.01

    def drift(i, j, t, grid):
        if i == j == 0 and tie:
            return (grid - grid[1]) * (grid - grid[-2]) * (1 + t)
        if i == j:
            return 0.3 - 0.1 * i + 0.2 * t
        return 0.4 * np.sin(grid + 0.3 * (1 + i + j)) * (1 + t)

    def potential(i, t, grid):
        return -0.2 * (i + 1) * np.cos(grid) * (1 - t)

    def phi(x, j=0):
        return math.exp(-(x - 0.3 * j) ** 2 * (2 + j))

    for f in (drift, potential):
        f.time_dependent = True
    return (-3.0, 3.0, 10 * dt, FDConfig(h=h, dt=dt), phi), \
        {"drift": drift, "potential": potential, "components": m,
         "sample_times": [k * dt for k in range(11)]}


@pytest.mark.parametrize("m, tie", [(1, False), (1, True), (2, False),
                                    (2, True), (3, False)])
def test_fd_unpruned_time_dependent_march_is_bit_identical_to_reference(
        m, tie, monkeypatch):
    import scipy.sparse.linalg as sl

    orders = []
    splu = sl.splu

    def spy(M, **kwargs):
        lu = splu(M, **kwargs)
        identity = (lu.perm_c == np.arange(M.shape[0])).all()
        orders.append((kwargs.get("permc_spec"), identity))
        return lu

    args, kwargs = _unpruned_case(m, tie)
    monkeypatch.setattr(sl, "splu", spy)
    new = fd_solve_linear(*args, **kwargs)
    monkeypatch.setattr(sl, "splu", splu)
    ref = fdref.fd_solve_linear(*args, **kwargs)
    assert new[2].shape == (11, 97, m)
    for a, b in zip(new, ref):
        assert np.array_equal(a, b)
    # one component keeps every column in place, so 9 steps factor in
    # natural order; a coupled system's order is chosen at every step
    if m == 1:
        assert orders == [(None, True)] + [("NATURAL", True)] * 9
    else:
        assert orders == [(None, False)] * 10


def test_fd_potential_that_turns_none_contributes_zeros():
    args, kwargs = _unpruned_case(1, False)
    potential = kwargs["potential"]

    def fading(zero):
        def f(i, t, grid):
            return zero if t > 0.05 else potential(i, t, grid)
        f.time_dependent = True
        return f

    new = fd_solve_linear(*args, **{**kwargs, "potential": fading(None)})
    ref = fdref.fd_solve_linear(*args, **{**kwargs, "potential": fading(0.0)})
    for a, b in zip(new, ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("boundary, potential", [
    ("large_box_dirichlet", 12.0), ("exact_robin", 8.0)])
def test_fd_a_singular_step_raises_conditioning_error(boundary, potential):
    # 3 nodes, h = dt = 1/2: potential 12 makes the middle pivot of
    # ident - (dt/2) A exactly 0; under Robin rows with alpha = 1, 8 makes
    # the matrix exactly singular, where spsolve used to return NaN
    import warnings

    from parakern.errors import ConditioningError

    # scipy's warnings pass silently outside this suite's filters
    with warnings.catch_warnings(), \
            pytest.raises(ConditioningError, match=r"step to t = 0\.5 "):
        warnings.simplefilter("ignore")
        fd_solve_linear(0.0, 1.0, 0.5,
                        FDConfig(h=0.5, dt=0.5, boundary=boundary),
                        lambda x: 1.0, potential=lambda i, t, g: potential,
                        robin_alpha=lambda t, x: 1.0,
                        robin_psi=lambda t, x: 0.0)


def test_fd_drift_pair_that_turns_none_contributes_zeros():
    args, kwargs = _two_component_case()
    coupled = kwargs["drift"]

    def fading(i, j, t, grid):
        return None if (i, j) == (0, 1) and t > 0.05 else \
            coupled(i, j, t, grid)

    fading.time_dependent = True
    kwargs["drift"] = fading
    new = fd_solve_linear(*args, **kwargs)
    ref = fdref.fd_solve_linear(*args, **kwargs)
    for a, b in zip(new, ref):
        assert np.array_equal(a, b)


def test_fd_drift_pair_that_appears_later_is_rejected():
    args, kwargs = _two_component_case()
    coupled = kwargs["drift"]

    def appearing(i, j, t, grid):
        return None if (i, j) == (0, 1) and t < 0.05 else \
            coupled(i, j, t, grid)

    appearing.time_dependent = True
    kwargs["drift"] = appearing
    with pytest.raises(ParameterError, match="pattern"):
        fd_solve_linear(*args, **kwargs)


@pytest.mark.parametrize("boundary", ["large_box_dirichlet", "exact_robin"])
def test_fd_sparse_matrices_made_do_not_grow_with_steps(boundary, monkeypatch):
    from scipy.sparse._compressed import _cs_matrix

    made = [0]
    init = _cs_matrix.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(_cs_matrix, "__init__", counted)

    def drift(i, j, t, grid):
        return 0.5 + 0.3 * t    # time-dependent, no entry exactly zero

    drift.time_dependent = True

    def made_in(nsteps):
        made[0] = 0
        fd_solve_linear(0.0, 1.0, nsteps * 0.01,
                        FDConfig(h=1 / 16, dt=0.01, boundary=boundary),
                        math.cos, drift=drift,
                        robin_alpha=lambda t, x: 1.0 + t,
                        robin_psi=lambda t, x: 0.5 * t)
        return made[0]

    assert made_in(10) == made_in(40) > 0


def _pattern_cases():
    """(args, kwargs) of fd_solve_linear for the 1-component Dirichlet, the
    2-component coupled and the Robin pattern."""
    def drift(i, j, t, grid):
        return 0.3 * np.cos(grid)

    robin = FDConfig(h=1 / 16, dt=0.01, boundary="exact_robin")
    return {
        "dirichlet": ((-2.0, 2.0, 0.05, FDConfig(h=1 / 16, dt=0.01),
                       math.cos), {"drift": drift}),
        "coupled": _two_component_case(),
        "robin": ((0.0, 1.0, 0.05, robin, math.cos),
                  {"drift": drift, "robin_alpha": lambda t, x: 1.0 + t,
                   "robin_psi": lambda t, x: 0.5 * x - t}),
    }


@pytest.mark.parametrize("case", ["dirichlet", "coupled", "robin"])
def test_fd_pattern_is_the_one_coo_conversion_gives(case, monkeypatch):
    import scipy.sparse

    from parakern import oracle

    made = []
    compressed = oracle._compressed

    def spy(fmt, major, minor, n):
        slots, M = compressed(fmt, major, minor, n)
        # a copy: the march points the CSC's boundary slots at the t + dt
        # block in place
        made.append((major, minor, n, slots.copy(), M))
        return slots, M

    monkeypatch.setattr(oracle, "_compressed", spy)
    args, kwargs = _pattern_cases()[case]
    fd_solve_linear(*args, **kwargs)
    assert len(made) == 2
    for (major, minor, n, slots, M), form in zip(made, ("csr", "csc")):
        rows, cols = (major, minor) if form == "csr" else (minor, major)
        coo = scipy.sparse.coo_matrix(
            (np.arange(1.0, len(rows) + 1), (rows, cols)), shape=(n, n))
        ref = coo.tocsr() if form == "csr" else coo.tocsc()
        assert M.format == form and M.shape == ref.shape
        assert np.array_equal(M.indptr, ref.indptr)
        assert np.array_equal(M.indices, ref.indices)
        assert np.array_equal(slots, ref.data.astype(int) - 1)
    # both forms hold the same entries, and the coupled pattern its bands
    assert sorted(made[0][3]) == sorted(made[1][3]) == list(range(len(rows)))
    if case == "coupled":
        assert len(rows) == 2 * 3 * 95 + 2 * 95 + 4


def test_fd_half_step_product_is_bit_identical_to_the_operator():
    import scipy.sparse

    from parakern.oracle import _csr_matvec

    nan, inf = math.nan, math.inf
    # rows: mixed signs, -0.0 products only, inf - inf, a NaN entry, empty
    dense = np.array([[1.5, -0.0, 2.0, 0.0, -3.0],
                      [-0.0, 0.0, 0.0, 0.0, -0.0],
                      [inf, 0.0, -inf, 0.0, 0.0],
                      [0.0, nan, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0],
                      [2.0, -1.0, 0.5, -0.25, 4.0]])
    rows, cols = np.nonzero(np.ones_like(dense))
    keep = (dense != 0) | np.signbit(dense) | np.isnan(dense)
    M = scipy.sparse.csr_matrix((dense[keep], (rows[keep.ravel()],
                                                cols[keep.ravel()])),
                                shape=dense.shape)
    assert (M.data == 0).any() and np.isnan(M.data).any()
    for x in ([1.0, 2.0, -0.0, 4.0, 5.0], [-0.0, inf, 1.0, -inf, 0.0],
              [nan, 1.0, -0.0, 0.0, -2.0], [-0.0] * 5):
        x = np.array(x)
        out = np.full(M.shape[0], 7.0)
        _csr_matvec(M, x, out)
        ref = M @ x
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("case, factors, solves", [
    ("autonomous", 1, 0), ("time_dependent", 10, 0), ("robin", 0, 10)])
def test_fd_factor_runs_once_per_changed_matrix(case, factors, solves,
                                                monkeypatch):
    import scipy.sparse.linalg as sl

    calls = {"splu": 0, "natural": 0, "spsolve": 0}

    def counted(name):
        f = getattr(sl, name)

        def wrapper(*args, **kwargs):
            natural = kwargs.get("permc_spec") == "NATURAL"
            calls["natural" if natural else name] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in ("splu", "spsolve"):
        monkeypatch.setattr(sl, name, counted(name))

    def drift(i, j, t, grid):
        return 0.5 + 0.3 * t

    drift.time_dependent = case != "autonomous"
    boundary = "exact_robin" if case == "robin" else "large_box_dirichlet"
    fd_solve_linear(0.0, 1.0, 0.1, FDConfig(h=1 / 16, dt=0.01,
                                             boundary=boundary),
                    math.cos, drift=drift, robin_alpha=lambda t, x: 1.0,
                    robin_psi=lambda t, x: 0.5 * t)
    # a time-dependent march orders its columns once, at the first factor
    reused = factors - 1 if case == "time_dependent" else 0
    assert calls == {"splu": factors - reused, "natural": reused,
                     "spsolve": solves}


@pytest.mark.parametrize("field", ["h", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1])
def test_fd_config_refuses_a_step_that_is_not_positive_and_finite(field,
                                                                   value):
    # h = nan used to end in int(nan), dt = inf in a division by zero
    steps = {"h": 1 / 16, "dt": 0.01, field: value}
    with pytest.raises(ParameterError, match="positive and finite"):
        FDConfig(**steps)


@pytest.mark.parametrize("horizon", [0.0, -0.1, math.nan, math.inf])
def test_fd_linear_refuses_a_horizon_that_is_not_positive_and_finite(
        horizon, monkeypatch):
    from parakern import oracle

    def no_grid(*args):
        raise AssertionError("grid work before the horizon check")

    monkeypatch.setattr(oracle, "_fd_grid", no_grid)
    with pytest.raises(ParameterError, match="horizon must be positive"):
        fd_solve_linear(-2.0, 2.0, horizon, FDConfig(h=1 / 8, dt=0.01),
                        lambda x: 1.0)


@pytest.mark.parametrize("horizon", [0.0, -0.1, math.nan, math.inf])
def test_fd_burgers_refuses_a_horizon_that_is_not_positive_and_finite(
        horizon, monkeypatch):
    from parakern import oracle

    def no_grid(*args):
        raise AssertionError("grid work before the horizon check")

    monkeypatch.setattr(oracle, "_fd_grid", no_grid)
    with pytest.raises(ParameterError, match="horizon must be positive"):
        fd_solve_burgers(-2.0, 2.0, horizon,
                         FDConfig(h=1 / 8, dt=0.005, scheme="explicit"),
                         math.sin, nu=1.0)


@pytest.mark.parametrize("times", [[0.05, 0.3], [-0.01, 0.05]])
def test_fd_sample_times_outside_the_horizon_are_rejected(times):
    with pytest.raises(ParameterError, match="sample times"):
        fd_solve_linear(-2.0, 2.0, 0.1, FDConfig(h=1 / 8, dt=0.01),
                        lambda x: 1.0, sample_times=times)
    with pytest.raises(ParameterError, match="sample times"):
        fd_solve_burgers(-2.0, 2.0, 0.1,
                         FDConfig(h=1 / 8, dt=0.005, scheme="explicit"),
                         math.sin, nu=1.0, sample_times=times)


def test_fd_burgers_sample_at_zero_is_the_initial_profile():
    ts, grid, vals = fd_solve_burgers(
        -2.0, 2.0, 0.1, FDConfig(h=1 / 8, dt=0.005, scheme="explicit"),
        math.sin, nu=1.0, sample_times=[0.0, 0.1])
    assert ts[0] == 0.0 and ts[1] == pytest.approx(0.1)
    assert np.array_equal(vals[0], [math.sin(x) for x in grid])


def test_fd_solve_evaluates_coefficients_once_per_solve():
    from dataclasses import dataclass

    from parakern.funcspec import FourierEntry, GaussianMix, TimeEntry
    from parakern.recursion import ProblemCoefficients
    from parakern.solvers import ProblemSpec

    calls = {"drift": 0, "source": 0, "phi": 0}
    nodes = {"drift": 0, "source": 0, "phi": 0}

    @dataclass(frozen=True)
    class CountedEntry(FourierEntry):
        def eval(self, t, x):
            calls["drift"] += 1
            nodes["drift"] += np.shape(x)[0]
            return super().eval(t, x)

    @dataclass(frozen=True)
    class CountedSource(GaussianMix):
        def eval(self, t, x):
            calls["source"] += 1
            nodes["source"] += np.shape(x)[0]
            return super().eval(t, x)

    @dataclass(frozen=True)
    class CountedPhi(GaussianMix):
        def eval(self, t, x):
            calls["phi"] += 1
            nodes["phi"] += np.shape(x)[0]
            return super().eval(t, x)

    part = CountedEntry(1, ((0.3, (1.0,), 0.0),))
    pc = ProblemCoefficients(1, 1, {(0, 0, 0): TimeEntry(((0, part),
                                                          (1, part)))})
    ps = ProblemSpec("cauchy", (-2.0,), (2.0,), 0.1, pc,
                     phi=CountedPhi(((1.0, 2.0, (0.0,)),)),
                     source=CountedSource(((0.5, 1.0, (0.0,)),)))
    sol = fd_solve(ps, FDConfig(h=1 / 8, dt=0.01))
    nx = len(sol.points)
    # ten time-dependent steps, yet each part, the source and the initial
    # data once per node, in one call on the whole grid
    assert nodes == {"drift": 2 * nx, "source": nx, "phi": nx}
    assert calls == {"drift": 2, "source": 1, "phi": 1}


@pytest.mark.parametrize("case", ["time_drift", "time_potential",
                                  "gaussian_source", "exptime_source"])
def test_fd_solve_grid_values_equal_per_point_eval(case, monkeypatch):
    # the march rounds last-bit changes in b and V away against 1/h^2, so
    # pin the coefficient arrays themselves against TimeEntry.eval
    from parakern import oracle

    ps = _pin_specs()[case]
    seen = {}

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return fd_solve_linear(*args, **kwargs)

    monkeypatch.setattr(oracle, "fd_solve_linear", spy)
    sol = oracle.fd_solve(ps, FDConfig(h=1 / 16, dt=0.05))
    grid = sol.points[:, 0]
    pc = ps.coefficients
    for t in (0.0, 0.013, 0.37, 1.9):
        def per_point(f):
            return np.array([f(t, np.array([x])) for x in grid])

        assert np.array_equal(seen["drift"](0, 0, t, grid),
                              per_point(pc.drift[0, 0, 0].eval))
        if pc.potential:
            assert np.array_equal(seen["potential"](0, t, grid),
                                  per_point(pc.potential[0].eval))
        if seen["source"] is not None:
            assert np.array_equal(seen["source"](0, t, grid),
                                  per_point(ps.source.eval))


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def _imports(tree):
    """(module, name, enclosing function) for every import in a module."""
    import ast

    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((a.name, None, func) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                module = "." * child.level + (child.module or "")
                found.extend((module, a.name, func) for a in child.names)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return found


def test_oracle_imports_nothing_from_the_expansion_side():
    import ast
    import sys

    from parakern import oracle

    with open(oracle.__file__) as fh:
        found = _imports(ast.parse(fh.read()))
    assert found
    for module, name, func in found:
        if (module, name, func) == (".solvers", "GridSolution", "fd_solve"):
            continue    # the result container, imported lazily
        top = module.split(".")[0]
        assert module == ".errors" or top in ("numpy", "scipy") or \
            top in sys.stdlib_module_names, (module, name, func)
