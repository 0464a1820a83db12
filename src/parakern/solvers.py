"""Solution representations built on the expansion kernel.

* :func:`solve_cauchy`  -- initial data and sources convolved against the
  kernel (Gauss-Hermite in space, composite Gauss-Legendre in time).
* :func:`solve_ibvp2`   -- 1D second-type (Robin) initial-boundary problem
  via a Volterra integral equation of the second kind for a boundary
  density, marched with a product-integration rule that absorbs the
  (t - s)^(-1/2) kernel singularity.
* :func:`burgers_demo`  -- viscous Burgers with potential initial data
  through the logarithmic substitution onto a heat equation with
  potential term.

Each solve hands all its kernel integrals to one
:meth:`KernelField.integrate` call (through
:meth:`KernelField.gauss_hermite` for the convolutions); none loops over
points.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (ConditioningError, ParameterError, ScalingError,
                     UnsupportedSpecError)
from .funcspec import FunctionSpec, PolyEntry, ZeroFunc
from .kernel import KernelField, Rows
from .polyalg import _tensor_grid
from .recursion import ProblemCoefficients, WarpParams


# ---------------------------------------------------------------------------
# problem and result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureConfig:
    gh_order: int = 40
    gl_order: int = 32
    gl_panels: int = 4
    steps: int = 64


@dataclass(frozen=True)
class ProblemSpec:
    """One Cauchy, second-type boundary, or Burgers problem."""

    kind: str
    domain_lo: tuple[float, ...]
    domain_hi: tuple[float, ...]
    horizon: float
    coefficients: ProblemCoefficients
    phi: FunctionSpec = field(default_factory=ZeroFunc)
    source: FunctionSpec = field(default_factory=ZeroFunc)
    alpha: FunctionSpec = field(default_factory=ZeroFunc)
    psi: FunctionSpec = field(default_factory=ZeroFunc)
    nu: float = 0.0
    phi0: FunctionSpec = field(default_factory=ZeroFunc)

    def __post_init__(self):
        if self.kind not in ("cauchy", "ibvp2", "burgers"):
            raise ParameterError(f"unknown problem kind {self.kind!r}")
        if self.horizon <= 0:
            raise ParameterError("horizon must be positive")
        if len(self.domain_lo) != len(self.domain_hi):
            raise ParameterError("domain bounds disagree in dimension")
        if any(hi <= lo for lo, hi in zip(self.domain_lo, self.domain_hi)):
            raise ParameterError("domain box is degenerate")
        if self.kind == "ibvp2" and len(self.domain_lo) != 1:
            raise UnsupportedSpecError(
                "second-type boundary problems are desk-scale 1D only")
        if self.kind == "burgers" and self.nu <= 0:
            raise ParameterError("burgers requires positive viscosity")

    @property
    def dim(self) -> int:
        return len(self.domain_lo)


@dataclass(frozen=True)
class GridSolution:
    """Values on a time sequence times a spatial lattice."""

    times: np.ndarray                # (nt,)
    points: np.ndarray               # (npts, n)
    values: np.ndarray               # (nt, npts, components)
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path: str):
        """One row per (time, point, component), written at once."""
        times, points, values = (np.asarray(a, dtype=float).tolist()
                                 for a in (self.times, self.points,
                                           self.values))
        n = self.points.shape[1]
        lines = [",".join(["t", *(f"x{i + 1}" for i in range(n)),
                           "component", "value"])]
        for t, row in zip(times, values):
            for p, comps in zip(points, row):
                head = ",".join(map(repr, [t, *p]))
                lines += [f"{head},{c},{v!r}" for c, v in enumerate(comps)]
        _write_csv(path, lines)

    def to_json(self, path: str):
        times, points, values = (np.asarray(a, dtype=float).tolist()
                                 for a in (self.times, self.points,
                                           self.values))
        _write_text(path, json.dumps({
            "times": times, "points": points, "values": values,
            "metadata": self.metadata}, indent=1))


@dataclass(frozen=True)
class BoundaryDensity:
    """Volterra boundary density on the two endpoints of a 1D domain."""

    times: np.ndarray                # (steps,)
    points: np.ndarray               # (2,)
    values: np.ndarray               # (steps, 2)

    def to_csv(self, path: str):
        """One row per (time, endpoint), written at once."""
        times, points, values = (np.asarray(a, dtype=float).tolist()
                                 for a in (self.times, self.points,
                                           self.values))
        _write_csv(path, ["t,x,density"] + [
            f"{t!r},{x!r},{v!r}"
            for t, row in zip(times, values) for x, v in zip(points, row)])


def _write_csv(path: str | None, lines: list[str]):
    """Write ``lines`` at once to ``path`` (None: stdout), each ended by
    CRLF as ``csv.writer`` does."""
    text = "\r\n".join(lines) + "\r\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _write_text(path: str, text: str):
    """The one writer of every output file: ``text`` over ``path`` in place.
    No ``O_TRUNC``, since ext4 flushes a file emptied to length 0 when it
    is closed; a regular file is cut to the new length (``/dev/null``
    cannot be).  Not atomic, as ``open(path, "w")`` is not."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def lattice(ps: ProblemSpec, per_axis: int = 41) -> np.ndarray:
    return _tensor_grid([np.linspace(lo, hi, per_axis)
                         for lo, hi in zip(ps.domain_lo, ps.domain_hi)])


# ---------------------------------------------------------------------------
# Gauss quadrature helpers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gl_rule(lo: float, hi: float, order: int, panels: int):
    nodes, weights = _gl_nodes(order)
    edges = np.linspace(lo, hi, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    return ((0.5 * (b - a) * nodes + 0.5 * (b + a)).ravel(),
            (0.5 * (b - a) * weights).ravel())


# ---------------------------------------------------------------------------
# Cauchy problems
# ---------------------------------------------------------------------------

def solve_cauchy(ps: ProblemSpec, fld: KernelField,
                 quad: QuadratureConfig = QuadratureConfig(),
                 points: np.ndarray | None = None,
                 sample_times: Sequence[float] | None = None) -> GridSolution:
    """Kernel representation of the Cauchy solution.

    u_i(t, x) = int p_i(t, x; 0, y) phi(y) dy
              + int_0^t int p_i(t, x; s, y) f(s, y) dy ds.

    Spatial integrals use Gauss-Hermite centred at x (the kernel's
    Gaussian is the weight), the source's time integral composite
    Gauss-Legendre: one :meth:`KernelField.gauss_hermite` call for all
    points, sample times, Gauss-Legendre nodes and components.  System
    problems share a single scalar phi across components: the vectorial
    kernel pairs every component with the same delta datum, so genuinely
    vector-valued initial data has no representation here and is rejected.
    """
    if ps.kind != "cauchy":
        raise ParameterError("solve_cauchy expects a cauchy problem spec")
    if isinstance(ps.phi, (list, tuple)):
        raise UnsupportedSpecError(
            "vector-valued initial data is not representable; share one phi")
    pts = points if points is not None else lattice(ps)
    pts = np.asarray(pts, dtype=float).reshape(-1, ps.dim)
    times = np.array(sorted(sample_times or [ps.horizon]), dtype=float)
    passes = [(times[:, None], 0.0, pts,
               lambda s, ys: ps.phi.eval(0.0, ys))]
    if not isinstance(ps.source, ZeroFunc):
        # (time, GL node) pairs; the source passes add a GL axis
        snodes, sweights = map(np.array, zip(*(
            _gl_rule(0.0, t, quad.gl_order, quad.gl_panels) for t in times)))
        passes.append((times[:, None, None], snodes[:, None, :],
                       pts[:, None, :], ps.source.eval))
    (u, _), *source = fld.gauss_hermite(quad.gh_order, passes)
    if source:
        # added one GL node at a time: a sequential cumulative sum
        u = np.cumsum(np.concatenate(
            [u[..., None], sweights[:, None, :] * source[0][0]], axis=-1),
            axis=-1)[..., -1]
    return GridSolution(times, pts, u.transpose(1, 2, 0),
                        {"kind": ps.kind, **_kernel_meta(fld),
                         "gh_order": quad.gh_order, "gl_order": quad.gl_order})


def _kernel_meta(fld: KernelField) -> dict:
    """The kernel settings a solve's metadata records."""
    return {"K": fld.K, "D": fld.D, "mode": fld.warp.mode,
            "beta": fld.warp.beta}


# ---------------------------------------------------------------------------
# second-type initial-boundary problems (1D)
# ---------------------------------------------------------------------------

def _double_sqrt_weights(t_m, edges: np.ndarray) -> np.ndarray:
    """Exact integrals of 1/sqrt(s (t_m - s)) over the marching intervals.

    Antiderivative 2 arcsin(sqrt(s/t)), along the last axis of ``edges``;
    ``t_m`` broadcasts against ``edges``, and intervals past t_m get 0.
    These weights absorb both the kernel singularity at s -> t and the
    startup singularity of the boundary density at s -> 0 (the
    restricted initial-data potential
    delivers only half the data on the boundary; the missing half
    enters through a density transient ~ s^(-1/2)).
    """
    ratios = np.clip(edges / t_m, 0.0, 1.0)
    anti = 2.0 * np.arcsin(np.sqrt(ratios))
    return anti[..., 1:] - anti[..., :-1]


def _domain_rows(ps: ProblemSpec, quad: QuadratureConfig, ts):
    """The centres of one Robin solve, (nodes + 2,), and the origins,
    centre indices and weights of its phi and source terms at every time
    of ``ts``: shapes (len(ts), nodes), (nodes,) and (len(ts), nodes).

    The centres are the two endpoints and the domain rules' nodes.  phi
    and the source are each evaluated once; the source's (r, node)
    columns follow phi's nodes.
    """
    a, b = ps.domain_lo[0], ps.domain_hi[0]
    ys, ws = _gl_rule(a, b, quad.gl_order, max(quad.gl_panels, 8))
    ts = np.asarray(ts, dtype=float)[:, None]
    s = np.zeros((len(ts), len(ys)))
    weight = np.broadcast_to(ws * ps.phi.eval(0.0, ys[:, None]), s.shape)
    centres, centre = [np.array([a, b]), ys], 2 + np.arange(len(ys))
    if not isinstance(ps.source, ZeroFunc):
        # s = t - r^2, r by Gauss-Legendre on [0, sqrt(t)], flattens the
        # (t-s)^(-1/2) endpoint behavior; the time integral smooths the
        # spatial one, so coarser rules do
        src_y, src_w = _gl_rule(a, b, quad.gl_order, 4)
        nodes, wr = _gl_nodes(max(8, quad.gl_order // 2))
        root = np.sqrt(ts)
        r = 0.5 * root * nodes + 0.5 * root
        sr = ts - r * r
        fv = ps.source.eval(sr[:, :, None], src_y[:, None])
        rw = 2.0 * r * (0.5 * root * wr)
        s = np.hstack([s, np.repeat(sr, len(src_y), axis=1)])
        weight = np.hstack([weight, (rw[:, :, None] * src_w
                                     * fv).reshape(len(ts), -1)])
        centre = np.concatenate([centre, np.tile(
            2 + len(ys) + np.arange(len(src_y)), len(nodes))])
        centres.append(src_y)
    return np.concatenate(centres), s, centre, weight


def solve_ibvp2(ps: ProblemSpec, fld: KernelField, steps: int = 64,
                quad: QuadratureConfig = QuadratureConfig(),
                points: np.ndarray | None = None,
                sample_times: Sequence[float] | None = None
                ) -> tuple[GridSolution, BoundaryDensity]:
    """Second-type (Robin) problem du/dnu + alpha u = psi on both endpoints.

    The solution ansatz adds a boundary layer to the Cauchy terms:
    u = phi-term + f-term + sum_e int_0^t p(t, x; s, x_e) gamma(s, e) ds.
    The density gamma solves the second-kind Volterra system
    gamma/2 + int_0^t K gamma ds = h, K = [dp/dnu + alpha p] and
    h = psi - [d/dnu + alpha](phi-term + f-term) at the endpoints,
    marched on a uniform grid with gamma represented as a
    piecewise-constant factor over 1/sqrt(s) and product weights that
    integrate 1/sqrt(s (t - s)) exactly, absorbing the kernel
    singularity and the density's startup transient at once.
    K is evaluated once per lag t - s for autonomous coefficients, once
    per origin s_i otherwise.  Every kernel row of the solve is evaluated
    in one pass before the march, which is one forward substitution.
    Sample times must lie in (0, horizon] and should sit on the marching
    grid.
    """
    if ps.kind != "ibvp2":
        raise ParameterError("solve_ibvp2 expects an ibvp2 problem spec")
    if steps < 2:
        raise ParameterError("need at least 2 marching steps")
    T = ps.horizon
    times = sorted(sample_times or [T])
    if not (0.0 < times[0] and times[-1] <= T):
        raise ParameterError(f"sample times must lie in (0, {T}], where "
                             f"the density is marched; got {times}")
    ends, normals = np.array([ps.domain_lo[0], ps.domain_hi[0]]), \
        np.array([-1.0, 1.0])
    edges = np.linspace(0.0, T, steps + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    tm = edges[1:]
    if points is None:
        points = np.linspace(ps.domain_lo[0], ps.domain_hi[0], 23)[1:-1]
    points = np.asarray(points, dtype=float).reshape(-1, 1)

    # every kernel row of the solve is known before the march, so all are
    # evaluated in one pass: the domain terms at the step times (the
    # forcing, value and normal derivative together) and at the sample
    # times, the jump kernel, and the layer rows of the reconstruction.
    # Points carry a trailing axis of length 1, the dimension
    centres, s, centre, weight = _domain_rows(ps, quad,
                                              np.concatenate([tm, times]))
    terms = [Rows(s[:steps, None], tm[:, None, None], ends[:, None, None],
                  centre, weight[:steps, None], gradient=True),
             Rows(s[steps:, None], np.array(times)[:, None, None],
                  points[:, None], centre, weight[steps:, None])]

    # jump kernel times sqrt(t_m - s_i) for the endpoint pairs (e, e'): P
    # for p, G for n_e dp/dx.  Step m = 0, 1, ... reaches t_m = tm[m].
    # Autonomous coefficients: one row per lag L = m - i, where
    # t_m - s_i = mids[L]; time-dependent: rows (m, i), zero for i > m
    if fld.pc.time_dependent:
        s_, t_ = mids[None, :], tm[:, None]
    else:
        s_, t_ = np.zeros(steps), mids
    s_, t_ = s_[..., None, None, None], t_[..., None, None, None]
    terms.append(Rows(s_, t_, ends[:, None, None, None],
                      np.arange(2)[:, None], np.sqrt(np.maximum(t_ - s_, 0.0)),
                      gradient=True))

    # the layer at a sample time t, one row (x, i, e', sub) per subdivision
    # of the intervals up to t; the integrand is resolved on the
    # subdivisions, the density itself is not refined.  Summed over them,
    # the rows give the layer's weight on each density value g_i
    nsub = 4
    mlasts = [max(1, min(steps, int(round(t / (T / steps))))) for t in times]
    for t, mlast in zip(times, mlasts):
        subs = np.linspace(edges[:mlast], edges[1:mlast + 1], nsub + 1,
                           axis=1)
        wts = _double_sqrt_weights(t, subs)
        sm = np.minimum(0.5 * (subs[:, :-1] + subs[:, 1:]), t - 1e-13)
        terms.append(Rows(sm[:, None, :], t, points[:, None, None, None],
                          np.arange(2)[:, None],
                          (wts * np.sqrt(t - sm))[:, None, :]))
    (val, dx_val), (dom, _), (P, dP), *layers = (
        (v[0], None if g is None else g[0, ..., 0])
        for v, g in fld.integrate(centres[:, None], terms))

    alpha, psi = (np.broadcast_to(f.eval(tm[:, None], ends[:, None]),
                                  (steps, 2)) for f in (ps.alpha, ps.psi))
    h = psi - normals * dx_val - alpha * val
    G = normals[:, None] * dP

    # gamma(s) = g(s) / sqrt(s) with g piecewise constant; the 1/sqrt(s)
    # factor carries the startup transient exactly.  Row m of wts weighs
    # the intervals up to t_m; the step matrices
    # A_m = I / (2 sqrt(t_m)) + w_m kappa_m do not depend on the density,
    # so all of them are built, checked and inverted before the march
    wts = _double_sqrt_weights(tm[:, None], edges)
    diag = np.arange(steps)
    lag0 = (diag, diag) if fld.pc.time_dependent else 0
    kappa0 = G[lag0] + alpha[:, :, None] * P[lag0]
    A = 0.5 * np.eye(2) / np.sqrt(tm)[:, None, None] \
        + wts[diag, diag, None, None] * kappa0
    # scale-free: the smallest singular value against the largest and
    # against the identity part 0.5/sqrt(t_m), which sets A's scale
    sv = np.linalg.svd(A, compute_uv=False)
    singular = ~(sv[:, -1] > 1e-10 * np.maximum(sv[:, 0], 0.5 / np.sqrt(tm)))
    if singular.any():
        m = int(singular.argmax())
        raise ConditioningError(
            f"singular marching step at t={tm[m]}: singular values {sv[m]}")
    inv = np.linalg.inv(A)

    # the history blocks w_{m,i} kappa_{m,i}, i < m, in row order and
    # transposed: step m's are rows m(m-1) to m(m+1) of one (., 2) array,
    # and its history sum is one product with g_0 ... g_{m-1} flattened
    below = np.tri(steps, k=-1, dtype=bool)
    w = wts[below]
    del wts
    rows = below if fld.pc.time_dependent else (diag[:, None] - diag)[below]
    Pt, Gt = (np.ascontiguousarray(np.swapaxes(a, -1, -2)) for a in (P, G))
    hist = Pt[rows]
    hist *= np.repeat(alpha, diag, axis=0)[:, None, :]
    for ep in range(2):
        # a row of the blocks at a time halves the gathered temporary
        hist[:, ep] += Gt[..., ep, :][rows]
    hist *= w[:, None, None]
    hist = hist.reshape(-1, 2)
    gvals = np.zeros((steps, 2))
    flat = gvals.reshape(-1)
    for m in range(steps):
        lo = m * (m - 1)
        gvals[m] = inv[m] @ (h[m] - flat[:2 * m] @ hist[lo:lo + 2 * m])

    values = np.zeros((len(times), len(points), 1))
    for it, ((layer, _), mlast) in enumerate(zip(layers, mlasts)):
        values[it, :, 0] = dom[it] + layer.reshape(len(points), -1) \
            @ flat[:2 * mlast]
    sol = GridSolution(np.array(times, dtype=float), points, values,
                       {"kind": "ibvp2", "steps": steps, **_kernel_meta(fld)})
    return sol, BoundaryDensity(mids, ends, gvals / np.sqrt(mids)[:, None])


# ---------------------------------------------------------------------------
# Burgers via the logarithmic substitution
# ---------------------------------------------------------------------------

def burgers_demo(ps: ProblemSpec, K: int = 4,
                 quad: QuadratureConfig = QuadratureConfig(),
                 points: np.ndarray | None = None,
                 sample_times: Sequence[float] | None = None,
                 warp: WarpParams = WarpParams(),
                 D: int | None = None) -> GridSolution:
    """Viscous Burgers with potential initial data v(0) = -grad Phi_0.

    Writing Phi = 2 nu ln psi turns the potential-form momentum equation
    into the linear heat equation psi_t = nu Lap psi + (F/(2 nu)) psi.
    A further time rescale s = nu t reduces to unit diffusion with
    potential F/(2 nu^2), which the expansion kernel propagates, and the
    velocity is recovered as v = -2 nu grad psi / psi with the gradient
    taken analytically under the convolution integral.  The heat kernel
    is expanded at order K, degree cap D and warp ``warp``, as in
    :class:`KernelField`.  The problem's own drift and potential have no
    place in this substitution and are refused.
    """
    if ps.kind != "burgers":
        raise ParameterError("burgers_demo expects a burgers problem spec")
    if ps.coefficients.drift or ps.coefficients.potential:
        raise UnsupportedSpecError(
            "burgers takes no drift or potential entries; its forcing f "
            "becomes the heat problem's potential")
    nu = ps.nu
    n = ps.dim
    pts = points if points is not None else lattice(ps)
    pts = np.asarray(pts, dtype=float).reshape(-1, n)

    def psi0(s, ys):
        """psi_0 = exp(Phi_0 / (2 nu)) at rows of ``ys``; fails loudly
        where it overflows."""
        phi0 = ps.phi0.eval(0.0, ys)
        with np.errstate(over="ignore"):
            vals = np.exp(phi0 / (2.0 * nu))
        if np.isinf(vals).any():
            raise _psi0_scaling("overflows", phi0)
        return vals

    # on the lattice psi_0 must neither under- nor overflow; at the nodes
    # it must not overflow
    phi0 = ps.phi0.eval(0.0, pts)
    if np.min(phi0 / (2.0 * nu)) < -700.0:
        raise _psi0_scaling("underflows", phi0)
    psi0(0.0, pts)

    potential = {}
    if not isinstance(ps.source, ZeroFunc):
        if not isinstance(ps.source, PolyEntry):
            raise UnsupportedSpecError(
                "burgers forcing must be a spatial polynomial")
        potential[0] = PolyEntry(n, tuple(
            (c / (2.0 * nu * nu), e) for c, e in ps.source.terms))
    pc_heat = ProblemCoefficients(n, 1, {}, potential,
                                  bound_C=ps.coefficients.bound_C,
                                  domain_radius_R=ps.coefficients.domain_radius_R)
    fld = KernelField(pc_heat, warp, K=K, D=D)
    times = np.array(sorted(sample_times or [ps.horizon]), dtype=float)
    [(psi, grad)] = fld.gauss_hermite(
        quad.gh_order, [(nu * times[:, None], 0.0, pts, psi0)], gradient=True)
    values = -2.0 * nu * grad[0] / psi[0][..., None]
    return GridSolution(times, pts, values,
                        {"kind": "burgers", "nu": nu, **_kernel_meta(fld),
                         "gh_order": quad.gh_order})


def _psi0_scaling(what: str, phi0: np.ndarray) -> ScalingError:
    """psi_0 = exp(Phi_0 / (2 nu)) leaves the float range; Phi_0 is defined
    up to a constant, so name the shift that brings its maximum to 0."""
    return ScalingError(
        f"psi0 {what}; Phi_0 is defined up to a constant, subtract "
        f"about {float(np.max(phi0)):.3g} before running")
