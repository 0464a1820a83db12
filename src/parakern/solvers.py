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
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (ConditioningError, ParameterError, ScalingError,
                     UnsupportedSpecError)
from .funcspec import FunctionSpec, ZeroFunc
from .kernel import KernelField, _gh_integrals
from .polyalg import PolyEntry
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
        n = self.points.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i + 1}" for i in range(n)]
                            + ["component", "value"])
            for it, t in enumerate(self.times):
                for ip, p in enumerate(self.points):
                    for c in range(self.values.shape[2]):
                        writer.writerow([repr(float(t))]
                                        + [repr(float(v)) for v in p]
                                        + [c, repr(float(self.values[it, ip, c]))])

    def to_json(self, path: str):
        with open(path, "w") as fh:
            json.dump({
                "times": [float(t) for t in self.times],
                "points": [[float(v) for v in p] for p in self.points],
                "values": [[[float(v) for v in comp] for comp in row]
                           for row in self.values],
                "metadata": self.metadata,
            }, fh, indent=1)


@dataclass(frozen=True)
class BoundaryDensity:
    """Volterra boundary density on the two endpoints of a 1D domain."""

    times: np.ndarray                # (steps,)
    points: np.ndarray               # (2,)
    values: np.ndarray               # (steps, 2)

    def to_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "density"])
            for it, t in enumerate(self.times):
                for ip, x in enumerate(self.points):
                    writer.writerow([repr(float(t)), repr(float(x)),
                                     repr(float(self.values[it, ip]))])


def lattice(ps: ProblemSpec, per_axis: int = 41) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis)
            for lo, hi in zip(ps.domain_lo, ps.domain_hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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
    xs, ws = [], []
    edges = np.linspace(lo, hi, panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * nodes + 0.5 * (b + a))
        ws.append(0.5 * (b - a) * weights)
    return np.concatenate(xs), np.concatenate(ws)


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

    Spatial integrals use Gauss-Hermite centered at x (the kernel's
    Gaussian is the weight), one pass over the nodes for all components;
    the source's time integral uses composite Gauss-Legendre.  System problems share a single scalar phi across
    components: the vectorial kernel pairs every component with the same
    delta datum, so genuinely vector-valued initial data has no
    representation here and is rejected.
    """
    if ps.kind not in ("cauchy", "burgers"):
        raise ParameterError("solve_cauchy expects a cauchy problem spec")
    if isinstance(ps.phi, (list, tuple)):
        raise UnsupportedSpecError(
            "vector-valued initial data is not representable; share one phi")
    pts = points if points is not None else lattice(ps)
    pts = np.asarray(pts, dtype=float).reshape(-1, ps.dim)
    times = sorted(sample_times or [ps.horizon])
    comps = range(ps.coefficients.components)
    has_source = not isinstance(ps.source, ZeroFunc)

    def phi(ys):
        return ps.phi.eval(0.0, ys)

    values = np.zeros((len(times), len(pts), len(comps)))
    for it, t in enumerate(times):
        if has_source:
            snodes, sweights = _gl_rule(0.0, t, quad.gl_order, quad.gl_panels)
        for ip, x in enumerate(pts):
            u, _ = _gh_integrals(fld, t, 0.0, x, phi, comps, quad.gh_order)
            if has_source:
                for s, w in zip(snodes, sweights):
                    u += w * _gh_integrals(
                        fld, t, s, x, lambda ys, s=s: ps.source.eval(s, ys),
                        comps, quad.gh_order)[0]
            values[it, ip] = u
    return GridSolution(np.array(times, dtype=float), pts, values,
                        {"kind": ps.kind, "K": fld.K, "D": fld.D,
                         "gh_order": quad.gh_order, "gl_order": quad.gl_order})


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


class _Ibvp2Machine:
    """Kernel sums and quadrature of one Robin solve, on arrays.

    Every kernel value is a row (origin s, time t, point x, centre) of a
    ``KernelField.pair_log_terms`` call.  The centres are the two
    endpoints and the domain rules' nodes.  For autonomous coefficients
    their expansions are built in one batch at origin 0 and held for the
    solve.  Time-dependent ones are built per call for its distinct
    (origin, centre) pairs, with an origin per centre of a batch; each
    batch holds no more pairs than there are centres, so it peaks like
    the autonomous batch.
    """

    def __init__(self, ps: ProblemSpec, fld: KernelField,
                 quad: QuadratureConfig):
        self.ps = ps
        self.fld = fld
        a, b = ps.domain_lo[0], ps.domain_hi[0]
        self.ends = np.array([a, b])
        self.has_source = not isinstance(ps.source, ZeroFunc)
        # phi at the domain nodes once per solve; where it vanishes a node
        # carries nothing
        ys, ws = _gl_rule(a, b, quad.gl_order, max(quad.gl_panels, 8))
        fv = ps.phi.eval(0.0, ys[:, None])
        live = fv != 0.0
        self.phi_c = 2 + np.arange(live.sum())
        self.phi_w = ws[live] * fv[live]
        centres = [self.ends, ys[live]]
        if self.has_source:
            # s = t - r^2 flattens the (t-s)^(-1/2) endpoint behavior; the
            # time integral smooths the spatial one, so coarser rules do
            self.src_y, self.src_w = _gl_rule(a, b, quad.gl_order, 4)
            self.src_c = 2 + len(self.phi_c) + np.arange(len(self.src_y))
            self.r_rule = _gl_nodes(max(8, quad.gl_order // 2))
            centres.append(self.src_y)
        self.centres = np.concatenate(centres)
        self.coeffs0 = None if fld.pc.time_dependent else \
            fld.pair_coeffs(self.centres[:, None])

    def integrate(self, s, t, x, centre, weight, gradient=False):
        """Sums over the last axis of weight * p(t, x; s, y) and, with
        ``gradient``, of weight * dp/dx, for y = ``centres[centre]``.

        The arguments broadcast together; rows of zero weight are skipped.
        """
        fld = self.fld
        shape = np.broadcast_shapes(*map(np.shape, (s, t, x, centre, weight)))
        live = np.broadcast_to(weight, shape) != 0.0
        s, t, x, centre, w = (np.broadcast_to(v, shape)[live]
                              for v in (s, t, x, centre, weight))
        dx = (x - self.centres[centre])[:, None]
        if not fld.pc.time_dependent:
            logp, g = fld.pair_log_terms(t - s, dx, self.coeffs0, centre,
                                         gradient=gradient)
        else:
            logp = np.empty(len(s))
            g = np.empty_like(dx) if gradient else None
            # distinct (origin, centre) pairs, as many per batch as the
            # autonomous solve's one batch has centres
            keys, key = np.unique(np.stack([s, centre], axis=1), axis=0,
                                  return_inverse=True)
            step = len(self.centres)
            for lo in range(0, len(keys), step):
                rows = (key >= lo) & (key < lo + step)
                chunk = keys[lo:lo + step]
                coeffs = fld.pair_coeffs(
                    self.centres[chunk[:, 1].astype(int), None], chunk[:, 0])
                logp[rows], g_rows = fld.pair_log_terms(
                    t[rows] - s[rows], dx[rows], coeffs, key[rows] - lo,
                    gradient=gradient)
                if gradient:
                    g[rows] = g_rows
        out = np.zeros(shape)
        out[live] = w * np.exp(logp)
        if not gradient:
            return out.sum(axis=-1), None
        dout = np.zeros(shape)
        dout[live] = out[live] * g[:, 0]
        return out.sum(axis=-1), dout.sum(axis=-1)

    def domain_term(self, ts, xs, gradient=False):
        """phi and source contributions at every (time, point), shape
        (len(ts), len(xs)); with ``gradient`` also their x-derivatives.
        The source's (r, node) rows follow phi's nodes on the last axis."""
        ts = np.asarray(ts, dtype=float)[:, None]
        s = np.zeros((len(ts), len(self.phi_c)))
        weight, centre = np.broadcast_to(self.phi_w, s.shape), self.phi_c
        if self.has_source:
            # s = t - r^2, r by Gauss-Legendre on [0, sqrt(t)]
            nodes, wr = self.r_rule
            root = np.sqrt(ts)
            r = 0.5 * root * nodes + 0.5 * root
            sr = ts - r * r
            fv = self.ps.source.eval(sr[:, :, None], self.src_y[:, None])
            rw = 2.0 * r * (0.5 * root * wr)
            s = np.hstack([s, np.repeat(sr, len(self.src_y), axis=1)])
            weight = np.hstack([weight, (rw[:, :, None] * self.src_w
                                         * fv).reshape(len(ts), -1)])
            centre = np.concatenate([centre, np.tile(self.src_c, len(nodes))])
        return self.integrate(s[:, None], ts[:, None],
                              np.asarray(xs, dtype=float)[:, None], centre,
                              weight[:, None], gradient)


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
    per origin s_i otherwise.  Sample times must lie in (0, horizon] and
    should sit on the marching grid.
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
    mach = _Ibvp2Machine(ps, fld, quad)
    ends, normals = mach.ends, np.array([-1.0, 1.0])
    edges = np.linspace(0.0, T, steps + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    tm = edges[1:]

    # forcing h(t_m, x_e) from one kernel evaluation per row, value and
    # normal derivative together
    alpha, psi = (np.broadcast_to(f.eval(tm[:, None], ends[:, None]),
                                  (steps, 2)) for f in (ps.alpha, ps.psi))
    val, dx_val = mach.domain_term(tm, ends, gradient=True)
    h = psi - normals * dx_val - alpha * val

    # jump kernel times sqrt(t_m - s_i) for the endpoint pairs (e, e'): P
    # for p, G for n_e dp/dx.  Autonomous coefficients: one row per lag
    # L = m - 1 - i, where t_m - s_i = mids[L]; time-dependent: rows
    # (m - 1, i), zero for i >= m
    if fld.pc.time_dependent:
        s_, t_ = mids[None, :], tm[:, None]
    else:
        s_, t_ = np.zeros(steps), mids
    s_, t_ = s_[..., None, None, None], t_[..., None, None, None]
    P, dP = mach.integrate(s_, t_, ends[:, None, None], np.arange(2)[:, None],
                           np.sqrt(np.maximum(t_ - s_, 0.0)), gradient=True)
    G = normals[:, None] * dP

    # gamma(s) = g(s) / sqrt(s) with g piecewise constant; the 1/sqrt(s)
    # factor carries the startup transient exactly.  Row m - 1 of wts
    # weighs the intervals up to t_m; the step matrices
    # A_m = I / (2 sqrt(t_m)) + w_m kappa_m do not depend on the density,
    # so all of them are built and checked before the march
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
    gvals = np.zeros((steps, 2))
    for m in range(steps):
        rows = (m, slice(m)) if fld.pc.time_dependent else slice(m, 0, -1)
        kappa = G[rows] + alpha[m][:, None] * P[rows]
        rhs = h[m] - np.einsum("i,ief,if->e", wts[m, :m], kappa, gvals[:m])
        gvals[m] = np.linalg.solve(A[m], rhs)

    # reconstruction on the interior lattice; the layer integrand is
    # resolved on subdivided intervals, the density itself is not refined
    if points is None:
        points = np.linspace(ps.domain_lo[0], ps.domain_hi[0], 23)[1:-1]
    points = np.asarray(points, dtype=float).reshape(-1, 1)
    nsub = 4
    values = np.zeros((len(times), len(points), 1))
    for it, t in enumerate(times):
        mlast = max(1, min(steps, int(round(t / (T / steps)))))
        subs = np.linspace(edges[:mlast], edges[1:mlast + 1], nsub + 1,
                           axis=1)
        wts = _double_sqrt_weights(t, subs)
        sm = np.minimum(0.5 * (subs[:, :-1] + subs[:, 1:]), t - 1e-13)
        # rows (x, i, sub, e')
        weight = wts[:, :, None] * np.sqrt(t - sm)[:, :, None] \
            * gvals[:mlast, None, :]
        layer, _ = mach.integrate(sm[:, :, None], t,
                                  points[:, :, None, None], np.arange(2),
                                  weight)
        values[it, :, 0] = mach.domain_term([t], points[:, 0])[0][0] \
            + layer.sum(axis=(1, 2))
    sol = GridSolution(np.array(times, dtype=float), points, values,
                       {"kind": "ibvp2", "steps": steps, "K": fld.K})
    return sol, BoundaryDensity(mids, ends, gvals / np.sqrt(mids)[:, None])


# ---------------------------------------------------------------------------
# Burgers via the logarithmic substitution
# ---------------------------------------------------------------------------

def burgers_demo(ps: ProblemSpec, K: int = 4,
                 quad: QuadratureConfig = QuadratureConfig(),
                 points: np.ndarray | None = None,
                 sample_times: Sequence[float] | None = None) -> GridSolution:
    """Viscous Burgers with potential initial data v(0) = -grad Phi_0.

    Writing Phi = 2 nu ln psi turns the potential-form momentum equation
    into the linear heat equation psi_t = nu Lap psi + (F/(2 nu)) psi.
    A further time rescale s = nu t reduces to unit diffusion with
    potential F/(2 nu^2), which the expansion kernel propagates, and the
    velocity is recovered as v = -2 nu grad psi / psi with the gradient
    taken analytically under the convolution integral.
    """
    if ps.kind != "burgers":
        raise ParameterError("burgers_demo expects a burgers problem spec")
    nu = ps.nu
    n = ps.dim
    pts = points if points is not None else lattice(ps)
    pts = np.asarray(pts, dtype=float).reshape(-1, n)

    def psi0(ys):
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
    psi0(pts)

    potential = {}
    if not isinstance(ps.source, ZeroFunc):
        fparts = getattr(ps.source, "terms", None)
        if fparts is None:
            raise UnsupportedSpecError(
                "burgers forcing must be a spatial polynomial")
        potential[0] = PolyEntry(n, tuple(
            (c / (2.0 * nu * nu), e) for c, e in fparts))
    pc_heat = ProblemCoefficients(n, 1, {}, potential,
                                  bound_C=ps.coefficients.bound_C,
                                  domain_radius_R=ps.coefficients.domain_radius_R)
    fld = KernelField(pc_heat, WarpParams(), K=K)
    times = sorted(sample_times or [ps.horizon])
    values = np.zeros((len(times), len(pts), n))
    for it, t in enumerate(times):
        s_heat = nu * t
        for ip, x in enumerate(pts):
            psi, grad = _gh_integrals(fld, s_heat, 0.0, x, psi0,
                                      order=quad.gh_order, gradient=True)
            values[it, ip, :] = -2.0 * nu * grad[0] / psi[0]
    return GridSolution(np.array(times, dtype=float), pts, values,
                        {"kind": "burgers", "nu": nu, "K": K,
                         "gh_order": quad.gh_order})


def _psi0_scaling(what: str, phi0: np.ndarray) -> ScalingError:
    """psi_0 = exp(Phi_0 / (2 nu)) leaves the float range; Phi_0 is defined
    up to a constant, so name the shift that brings its maximum to 0."""
    return ScalingError(
        f"psi0 {what}; Phi_0 is defined up to a constant, subtract "
        f"about {float(np.max(phi0)):.3g} before running")
