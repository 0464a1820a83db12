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
import math
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

    def phi(y):
        return ps.phi.eval(0.0, y)

    values = np.zeros((len(times), len(pts), len(comps)))
    for it, t in enumerate(times):
        if has_source:
            snodes, sweights = _gl_rule(0.0, t, quad.gl_order, quad.gl_panels)
        for ip, x in enumerate(pts):
            u, _ = _gh_integrals(fld, t, 0.0, x, phi, comps, quad.gh_order)
            if has_source:
                for s, w in zip(snodes, sweights):
                    u += w * _gh_integrals(
                        fld, t, s, x, lambda y, s=s: ps.source.eval(s, y),
                        comps, quad.gh_order)[0]
            values[it, ip] = u
    return GridSolution(np.array(times, dtype=float), pts, values,
                        {"kind": ps.kind, "K": fld.K, "D": fld.D,
                         "gh_order": quad.gh_order, "gl_order": quad.gl_order})


# ---------------------------------------------------------------------------
# second-type initial-boundary problems (1D)
# ---------------------------------------------------------------------------

def _double_sqrt_weights(t_m: float, edges: np.ndarray) -> np.ndarray:
    """Exact integrals of 1/sqrt(s (t_m - s)) over the marching intervals.

    Antiderivative 2 arcsin(sqrt(s/t)).  These weights absorb both the
    kernel singularity at s -> t and the startup singularity of the
    boundary density at s -> 0 (the restricted initial-data potential
    delivers only half the data on the boundary; the missing half enters
    through a density transient ~ s^(-1/2)).
    """
    ratios = np.clip(edges / t_m, 0.0, 1.0)
    anti = 2.0 * np.arcsin(np.sqrt(ratios))
    return anti[1:] - anti[:-1]


class _Ibvp2Machine:
    """Shared quadrature machinery for the Volterra march and rebuild."""

    def __init__(self, ps: ProblemSpec, fld: KernelField,
                 quad: QuadratureConfig):
        self.ps = ps
        self.fld = fld
        self.quad = quad
        self.a = ps.domain_lo[0]
        self.b = ps.domain_hi[0]
        self.ends = np.array([self.a, self.b])
        self.normals = np.array([-1.0, 1.0])
        self.has_source = not isinstance(ps.source, ZeroFunc)

    def kernel_k(self, t: float, e: int, s: float, eprime: int) -> float:
        """K = [dp/dnu + alpha p](t, x_e; s, y_e'), the jump-equation kernel."""
        xe = np.array([self.ends[e]])
        ye = np.array([self.ends[eprime]])
        lp = self.fld.pair_log_value(t, s, xe, ye)
        lg = self.fld.pair_log_gradient(t, s, xe, ye)
        p = math.exp(lp)
        alpha = self.ps.alpha.eval(t, xe)
        return self.normals[e] * lg[0] * p + alpha * p

    def layer_value(self, t: float, x: np.ndarray, s: float,
                    eprime: int) -> float:
        ye = np.array([self.ends[eprime]])
        return math.exp(self.fld.pair_log_value(t, s, x, ye))

    def domain_term(self, t: float, x: np.ndarray, with_nu: int | None):
        """phi and source contributions (value or normal derivative at x).

        ``with_nu`` is None for plain values or the endpoint index whose
        outward normal direction to differentiate along.
        """
        quad = self.quad
        ys, ws = _gl_rule(self.a, self.b, quad.gl_order,
                          max(quad.gl_panels, 8))

        def kernel_factor(t_, s_, y):
            lp = self.fld.pair_log_value(t_, s_, x, np.array([y]))
            p = math.exp(lp)
            if with_nu is None:
                return p
            lg = self.fld.pair_log_gradient(t_, s_, x, np.array([y]))
            return self.normals[with_nu] * lg[0] * p

        total = 0.0
        for y, w in zip(ys, ws):
            fv = self.ps.phi.eval(0.0, np.array([y]))
            if fv != 0.0:
                total += w * kernel_factor(t, 0.0, y) * fv
        if self.has_source:
            # s = t - r^2 flattens the (t-s)^(-1/2) endpoint behavior; the
            # time integral smooths the spatial one, so coarser rules do
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

    def forcing(self, t: float, e: int) -> float:
        """h(t, x_e) = psi - [d/dnu + alpha](phi-term + f-term).

        Derived from the inside limit of the single-layer normal
        derivative (+gamma/2 with outward normal); the layer ansatz then
        satisfies the Robin condition iff
        gamma/2 + int K gamma = h.
        """
        xe = np.array([self.ends[e]])
        alpha = self.ps.alpha.eval(t, xe)
        val = self.domain_term(t, xe, None)
        dnu = self.domain_term(t, xe, e)
        return self.ps.psi.eval(t, xe) - dnu - alpha * val


def solve_ibvp2(ps: ProblemSpec, fld: KernelField, steps: int = 64,
                quad: QuadratureConfig = QuadratureConfig(),
                points: np.ndarray | None = None,
                sample_times: Sequence[float] | None = None
                ) -> tuple[GridSolution, BoundaryDensity]:
    """Second-type (Robin) problem du/dnu + alpha u = psi on both endpoints.

    The solution ansatz adds a boundary layer to the Cauchy terms:
    u = phi-term + f-term + sum_e int_0^t p(t, x; s, x_e) gamma(s, e) ds.
    The density gamma solves the second-kind Volterra system
    gamma/2 + int_0^t K gamma ds = h, marched on a uniform grid with
    gamma represented as a piecewise-constant factor over 1/sqrt(s) and
    product weights that integrate 1/sqrt(s (t - s)) exactly, absorbing
    the kernel singularity and the density's startup transient at once.
    Sample times should sit on the marching grid.
    """
    if ps.kind != "ibvp2":
        raise ParameterError("solve_ibvp2 expects an ibvp2 problem spec")
    if steps < 2:
        raise ParameterError("need at least 2 marching steps")
    mach = _Ibvp2Machine(ps, fld, quad)
    T = ps.horizon
    edges = np.linspace(0.0, T, steps + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    # gamma(s) = g(s) / sqrt(s) with g piecewise constant; the 1/sqrt(s)
    # factor carries the startup transient exactly
    gvals = np.zeros((steps, 2))

    for mstep in range(1, steps + 1):
        t_m = edges[mstep]
        wts = _double_sqrt_weights(t_m, edges[:mstep + 1])
        rhs = np.array([mach.forcing(t_m, e) for e in range(2)])
        for i in range(mstep - 1):
            for e in range(2):
                for ep in range(2):
                    kappa = mach.kernel_k(t_m, e, mids[i], ep) * \
                        math.sqrt(t_m - mids[i])
                    rhs[e] -= wts[i] * kappa * gvals[i, ep]
        A = 0.5 * np.eye(2) / math.sqrt(t_m)
        for e in range(2):
            for ep in range(2):
                kappa = mach.kernel_k(t_m, e, mids[mstep - 1], ep) * \
                    math.sqrt(t_m - mids[mstep - 1])
                A[e, ep] += wts[mstep - 1] * kappa
        # scale-free: the smallest singular value against the largest and
        # against the identity part 0.5/sqrt(t_m), which sets A's scale
        sv = np.linalg.svd(A, compute_uv=False)
        if not sv[-1] > 1e-10 * max(sv[0], 0.5 / math.sqrt(t_m)):
            raise ConditioningError(
                f"singular marching step at t={t_m}: singular values {sv}")
        gvals[mstep - 1] = np.linalg.solve(A, rhs)

    # reconstruction on the interior lattice; the layer integrand is
    # resolved on subdivided intervals, the density itself is not refined
    if points is None:
        xs = np.linspace(ps.domain_lo[0], ps.domain_hi[0], 23)[1:-1]
        points = xs[:, None]
    points = np.asarray(points, dtype=float).reshape(-1, 1)
    times = sorted(sample_times or [T])
    nsub = 4
    values = np.zeros((len(times), len(points), 1))
    for it, t in enumerate(times):
        mlast = int(round(t / (T / steps)))
        mlast = max(1, min(steps, mlast))
        for ip, x in enumerate(points):
            u = mach.domain_term(t, x, None)
            for i in range(mlast):
                subs = np.linspace(edges[i], edges[i + 1], nsub + 1)
                wts = _double_sqrt_weights(t, subs)
                smids = 0.5 * (subs[:-1] + subs[1:])
                for sm, wi in zip(smids, wts):
                    sm = min(sm, t - 1e-13)
                    for ep in range(2):
                        rho = mach.layer_value(t, x, sm, ep) * \
                            math.sqrt(t - sm)
                        u += wi * rho * gvals[i, ep]
            values[it, ip, 0] = u
    sol = GridSolution(np.array(times, dtype=float), points, values,
                       {"kind": "ibvp2", "steps": steps, "K": fld.K})
    dens = BoundaryDensity(mids, mach.ends,
                           gvals / np.sqrt(mids)[:, None])
    return sol, dens


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

    # psi_0 = exp(Phi_0 / (2 nu)); fail loudly on underflow
    log_psi0 = np.array([ps.phi0.eval(0.0, p) / (2.0 * nu) for p in pts])
    if np.min(log_psi0) < -700.0:
        shift = float(np.max([ps.phi0.eval(0.0, p) for p in pts]))
        raise ScalingError(
            "psi0 underflows; Phi_0 is defined up to a constant, subtract "
            f"about {shift:.3g} before running")

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

    def psi0(y):
        return math.exp(ps.phi0.eval(0.0, y) / (2.0 * nu))

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
