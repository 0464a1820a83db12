"""Fundamental-solution assembly and diagnostics.

Evaluates the Gaussian-times-exponential-series ansatz in log space, its
analytic gradient, PDE residuals, normalization and short-time
(Varadhan-type) diagnostics.  One evaluator, :func:`_log_terms`, reads
the coefficient arrays back: :func:`eval_points` runs it once per time
over all points of one expansion (the single-point calls and ``parakern
eval`` go through it), and :func:`_gh_integrals` over all nodes of a
Gauss-Hermite pass (normalization, the delta property, the solvers'
convolutions), expanded with one ``expand_batch`` call.
:class:`KernelField` holds the problem and expansion settings; its
:meth:`~KernelField.pair_log_terms` runs the evaluator over rows of
(origin s, centre y) pairs of the two-parameter kernel p(t, x; s, y),
whose coefficients :meth:`~KernelField.pair_coeffs` builds in one batch
with an origin per centre; the ``pair_*`` calls are its one-point case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ScalingError, StructureError
from .polyalg import _monomials, _partial_tables
from .recursion import (ExpansionCoeffs, ProblemCoefficients, WarpParams,
                        expand_batch, t_of_tau, _CHUNK_FLOATS)


@dataclass(frozen=True)
class KernelValue:
    """One kernel evaluation: value, log value and spatial gradient."""

    value: float
    log_value: float
    gradient: np.ndarray
    component: int


def _effective_time(warp: WarpParams, time: float) -> tuple[float, float]:
    """(t_eff, d t_eff / d time) for the Gaussian factor of each mode."""
    if time <= 0:
        raise ParameterError(
            "time must be positive; the t -> 0 limit of the kernel is the "
            "delta distribution at the expansion center, not a function value")
    if warp.mode == "plain":
        return time, 1.0
    if warp.mode == "beta":
        return warp.beta * time, warp.beta
    if time >= 1.0:
        raise ParameterError("tau must lie in (0, 1) in warped mode")
    return t_of_tau(time, warp.beta), warp.beta / (1.0 - time)


def _check_center(exp: ExpansionCoeffs, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (exp.dim,):
        raise StructureError(f"center of shape {y.shape}, expected ({exp.dim},)")
    if not np.allclose(y, exp.center, rtol=0, atol=0):
        raise StructureError(
            f"expansion is centered at {exp.center}, got y={tuple(y)}")
    return y


def _point_terms(exp: ExpansionCoeffs, time: float, xs, comps,
                 t_eff: float | None = None, second: bool = False):
    """``(x - y, *_log_terms(...))`` for one expansion at rows of ``xs``,
    in chunks of points that bound the coefficient-monomial products."""
    if xs.ndim != 2 or xs.shape[1] != exp.dim:
        raise StructureError(
            f"points of shape {xs.shape}, expected (P, {exp.dim})")
    dx = xs - np.asarray(exp.center)
    coeffs = exp.coeffs[list(comps)][..., None, :]
    step = max(1, _CHUNK_FLOATS // coeffs.size)
    parts = [_log_terms(coeffs, dx[i:i + step], exp.degree_D, time, t_eff,
                        second) for i in range(0, max(len(dx), 1), step)]
    return (dx,) + tuple(np.concatenate(out, axis=1) for out in zip(*parts))


def log_correction(exp: ExpansionCoeffs, time: float, x, j: int) -> float:
    """``sum_k c^j_k(time, x) time^k`` summed in ascending k."""
    return float(_point_terms(exp, time, np.asarray(x, dtype=float)[None],
                              (j,))[1][0, 0])


@dataclass(frozen=True)
class KernelPoints:
    """[component, point] arrays at one time; ``gradient`` adds the
    spatial axis, ``residual_rel`` is None unless the problem was given."""

    value: np.ndarray
    log_value: np.ndarray
    gradient: np.ndarray
    residual_rel: np.ndarray | None


def eval_points(exp: ExpansionCoeffs, time: float, xs,
                pc: ProblemCoefficients | None = None,
                components: Sequence[int] | None = None) -> KernelPoints:
    """Kernel values, log values and gradients at every row of ``xs``.

    One pass over the points, shape (P, n), at one mode time (as in
    :func:`eval_kernel`) for the listed components (default all; all
    with ``pc``, which adds the relative residuals).  A tau above a
    nonzero ``warp.tau_max`` raises :class:`ParameterError`; the first
    point in row order whose log value reaches 700 raises
    :class:`ScalingError` for its first such component.
    """
    t_eff, dteff = _effective_time(exp.warp, time)
    xs = np.asarray(xs, dtype=float)
    if exp.warp.mode == "tau" and 0.0 < exp.warp.tau_max < time:
        raise ParameterError(
            f"tau = {time} exceeds the warp's tau_max = {exp.warp.tau_max}")
    if components is None or pc is not None:
        components = range(exp.components)
    dx, corr, dtime, grad, lap = _point_terms(exp, time, xs, components,
                                              t_eff, pc is not None)
    n, r2 = exp.dim, (dx * dx).sum(axis=1)
    logp = -0.5 * n * math.log(4.0 * math.pi * t_eff) - r2 / (4.0 * t_eff) \
        + corr
    bad = logp >= 700.0
    if bad.any():
        p = int(np.flatnonzero(bad.any(axis=0))[0])
        raise ScalingError(
            f"log kernel value {float(logp[bad[:, p].argmax(), p]):.3g} at "
            f"|x - y| = {float(np.linalg.norm(dx[p])):.3g} overflows: the "
            f"truncated expansion does not hold this far from its center; "
            f"keep |x - y| within the trust radius (KernelField.trust_radius)")
    value = np.exp(logp)
    rel = None
    if pc is not None:
        # Lap p_i / p_i, then the couplings through the ratios p_l / p_i
        # and the potential; the mode's multiplier m is d t_eff / d time
        lap = lap + (-0.5 / t_eff + grad ** 2).sum(axis=-1)
        for (i, l, axis), entry in pc.drift.items():
            with np.errstate(over="ignore"):
                ratio = np.exp(corr[l] - corr[i])
            if np.isinf(ratio).any():
                raise ScalingError(f"kernel ratio p_{l}/p_{i} overflows")
            lap[i] = lap[i] + entry.eval(t_eff, xs) * ratio * grad[l, :, axis]
        for i, entry in pc.potential.items():
            lap[i] = lap[i] + entry.eval(t_eff, xs)
        rel = (-0.5 * n / t_eff + r2 / (4.0 * t_eff ** 2)) * dteff + dtime \
            - dteff * lap
    return KernelPoints(value, logp, grad * value[..., None], rel)


def eval_kernel(exp: ExpansionCoeffs, time: float, x, y=None,
                j: int = 0) -> KernelValue:
    """Kernel value for component j, assembled in log space.

    ``time`` is the mode's own variable: physical t in plain mode, the
    scaled/warped tau otherwise.  ``y`` must match the expansion center
    when given.  Validity windows are advisory; callers probing beyond
    them get honest values and can consult the residual diagnostics.
    A log value of 700 or more cannot be a kernel value and raises
    :class:`ScalingError`.  The one-point case of :func:`eval_points`.
    """
    if y is not None:
        _check_center(exp, y)
    kp = eval_points(exp, time, np.asarray(x, dtype=float)[None],
                     components=(j,))
    return KernelValue(float(kp.value[0, 0]), float(kp.log_value[0, 0]),
                       kp.gradient[0, 0], j)


def kernel_log_gradient(exp: ExpansionCoeffs, time: float, x,
                        j: int = 0) -> np.ndarray:
    """grad_x log p = -dx/(2 t_eff) + sum_k grad c_k * time^k."""
    t_eff, _ = _effective_time(exp.warp, time)
    return _point_terms(exp, time, np.asarray(x, dtype=float)[None], (j,),
                        t_eff)[3][0, 0]


def kernel_gradient(exp: ExpansionCoeffs, time: float, x, y=None,
                    j: int = 0) -> np.ndarray:
    """Analytic spatial gradient of the kernel value."""
    kv = eval_kernel(exp, time, x, y, j)
    return kv.gradient


def normal_derivative(exp: ExpansionCoeffs, time: float, x, y, nu,
                      j: int = 0) -> float:
    """nu . grad_x p for a unit normal nu."""
    nu = np.asarray(nu, dtype=float)
    if abs(float(np.dot(nu, nu)) - 1.0) > 1e-12:
        raise ParameterError("nu must be a unit vector")
    return float(np.dot(nu, kernel_gradient(exp, time, x, y, j)))


def residual(exp: ExpansionCoeffs, pc: ProblemCoefficients, time: float,
             x, y=None) -> tuple[np.ndarray, np.ndarray]:
    """PDE residual of the assembled kernel, per component.

    Re-applies the mode's evolution operator
    ``d/dtime p_i - m(time)[Lap p_i + sum b^i_jk d_k p_j + V_i p_i]``
    with m = 1, beta, beta/(1-tau).  Returns (raw, relative) where the
    relative residual is scaled by p_i; the cross-component coupling uses
    the honest ratio p_j/p_i, so system-mode defects show up here.
    An overflowing p_i raises :class:`ScalingError`, as in eval_kernel.
    The one-point case of :func:`eval_points`.
    """
    if y is not None:
        _check_center(exp, y)
    kp = eval_points(exp, time, np.asarray(x, dtype=float)[None], pc)
    rel = kp.residual_rel[:, 0]
    return rel * kp.value[:, 0], rel


def varadhan_diag(exp: ExpansionCoeffs, ts: Sequence[float], x, y=None,
                  j: int = 0) -> np.ndarray:
    """Short-time distance diagnostic, Gaussian prefactor removed.

    Returns ``-4 t log p - 2 n t ln(4 pi t)`` per t, which equals
    ``|dx|^2 - 4 t sum_k c_k t^k`` and tends to the squared distance
    linearly in t.  Plain-mode expansions only.
    """
    if exp.warp.mode != "plain":
        raise ParameterError("varadhan diagnostic expects a plain-mode expansion")
    out = []
    for t in ts:
        kv = eval_kernel(exp, t, x, y, j)
        out.append(-4.0 * t * kv.log_value
                   - 2.0 * exp.dim * t * math.log(4.0 * math.pi * t))
    return np.array(out)


# ---------------------------------------------------------------------------
# multi-center evaluation
# ---------------------------------------------------------------------------

class KernelField:
    """A problem's kernel at fixed warp, order K and degree cap D.

    Gauss-Hermite passes (:func:`_gh_integrals`) expand all their nodes
    in one batch.  The two-parameter kernel p(t, x; s, y) is evaluated
    over rows of (origin, centre) pairs by :meth:`pair_log_terms`, from
    coefficients :meth:`pair_coeffs` builds in one batch with an origin
    per centre; the caller holds them as long as it needs them.
    """

    def __init__(self, pc: ProblemCoefficients, warp: WarpParams = WarpParams(),
                 K: int = 6, D: int | None = None):
        self.pc = pc
        self.warp = warp
        self.K = K
        self.D = D if D is not None else 2 * K + 2
        # zero drift and potential: the correction factor is identically 1
        self._trivial = pc.is_zero_drift()
        self.trust_radius = self._trust_radius()

    def _trust_radius(self) -> float:
        """|dx| beyond which the truncated coefficient algebra is noise.

        Degree-D Taylor tails of Fourier entries grow like
        A r^(D+1) rate^(D+1) / (D+1)!; past the radius where that bound
        reaches 0.1 the polynomial no longer represents the drift and the
        exponential of the garbage can outgrow the Gaussian weight.
        Quadrature nodes beyond the radius are dropped; their true
        contribution is the Gaussian tail.
        """
        r = math.inf
        entries = list(self.pc.drift.values()) + list(self.pc.potential.values())
        for entry in entries:
            for _, part in entry.parts:
                amp, rate = part.bound_constants()
                if hasattr(part, "max_degree"):
                    continue  # polynomial: exact at every radius
                if amp <= 0 or rate <= 0:
                    continue
                d1 = self.D + 1
                r_part = (0.1 * math.factorial(d1) / amp) ** (1.0 / d1) / rate
                r = min(r, r_part)
        return r

    def mode_time(self, t_phys):
        """Map physical elapsed time to the warp's own time variable
        (elementwise for an array)."""
        if self.warp.mode == "plain":
            return t_phys
        if self.warp.mode == "beta":
            return t_phys / self.warp.beta
        if isinstance(t_phys, np.ndarray):
            return -np.expm1(-t_phys / self.warp.beta)
        return -math.expm1(-t_phys / self.warp.beta)

    # -- two-parameter kernel p(t, x; s, y) ---------------------------------

    def pair_coeffs(self, ys, s=0.0) -> np.ndarray | None:
        """Coefficients of p(., .; s, y) about every row of ``ys`` (B, n).

        ``s`` is one origin for all rows or one per row, shape (B,).
        Shaped as ``ExpansionBatch.coeffs``, from one ``expand_batch``
        call.  None for a trivial field, whose kernel is the Gaussian.
        """
        if self._trivial:
            return None
        ys = np.asarray(ys, dtype=float).reshape(-1, self.pc.n)
        return expand_batch(self.pc, ys, self.K, self.warp, self.D, s).coeffs

    def pair_log_terms(self, sigma, dx, coeffs: np.ndarray | None = None,
                       centre=None, j: int = 0, gradient: bool = False):
        """log p(s + sigma, y + dx; s, y) and grad_x log p at every row.

        ``sigma`` (R,) holds physical elapsed times t - s > 0 and ``dx``
        (R, n) the offsets x - y; row r reads centre ``centre[r]`` of
        ``coeffs`` (from :meth:`pair_coeffs`, unused for a trivial
        field).  The Gaussian factor is taken at sigma, the correction at
        the warp's own time.  Returns (log p, shape (R,); grad_x log p,
        shape (R, n), or None without ``gradient``).  Chunks of rows
        gather their coefficient columns; a chunk has no more rows than
        ``coeffs`` has centres, nor gathers over ``_CHUNK_FLOATS`` floats.
        """
        sigma = np.asarray(sigma, dtype=float)
        dx = np.asarray(dx, dtype=float)
        if not (sigma > 0).all():
            raise ParameterError("need t > s")
        logp = -0.5 * dx.shape[1] * np.log(4.0 * math.pi * sigma) \
            - (dx * dx).sum(axis=1) / (4.0 * sigma)
        grad = -dx / (2.0 * sigma[:, None]) if gradient else None
        if self._trivial:
            return logp, grad
        time = self.mode_time(sigma)
        centre = np.asarray(centre)
        step = max(1, min(coeffs.shape[3],
                          _CHUNK_FLOATS // coeffs[j, :, :, 0].size))
        for lo in range(0, len(sigma), step):
            rows = slice(lo, lo + step)
            corr, _, g, _ = _log_terms(coeffs[j:j + 1, :, :, centre[rows]],
                                       dx[rows], self.D, time[rows],
                                       sigma[rows] if gradient else None)
            logp[rows] += corr[0]
            if gradient:
                grad[rows] = g[0]
        return logp, grad

    def pair_log_value(self, t: float, s: float, x, y, j: int = 0) -> float:
        """log p(t, x; s, y), the one-point case of :meth:`pair_log_terms`."""
        return float(self._pair(t, s, x, y, j, False)[0][0])

    def pair_value(self, t: float, s: float, x, y, j: int = 0) -> float:
        return math.exp(self.pair_log_value(t, s, x, y, j))

    def pair_log_gradient(self, t: float, s: float, x, y,
                          j: int = 0) -> np.ndarray:
        """grad_x log p(t, x; s, y), the one-point case."""
        return self._pair(t, s, x, y, j, True)[1][0]

    def _pair(self, t, s, x, y, j, gradient):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        dx = np.asarray(x, dtype=float) - y
        return self.pair_log_terms([t - s], dx[None], self.pair_coeffs(y, s),
                                   [0], j, gradient)


@functools.lru_cache(maxsize=None)
def _gh_table(order: int, n: int):
    """Tensor Gauss-Hermite nodes, weights and node norms, read-only."""
    z, w = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([z] * n), indexing="ij")
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    zs = np.stack([g.ravel() for g in grids], axis=1)
    ws = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    norms = np.array([float(np.linalg.norm(zi)) for zi in zs])
    for a in (zs, ws, norms):
        a.flags.writeable = False
    return zs, ws, norms


def _gh_integrals(field: KernelField, t: float, s: float, x, g: Callable,
                  components: Sequence[int] = (0,), order: int = 40,
                  gradient: bool = False):
    """``int p_j(t, x; s, y) g(y) dy`` for every j in ``components``.

    Physical times t > s.  Substituting y = x + 2 sqrt(t - s) z makes the
    kernel's Gaussian the Hermite weight; the per-node factor is the
    expansion correction at the warp's own time, about origin s.  Nodes
    past ``field.trust_radius`` are dropped; ``g`` is called once, on the
    array of kept nodes (P, n), and returns their values (P,).  Nodes
    where g vanishes are dropped too, and the rest are expanded in one
    ``expand_batch`` call.
    Returns the integrals, shape (len(components),), and with
    ``gradient`` also the x-gradients ``int grad_x p_j g dy``, shape
    (len(components), n), else None.
    """
    sigma = t - s
    n = field.pc.n
    x = np.asarray(x, dtype=float)
    zs, ws, norms = _gh_table(order, n)
    time = field.mode_time(sigma)
    root = 2.0 * math.sqrt(sigma)
    keep = ~(root * norms > field.trust_radius)
    ys = x + root * zs[keep]
    gvals = np.asarray(g(ys), dtype=float)
    live = gvals != 0.0
    ys, weights, gvals = ys[live], ws[keep][live], gvals[live]
    comps = list(components)
    scale = math.pi ** (n / 2.0)
    if not len(ys):
        return np.zeros(len(comps)), (np.zeros((len(comps), n))
                                      if gradient else None)
    dx = x - ys
    t_eff = _effective_time(field.warp, time)[0] if gradient else None
    if field._trivial:
        corr = np.ones((len(comps), len(ys)))
        grad = np.broadcast_to(-dx / (2.0 * t_eff), (len(comps),) + dx.shape) \
            if gradient else None
    else:
        batch = expand_batch(field.pc, ys, field.K, field.warp, field.D, s)
        logc, _, grad, _ = _log_terms(batch.coeffs[comps], dx, field.D, time,
                                      t_eff)
        corr = np.exp(logc)
    weight = weights * corr * gvals
    vals = weight.sum(axis=1) / scale
    if not gradient:
        return vals, None
    return vals, (weight[:, :, None] * grad).sum(axis=1) / scale


def _log_terms(coeffs: np.ndarray, dx: np.ndarray, D: int, time: float,
               t_eff: float | None = None, second: bool = False):
    """The correction ``sum_k c_k(time, x) time^k`` and its derivatives.

    ``coeffs`` (components, K + 1, T, B, N) about centers y_b and ``dx``
    = x - y_b (B, n), or B = 1 and one ``dx`` row per point; ``time``
    and ``t_eff`` are scalars or hold one value per center.  Returns
    (correction, its time derivative, log-gradient, its Laplacian); the
    log-gradient adds -dx / (2 t_eff) and needs ``t_eff`` (else it has no
    axes), the time derivative and Laplacian need ``second`` (else 0).
    """
    mono = _monomials(dx, D)
    corr = _sum_terms(coeffs, mono, time, 0.0)
    tables = _partial_tables(dx.shape[1], D) if t_eff is not None else ()
    grad = np.empty(corr.shape + (len(tables),))
    lap = dtime = np.zeros_like(corr)
    for axis, (src, dst, scale) in enumerate(tables):
        dcoeffs = np.zeros_like(coeffs)
        dcoeffs[..., dst] = scale * coeffs[..., src]
        grad[..., axis] = _sum_terms(dcoeffs, mono, time,
                                     -dx[:, axis] / (2.0 * t_eff))
        if second:
            d2coeffs = np.zeros_like(coeffs)
            d2coeffs[..., dst] = scale * dcoeffs[..., src]
            lap = lap + _sum_terms(d2coeffs, mono, time, 0.0)
    if second:
        # d/dtime sum c_kl time^(k+l) = sum (k + l) c_kl time^(k+l) / time
        kl = np.add.outer(*map(np.arange, coeffs.shape[1:3]))[:, :, None, None]
        dtime = _sum_terms(coeffs * kl, mono, time, 0.0) / time
    return corr, dtime, grad, lap


def _sum_terms(coeffs: np.ndarray, mono: np.ndarray, time: float,
               start) -> np.ndarray:
    """``start + sum_k c_k(time, x) time^k`` per component and center.

    ``coeffs`` as in :func:`_log_terms`, ``mono`` the monomials of its
    ``dx``.  Each jet is Horner-evaluated in time and the orders are
    summed in ascending k.
    """
    vals = (coeffs * mono).sum(axis=-1)
    horner = 0.0
    for l in reversed(range(vals.shape[2])):
        horner = horner * time + vals[:, :, l]
    total = start
    for k in range(vals.shape[1]):
        total = total + horner[:, k] * time ** k
    return total


def normalization_check(field: KernelField, time: float, x,
                        order: int = 40, j: int = 0) -> float:
    """``int p_j(time, x, y) dy`` by tensor Gauss-Hermite centered at x.

    The Gaussian factor of the kernel is the quadrature weight.  Returns
    the integral; callers assert how close to 1 it must be.
    """
    return delta_property(field, lambda y: 1.0, time, x, order, j)


def delta_property(field: KernelField, f, time: float, x,
                   order: int = 40, j: int = 0) -> float:
    """``int p_j(time, x, y) f(y) dy`` by Gauss-Hermite centered at x,
    for ``f`` of one point y."""
    if time <= 0:
        raise ParameterError("time must be positive")
    t_eff, _ = _effective_time(field.warp, time)
    vals, _ = _gh_integrals(field, t_eff, 0.0, x,
                            lambda ys: [f(y) for y in ys], (j,), order)
    return float(vals[0])
