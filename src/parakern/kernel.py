"""Fundamental-solution assembly and diagnostics.

Evaluates the Gaussian-times-exponential-series ansatz in log space, its
analytic gradient, PDE residuals, normalization and short-time
(Varadhan-type) diagnostics.  One row evaluator, :func:`_eval_rows`,
reads coefficient columns back in chunks of rows, and one check,
:func:`_check_log`, raises where a log value is not finite or reaches
700.  Both serve :func:`eval_points`, the one reader of an expansion's
(time, point) rows (``varadhan_diag`` and ``parakern eval`` read through
it), and :meth:`KernelField.integrate`, the one place that turns rows
(origin s, time t, point x, centre y, weight) of the kernel p(t, x; s, y)
into sums: Gauss-Hermite convolutions (normalization, the delta property,
the Cauchy and Burgers solves) and the Robin solve's kernel sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ScalingError, StructureError
from .polyalg import _degree, _monomials, _partial_tables, _tensor_grid
from .recursion import (ExpansionCoeffs, ProblemCoefficients, WarpParams,
                        expand_batch, _CHUNK_FLOATS)


def _check_component(j, components: int) -> None:
    """Raise :class:`StructureError` unless 0 <= j < ``components``."""
    if not 0 <= j < components:
        raise StructureError(f"component {j} out of range: the kernel has "
                             f"{components} component(s)")


def _check_points(exp: ExpansionCoeffs, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != exp.dim:
        raise StructureError(
            f"points of shape {xs.shape}, expected (P, {exp.dim})")
    return xs


def _eval_rows(coeffs: np.ndarray, dx: np.ndarray, D: int, time,
               t_eff=None, second: bool = False, powers=None, col=None):
    """:func:`_log_terms` at rows ``dx`` = x - y (R, n), in chunks that
    gather at most ``_CHUNK_FLOATS`` floats and B columns of ``coeffs``
    (components, K + 1, T, B, N): row r reads column ``col[r]``, or with
    ``col`` None the one column, broadcast.  ``time``, ``t_eff`` and each
    of ``powers`` are scalars or one value per row.  Overflow is silent."""
    step = max(1, _CHUNK_FLOATS // coeffs[:, :, :, 0].size)
    if col is not None:
        step = min(step, coeffs.shape[3])

    def rows(v, i):
        return v[i:i + step] if getattr(v, "ndim", 0) else v

    with np.errstate(over="ignore", invalid="ignore"):
        parts = [_log_terms(coeffs if col is None else np.take(
            coeffs, col[i:i + step], axis=3), dx[i:i + step], D,
            rows(time, i), rows(t_eff, i), second,
            powers and [rows(p, i) for p in powers])
            for i in range(0, max(len(dx), 1), step)]
    return parts[0] if len(parts) == 1 else \
        tuple(np.concatenate(out, axis=1) for out in zip(*parts))


def _check_log(what: str, logv: np.ndarray, dx: np.ndarray, t_at, K: int,
               D: int) -> None:
    """Raise :class:`ScalingError` at the first row r (then component) of
    ``logv`` not finite or >= 700; row r is at ``dx[r]``, time ``t_at(r)``."""
    ok = np.isfinite(logv) & (logv < 700.0)
    if not ok.all():
        r = int((~ok).any(axis=0).argmax())
        dist = f"|x - y| = {math.hypot(*dx[r]):.3g}"
        raise ScalingError(
            f"{what} {logv[(~ok[:, r]).argmax(), r]:.3g} at {dist} "
            f"overflows: at t = {t_at(r):.6g}, {dist} the K = {K}, D = {D} "
            f"expansion does not hold; keep |x - y| within the trust radius "
            f"(KernelField.trust_radius), or lower K, D or t")


@dataclass(frozen=True)
class KernelPoints:
    """[component, point] arrays at one time, [component, time, point]
    over an array of times; ``gradient`` and ``log_gradient`` (grad_x
    log p) add the spatial axis, ``correction`` is ``sum_k c_k time^k``
    (log p less its Gaussian), ``residual_rel`` is None unless the problem
    was given."""

    value: np.ndarray
    log_value: np.ndarray
    gradient: np.ndarray
    residual_rel: np.ndarray | None
    correction: np.ndarray
    log_gradient: np.ndarray


def eval_points(exp: ExpansionCoeffs, time, xs,
                pc: ProblemCoefficients | None = None) -> KernelPoints:
    """Kernel values, log values, gradients, corrections and
    log-gradients at every row of ``xs``.

    One pass over the points, shape (P, n), for every component; ``pc``
    adds the relative residuals of the mode's evolution operator
    ``d/dtime p_i - m(time)[Lap p_i + sum b^i_jk d_k p_j + V_i p_i]``
    (m = d t_eff / d time), scaled by p_i, the coupling through the ratio
    p_j / p_i.  ``time`` is one mode time (physical t in plain mode, the
    scaled or warped tau otherwise), or a 1-D array of them, which adds a
    time axis after the component axis; a scalar is the one-time case of
    the same pass.  The rows are the (time, point) pairs in time-major
    order, read by one :func:`_eval_rows` pass with a time and ``t_eff``
    per row; each time's powers are Python float powers, so a row has the
    bits of a call at its time alone.  The times are checked in order by
    :meth:`WarpParams.physical_time` (a tau past ``warp.tau_max`` raises);
    then :func:`_check_log` raises at the first row and component whose
    log value is not finite or reaches 700.
    """
    if np.ndim(time) > 1:
        raise StructureError(
            f"times of shape {np.shape(time)}, expected a scalar or (T,)")
    ts = [time] if np.ndim(time) == 0 else [float(t) for t in time]
    modes = [exp.warp.physical_time(t) for t in ts]
    xs = _check_points(exp, xs)

    def per_row(vals):
        """One value per time, repeated over that time's points."""
        return np.repeat(np.array(vals, dtype=float), len(xs))

    t_effs = [te for te, _ in modes]
    t_eff, dteff = per_row(t_effs), per_row([m for _, m in modes])
    powers = [per_row([t ** k for t in ts])
              for k in range(exp.coeffs.shape[1])]
    row_ts, row_xs = per_row(ts), np.tile(xs, (len(ts), 1))
    n, dx = exp.dim, row_xs - np.asarray(exp.center)
    corr, dtime, grad, lap = _eval_rows(
        exp.coeffs[..., None, :], dx, exp.degree_D, row_ts, t_eff,
        pc is not None, powers)
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = (dx * dx).sum(axis=1)
        logp = per_row([-0.5 * n * math.log(4.0 * math.pi * te)
                        for te in t_effs]) \
            - r2 / per_row([4.0 * te for te in t_effs]) + corr
    _check_log("log kernel value", logp, dx, row_ts.__getitem__, exp.order_K,
               exp.degree_D)
    value = np.exp(logp)
    rel = None
    if pc is not None:
        def at_rows(entry):
            """An entry per row: an autonomous one once per point, repeated."""
            return entry.eval(t_eff, row_xs) if entry.max_order \
                else np.tile(entry.eval(0.0, xs), len(ts))

        # Lap p_i / p_i, then the couplings through the ratios p_l / p_i
        # and the potential; the mode's multiplier m is d t_eff / d time
        lap = lap + (per_row([-0.5 / te for te in t_effs])[:, None]
                     + grad ** 2).sum(axis=-1)
        for (i, l, axis), entry in pc.drift.items():
            with np.errstate(over="ignore"):
                ratio = np.exp(corr[l] - corr[i])
            if np.isinf(ratio).any():
                raise ScalingError(f"kernel ratio p_{l}/p_{i} overflows")
            lap[i] = lap[i] + at_rows(entry) * ratio * grad[l, :, axis]
        for i, entry in pc.potential.items():
            lap[i] = lap[i] + at_rows(entry)
        rel = (per_row([-0.5 * n / te for te in t_effs])
               + r2 / per_row([4.0 * te ** 2 for te in t_effs])) * dteff \
            + dtime - dteff * lap
    shape = (len(value),) + ((len(xs),) if np.ndim(time) == 0
                             else (len(ts), len(xs)))
    return KernelPoints(value.reshape(shape), logp.reshape(shape),
                        (grad * value[..., None]).reshape(shape + (n,)),
                        None if rel is None else rel.reshape(shape),
                        corr.reshape(shape), grad.reshape(shape + (n,)))


def varadhan_diag(exp: ExpansionCoeffs, ts: Sequence[float], x,
                  j: int = 0) -> np.ndarray:
    """Short-time distance diagnostic, Gaussian prefactor removed.

    Returns ``-4 t log p - 2 n t ln(4 pi t)`` per t, which equals
    ``|dx|^2 - 4 t sum_k c_k t^k`` and tends to the squared distance
    linearly in t.  Plain-mode expansions only.
    """
    if exp.warp.mode != "plain":
        raise ParameterError("varadhan diagnostic expects a plain-mode expansion")
    _check_component(j, exp.components)
    logp = eval_points(exp, ts, np.asarray(x, dtype=float)[None]
                       ).log_value[j, :, 0]
    return np.array([-4.0 * t * lp - 2.0 * exp.dim * t
                     * math.log(4.0 * math.pi * t) for t, lp in zip(ts, logp)])


# ---------------------------------------------------------------------------
# multi-center evaluation
# ---------------------------------------------------------------------------

# centres per expand_batch call of KernelField.integrate; in solves of
# thousands of centres, larger batches held larger arrays for little time
_BATCH_CENTRES = 256


class Rows(NamedTuple):
    """One sum of :meth:`KernelField.integrate`: ``weight * p_j(t, x; s,
    y) * data(s, y)`` over the last axis of the broadcast of origins
    ``s``, times ``t``, centre indices ``centre``, ``weight`` and
    ``x[..., 0]`` (points x have a trailing axis n).  ``data`` is called
    once, on the origins (R,) and centres (R, n) of the rows kept so far.
    ``gradient`` adds the sums of grad_x p_j.  ``hermite`` marks
    Gauss-Hermite nodes: the kernel's Gaussian is the weight, and nodes
    past the trust radius are dropped."""

    s: object
    t: object
    x: object
    centre: object
    weight: object
    data: Callable | None = None
    gradient: bool = False
    hermite: bool = False


def _masked_sums(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``keep`` of the rows of ``a`` (axis 1)
    put at its true entries, with 0 at the others."""
    if not keep.all():
        full = np.zeros(a.shape[:1] + (keep.size,) + a.shape[2:])
        full[:, keep.ravel()] = a
        a = full
    return a.reshape(a.shape[:1] + keep.shape + a.shape[2:]).sum(keep.ndim)


class KernelField:
    """A problem's kernel at fixed warp, order K and degree cap D.

    :meth:`integrate` turns rows (origin s, time t, point x, centre y,
    weight) of the two-parameter kernel p(t, x; s, y) into sums;
    :meth:`gauss_hermite` writes convolutions with data as such rows.
    """

    def __init__(self, pc: ProblemCoefficients, warp: WarpParams = WarpParams(),
                 K: int = 6, D: int | None = None):
        self.pc = pc
        self.warp = warp
        self.K = K
        self.D = D if D is not None else 2 * K + 2
        if K < 0:
            raise ParameterError(f"K must be >= 0, got {K}")
        if self.D < 0:
            raise ParameterError(f"degree_D must be >= 0, got {self.D}")
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

    def integrate(self, centres, terms: Sequence[Rows]) -> list:
        """Every sum of ``terms`` (see :class:`Rows`), from one pass.

        ``centres`` (C, n) is the table the terms' indices read.  A row is
        dropped where its weight or data is 0, or, on a Gauss-Hermite
        node, where |x - y| exceeds :attr:`trust_radius`; a kept row needs
        t > s.  The kept rows' expansions, one per centre (per distinct
        (origin, centre) pair for time-dependent coefficients), are built
        by ``expand_batch`` calls of one chunk of centres each; the
        x-gradient is taken only on rows of terms that ask for it.
        Returns per term the sums over its last axis, dropped rows adding
        0, one per component, shape (components,) + its leading shape, and
        the gradient sums (a trailing axis n) or None.
        """
        n = self.pc.n
        centres = np.asarray(centres, dtype=float).reshape(-1, n)
        shapes = [np.broadcast(np.asarray(term.x)[..., 0], term.s, term.t,
                               term.centre, term.weight).shape
                  for term in terms]
        # a row per element of each term's shape: (s, t - s, weight, centre
        # index, x - y)
        table = np.empty((sum(map(math.prod, shapes)), 4 + n))
        keeps, datas, lo, view = [], [], 0, None
        for term, shape in zip(terms, shapes):
            rows, lo = table[lo:lo + math.prod(shape)], lo + math.prod(shape)
            view = rows.reshape(shape + (4 + n,))
            for col, v in enumerate((term.s, np.subtract(term.t, term.s),
                                     term.weight, term.centre)):
                view[..., col] = v
            view[..., 4:] = np.asarray(term.x, dtype=float) \
                - centres[np.asarray(term.centre)]
            keep = rows[:, 2] != 0.0
            if term.hermite and self.trust_radius < math.inf:
                keep &= ~((rows[:, 4:] ** 2).sum(axis=1)
                          > self.trust_radius ** 2)
            data = None
            if term.data is not None:
                # evaluated on the rows kept so far; where it vanishes, dropped
                origin, centre = np.compress(keep, rows[:, [0, 3]].T, axis=1)
                data = np.asarray(term.data(origin, centres[
                    centre.astype(int)]), dtype=float)
                live = data != 0.0
                keep[keep], data = live, data[live]
            keeps.append(keep)
            datas.append(data)
        kept = keeps[0] if len(keeps) == 1 else np.concatenate(keeps)
        rows = table if kept.all() else np.compress(kept, table, axis=0)
        del table, view     # the dropped rows, before the evaluation's arrays
        sigma, dx = rows[:, 1], rows[:, 4:]
        if not (sigma > 0).all():
            raise ParameterError("need t > s")
        counts = [np.count_nonzero(keep) for keep in keeps]
        gradient, hermite = ([getattr(term, flag) for term in terms]
                             for flag in ("gradient", "hermite"))
        logc, grad = self._corrections(centres, rows, np.repeat(
            gradient, counts) if any(gradient) else None)
        if not all(hermite):    # a Gauss-Hermite weight holds the Gaussian
            logc = logc + np.where(np.repeat(hermite, counts), 0.0, -0.5 * n
                                   * np.log(4.0 * math.pi * sigma)
                                   - (dx * dx).sum(1) / (4.0 * sigma))
        value = rows[:, 2] * np.exp(logc)
        out, lo = [], 0
        for term, shape, keep, data, count in zip(terms, shapes, keeps, datas,
                                                  counts):
            v = value[:, lo:lo + count]
            v = v if data is None else v * data
            keep = keep.reshape(shape)
            out.append((_masked_sums(v, keep), _masked_sums(
                v[..., None] * grad[:, lo:lo + count], keep) if term.gradient
                else None))
            lo += count
        return out

    def _corrections(self, centres: np.ndarray, rows: np.ndarray,
                     want: np.ndarray | None):
        """The log corrections of ``rows`` (s, t - s, _, centre index,
        x - y), one per component, and grad_x log p on the rows ``want``
        marks (None: on none), read by :func:`_eval_rows` from expansions
        built ``_BATCH_CENTRES`` centres at a time, with numpy mode times
        and powers; ``WarpParams.mode_time`` raises at a tau past tau_max,
        :func:`_check_log` where a sum would be inf."""
        s, sigma, dx = rows[:, 0], rows[:, 1], rows[:, 4:]
        centre = rows[:, 3].astype(int)
        logc = np.zeros((self.pc.components, len(rows)))
        if self._trivial:
            return logc, (-dx / (2.0 * sigma[:, None]))[None]
        grad = None if want is None else np.zeros(logc.shape + dx.shape[1:])
        time = self.warp.mode_time(sigma)
        if self.pc.time_dependent:
            keys, key = np.unique(np.stack([s, rows[:, 3]], axis=1), axis=0,
                                  return_inverse=True)
            origins, cols = keys[:, 0], keys[:, 1].astype(int)
        else:
            cols = np.flatnonzero(np.bincount(centre))
            key, origins = np.searchsorted(cols, centre), np.zeros(len(cols))
        # the rows of each chunk of expansions
        step = _BATCH_CENTRES
        order, cuts = np.arange(len(key)), [0, len(key)]
        if len(cols) > step:
            order = np.argsort(key, kind="stable")
            cuts = np.searchsorted(key[order], range(0, len(cols) + step, step))
        for lo, a, b in zip(range(0, len(cols), step), cuts, cuts[1:]):
            coeffs = expand_batch(self.pc, centres[cols[lo:lo + step]], self.K,
                                  self.warp, self.D,
                                  origins[lo:lo + step]).coeffs
            chunk = order[a:b]
            groups = [(False, chunk)] if want is None else \
                [(True, chunk[want[chunk]]), (False, chunk[~want[chunk]])]
            for grow, r in groups:
                if len(r):
                    logc[:, r], _, g, _ = _eval_rows(
                        coeffs, dx[r], self.D, time[r],
                        sigma[r] if grow else None, col=key[r] - lo)
                    if grow:
                        grad[:, r] = g
        _check_log("log correction", logc, dx, lambda r: s[r] + sigma[r],
                   self.K, self.D)
        return logc, grad

    def gauss_hermite(self, order: int, passes,
                      gradient: bool = False) -> list:
        """``int p_j(t, x; s, y) g(s, y) dy`` by tensor Gauss-Hermite for
        each (t, s, x, g) of ``passes``, in one :meth:`integrate` call.

        t, s and x[..., 0] broadcast to the entry's passes.  A pass puts
        its nodes at y = x + 2 sqrt(t - s) z, which makes the kernel's
        Gaussian the Hermite weight; the sums are divided by pi^(n/2).
        Returns per entry the integrals, shape (components,) + its passes'
        shape, and the x-gradients with ``gradient`` (a trailing axis n),
        else None.
        """
        n = self.pc.n
        zs, ws = _gh_table(order, n)
        centres, terms, first = [], [], 0
        for t, s, x, g in passes:
            x = np.asarray(x, dtype=float)[..., None, :]
            s, t = np.asarray(s)[..., None], np.asarray(t)[..., None]
            ys = x + 2.0 * np.sqrt(t - s)[..., None] * zs
            centres.append(ys.reshape(-1, n))
            terms.append(Rows(s, t, x, np.arange(
                first, first + len(centres[-1])).reshape(ys.shape[:-1]),
                ws, g, gradient, hermite=True))
            first += len(centres[-1])
        scale = math.pi ** (n / 2.0)
        return [(v / scale, None if g is None else g / scale) for v, g in
                self.integrate(np.concatenate(centres), terms)]


@functools.lru_cache(maxsize=None)
def _gh_table(order: int, n: int):
    """Tensor Gauss-Hermite nodes and weights, read-only."""
    z, w = np.polynomial.hermite.hermgauss(order)
    zs, ws = _tensor_grid([z] * n), np.prod(_tensor_grid([w] * n), axis=1)
    for a in (zs, ws):
        a.flags.writeable = False
    return zs, ws


def _live_rows(coeffs: np.ndarray) -> int:
    """How many leading table rows a contraction of ``coeffs`` must read:
    those up to the last one nonzero anywhere (at least one), rounded up
    to a multiple of 8 and capped at N, and past 128 rows the table halved
    at a multiple of 8 while they fit in the first half.  The prefix is
    thus the table or whole blocks of 8 rows, which :func:`_log_terms`
    adds in order: its sum is the full one bit for bit."""
    n = coeffs.shape[-1]
    live = np.flatnonzero(coeffs.any(axis=tuple(range(coeffs.ndim - 1))))
    last = int(live[-1]) if len(live) else 0
    while n > 128:
        half = n // 2 - (n // 2) % 8
        if last >= half:
            return n
        n = half
    return min(n, (last + 8) // 8 * 8)


@functools.lru_cache(maxsize=None)
def _field_maps(n: int, D: int, rows: int):
    """``(index, scale)``, each (blocks, 1 + 2n, 8): over the first ``rows``
    rows gamma of ``index_table(n, D)`` in blocks of 8 (the last padded),
    field f of gamma is ``scale * mono[index]``: dx^gamma, then d_a
    dx^gamma and d_a^2 dx^gamma per axis a (a zero: dx^0 with scale 0)."""
    index = np.zeros((1 + 2 * n, -(-rows // 8) * 8), dtype=int)
    scale = np.zeros(index.shape)
    index[0, :rows], scale[0, :rows] = np.arange(rows), 1.0
    for a, (src, dst, factor) in enumerate(_partial_tables(n, D)):
        src, dst, factor = (v[src < rows] for v in (src, dst, factor))
        index[1 + a, src], scale[1 + a, src] = dst, factor
        # d_a dx^gamma = gamma_a dx^(gamma - e_a), d_a^2 reads d_a's there
        index[1 + n + a, src] = index[1 + a, dst]
        scale[1 + n + a, src] = factor * scale[1 + a, dst]
    return tuple(m.reshape(1 + 2 * n, -1, 8).swapaxes(0, 1).copy()
                 for m in (index, scale))


def _log_terms(coeffs: np.ndarray, dx: np.ndarray, D: int, time,
               t_eff=None, second: bool = False, powers=None):
    """The correction ``sum_k c_k(time, x) time^k`` and its derivatives.

    Arguments as in :func:`_eval_rows`, for one chunk whose ``coeffs``
    hold one column per row of ``dx``, or one for all; ``powers`` holds
    ``time ** k`` per order k (default: that expression).  The fields of
    :func:`_field_maps` that are asked for meet the columns in one stacked
    product, the row its stack axis: (8,) by (8, jets) per row, block of
    the :func:`_live_rows` table rows and field, so no field's bits depend
    on the pass size or the flags.  One Horner pass in time serves every
    field; the time derivative weights the value's jets by k + l.
    Returns (correction, its time derivative, log-gradient, its
    Laplacian); the log-gradient, plus -dx / (2 t_eff), needs ``t_eff`` (else
    no axes), the time derivative ``second`` and the Laplacian both (else 0)."""
    R, n = dx.shape
    rows = _live_rows(coeffs)
    fields = 1 + n + n * second if t_eff is not None else 1
    index, scale = (m[:, :fields] for m in _field_maps(n, D, rows))
    reads = _monomials(dx, _degree(rows, n, D))[:, index] * scale
    jets = math.prod(coeffs.shape[:3])
    cols = np.zeros((coeffs.shape[3], len(index) * 8, jets))
    cols[:, :rows] = coeffs[..., :rows].reshape(jets, -1, rows) \
        .transpose(1, 2, 0)
    parts = reads[..., None, :] @ cols.reshape(-1, len(index), 1, 8, jets)
    # sum() starts from 0: a -0.0 block turns +0.0, a zero block adds nothing
    vals = sum(parts[:, b] for b in range(len(index)))
    # [field, component, k, l, row]
    vals = vals.reshape((R, fields) + coeffs.shape[:3]).transpose(1, 2, 3, 4, 0)
    if second:
        # d/dtime sum c_kl time^(k+l) = sum (k + l) c_kl time^(k+l) / time
        kl = np.add.outer(*map(np.arange, coeffs.shape[1:3]))
        vals = np.concatenate([vals, vals[:1] * kl[..., None]])
    horner = 0.0
    for l in reversed(range(vals.shape[-2])):
        horner = horner * time + vals[..., l, :]
    if powers is None:
        powers = [time ** k for k in range(coeffs.shape[1])]
    total = 0.0
    if t_eff is not None:
        total = np.zeros(horner[:, :, 0].shape)
        total[1:1 + n] = (-dx.T / (2.0 * t_eff))[:, None]
    for k, p in enumerate(powers):
        total = total + horner[:, :, k] * p
    zero = np.zeros_like(total[0])
    return (total[0], total[-1] / time if second else zero,
            total[1:1 + n].transpose(1, 2, 0),
            sum(total[1 + n:1 + 2 * n], np.zeros_like(zero)))


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
    _check_component(j, field.pc.components)
    t_eff, _ = field.warp.physical_time(time)
    [(vals, _)] = field.gauss_hermite(
        order, [(t_eff, 0.0, x, lambda s, ys: [f(y) for y in ys])])
    return float(vals[j])
