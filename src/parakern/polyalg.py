"""Truncated multivariate Taylor-polynomial algebra.

Everything downstream (coefficient recursions, kernel assembly) works on
bare coefficient arrays indexed by one table, :func:`index_table`: every
exponent of total degree <= cap, in graded-lexicographic order; row ``i``
of a coefficient array pairs with row ``i`` of the table.

The private column helpers (``_mul_cols``, ``_overflow_cols`` and
``_partial_tables``) do the arithmetic on coefficient arrays with any
number of columns, one per expansion centre, and ``_csr_apply`` applies
a product's cached sparse scatter; the drift and potential entries of
:mod:`parakern.funcspec` write their Taylor coefficients in the same
layout.  Because the table is graded, the rows of degree <= d are its
first ``_rows(dim, d)`` rows, so an array may stop at its degree:
products take their pair table for the operands' degrees
(``_mul_tables``, keyed by dim, cap and both degrees) and form no pair
of rows known to be zero.  ``_monomials`` evaluates the table's
monomials at points and ``_tensor_grid`` lists the points of a tensor
grid.

scipy loads with the first scatter ``_mul_tables`` builds, not with this
module: a process that never multiplies two columns of degree >= 1, as
under constant drifts and potentials, never imports it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError

# scipy's private kernels, the ones ``csr_matrix @ ndarray`` runs, bound
# by the first scatter ``_mul_tables`` builds
csr_matvec = csr_matvecs = None


# ---------------------------------------------------------------------------
# the graded-lexicographic index table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def index_table(dim: int, cap: int):
    """All exponent tuples with total degree <= cap, graded-lex sorted.

    Returns ``(exps, pos, orders)`` where ``exps`` is an ``(N, dim)`` int
    array, ``pos`` maps tuple -> row, and ``orders`` holds total degrees.
    The table, not the polynomials, owns the canonical ordering.
    """
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    if cap < 0:
        raise ParameterError("degree cap must be >= 0")

    def gen(d):
        if d == 0:
            yield ()
            return
        for rest in gen(d - 1):
            for e in range(cap + 1 - sum(rest)):
                yield rest + (e,)

    tuples = sorted(gen(dim), key=lambda e: (sum(e), e))
    exps = np.array(tuples, dtype=np.int64).reshape(len(tuples), dim)
    pos = {t: i for i, t in enumerate(tuples)}
    orders = exps.sum(axis=1)
    return exps, pos, orders


def _rows(dim: int, degree: int) -> int:
    """Rows of total degree <= ``degree``: a prefix of every table with a
    larger cap, since the table is graded.  Degree -1, the zero
    polynomial's, has none."""
    return math.comb(dim + degree, dim)


@lru_cache(maxsize=None)
def _degree(rows: int, dim: int, cap: int) -> int:
    """The degree of a column of ``rows`` rows, a prefix of the table;
    -1 for no rows, the zero polynomial."""
    return int(index_table(dim, cap)[2][rows - 1]) if rows else -1


@lru_cache(maxsize=None)
def _mul_tables(dim: int, cap: int, da: int, db: int):
    """Index pairs of the truncated product of a degree-da column by a
    degree-db column, both indexed by ``index_table(dim, cap)``.

    ``(ii, jj)`` enumerate the products landing inside the cap, in
    row-major pair order, and ``scatter`` is the CSR matrix adding them
    onto the min(da + db, cap) rows of the result; each row sums its
    products in pair order, as ``np.add.at`` would, so the scatter
    reproduces the sequential sum bit for bit.  ``(oi, oj)`` are the pairs
    that would exceed the cap (used for the truncation flag).
    """
    global csr_matvec, csr_matvecs
    from scipy import sparse
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

    exps, pos, orders = index_table(dim, cap)
    i, j = np.divmod(np.arange(_rows(dim, da) * _rows(dim, db)), _rows(dim, db))
    inside = orders[i] + orders[j] <= cap
    ii, jj = i[inside], j[inside]
    tt = [pos[tuple(e)] for e in (exps[ii] + exps[jj]).tolist()]
    scatter = sparse.csr_matrix(
        (np.ones(len(tt)), (tt, np.arange(len(tt)))),
        shape=(_rows(dim, min(da + db, cap)), len(tt)))
    return ii, jj, scatter, i[~inside], j[~inside]


@lru_cache(maxsize=None)
def _partial_tables(dim: int, cap: int):
    """Per-coordinate (source row, target row, scale) differentiation maps,
    by source row.  Lowering one exponent keeps the graded-lex order, so
    the targets are the rows of degree < cap, each once, in order."""
    exps, pos, _ = index_table(dim, cap)
    out = []
    for axis in range(dim):
        src, dst, scale = [], [], []
        for i, e in enumerate(exps):
            if e[axis] > 0:
                t = tuple(e)
                lowered = t[:axis] + (t[axis] - 1,) + t[axis + 1:]
                src.append(i)
                dst.append(pos[lowered])
                scale.append(t[axis])
        assert dst == list(range(len(dst)))
        out.append((np.array(src), np.array(dst), np.array(scale, dtype=float)))
    return tuple(out)


def _mul_cols(a: np.ndarray, b: np.ndarray, dim: int, cap: int) -> np.ndarray:
    """Truncated products of coefficient columns.

    ``a`` and ``b`` hold table rows on axis 0 and any number of columns
    (centres, time orders, ...) behind it; each column multiplies on its
    own, so a column's result does not depend on the others.  A column
    holds the rows up to its degree (``_rows(dim, da)`` of them), so the
    pair table is the one for the operands' degrees; the result holds the
    rows up to min(da + db, cap).  A degree-0 operand (one row) pairs
    each row of the other with itself alone, so its product is the
    broadcast one; the ``+ 0.0`` gives the scatter's ``0 + 1 * p`` bits,
    -0.0 turned into 0.0 included.
    """
    if len(a) == 1 or len(b) == 1:
        return a * b + 0.0
    ii, jj, scatter, _, _ = _mul_tables(dim, cap, _degree(len(a), dim, cap),
                                        _degree(len(b), dim, cap))
    prod = (a.take(ii, axis=0) * b.take(jj, axis=0)).reshape(len(ii), -1)
    return _csr_apply(scatter, prod).reshape((-1,) + a.shape[1:])


def _csr_apply(S, x: np.ndarray) -> np.ndarray:
    """``S @ x`` for a CSR matrix ``S`` and a 2-D float array ``x`` of
    ``S.shape[1]`` rows, bit for bit: the kernel scipy's operator picks
    (its vector kernel for one column, which may give a NaN another sign),
    without the operator's dispatch.  Each output row starts at zero and
    adds its terms ``S[i, j] * x[j]`` in stored order, column by column.
    ``S`` is a scatter of ``_mul_tables``, which binds the kernels."""
    (rows, cols), vecs = S.shape, x.shape[1]
    assert x.shape == (cols, vecs)      # the kernels read x unchecked
    out = np.zeros((rows, vecs))
    if vecs == 1:
        csr_matvec(rows, cols, S.indptr, S.indices, S.data, x.ravel(),
                   out.ravel())
    else:
        csr_matvecs(rows, cols, vecs, S.indptr, S.indices, S.data,
                    x.ravel(), out.ravel())
    return out


def _overflow_cols(a: np.ndarray, b: np.ndarray, dim: int,
                   cap: int) -> np.ndarray:
    """Per column: does the product discard a nonzero term above the cap?

    Exactly ``any(a[oi] * b[oj] != 0)``.  A finite product can be nonzero
    only if both factors are, so columns whose highest nonzero orders sum
    to at most the cap are settled without forming the products.
    """
    orders = index_table(dim, cap)[2][:, None]
    _, _, _, oi, oj = _mul_tables(dim, cap, _degree(len(a), dim, cap),
                                  _degree(len(b), dim, cap))
    shape = a.shape[1:]
    a = a.reshape(len(a), -1)
    b = b.reshape(len(b), -1)
    flags = np.zeros(a.shape[1], dtype=bool)
    if len(oi):
        top_a = np.where(a != 0.0, orders[:len(a)], -1).max(axis=0)
        top_b = np.where(b != 0.0, orders[:len(b)], -1).max(axis=0)
        maybe = (top_a + top_b > cap) | ~np.isfinite(a).all(axis=0) \
            | ~np.isfinite(b).all(axis=0)
        if maybe.any():
            flags[maybe] = np.any(a[oi][:, maybe] * b[oj][:, maybe] != 0.0,
                                  axis=0)
    return flags.reshape(shape)


def _monomials(dx: np.ndarray, cap: int) -> np.ndarray:
    """``dx^gamma`` per row gamma of ``index_table(dim, cap)``, replacing
    the last axis of ``dx`` (shape (dim,) or (m, dim))."""
    exps = index_table(dx.shape[-1], cap)[0]
    # per-axis power tables, multiplied left to right as np.prod would
    powers = dx[..., None] ** np.arange(cap + 1)
    out = 1.0
    for axis in range(dx.shape[-1]):
        out = out * np.take(powers[..., axis, :], exps[:, axis], axis=-1)
    return out


def _tensor_grid(axes) -> np.ndarray:
    """Every point of the tensor product of the 1-D ``axes``, the last
    axis varying fastest: shape (prod of their lengths, len(axes))."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)
