import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakern.errors import StructureError, UnsupportedSpecError
from parakern.funcspec import FourierEntry, GaussianMix, PolyEntry
from parakern.polyalg import (index_table, _csr_apply, _degree, _mul_cols,
                              _mul_tables, _overflow_cols, _rows)
from parakern.recursion import ProblemCoefficients

from objalg import (TaylorPoly, TimeJet, dense_mul_cols, dense_overflow_cols,
                    jet_compose_time, jet_dt, jet_eval, jet_mul, pad_rows,
                    poly_add, poly_eval, poly_laplacian, poly_mul,
                    poly_partial, remainder_bound)


def P(dim, cap, coeffs, center=None):
    center = center or (0.0,) * dim
    return TaylorPoly.from_coeff_dict(coeffs, dim, center, cap)


# ---------------------------------------------------------------------------
# add / mul / partial / laplacian / eval examples
# ---------------------------------------------------------------------------

def test_add_cancellation_and_identity():
    one_plus = P(1, 3, {(0,): 1.0, (1,): 1.0})
    minus = P(1, 3, {(1,): -1.0})
    total = poly_add(one_plus, minus)
    assert total.coeff((0,)) == 1.0 and total.coeff((1,)) == 0.0
    zero = TaylorPoly.zero(1, (0.0,), 3)
    assert np.array_equal(poly_add(one_plus, zero).coeffs, one_plus.coeffs)


def test_add_two_coordinates():
    a = P(2, 2, {(1, 0): 1.0})
    b = P(2, 2, {(0, 1): 1.0})
    assert poly_eval(poly_add(a, b), [1.0, 1.0]) == 2.0


def test_mul_difference_of_squares():
    a = P(1, 4, {(0,): 1.0, (1,): 1.0})
    b = P(1, 4, {(0,): 1.0, (1,): -1.0})
    prod = poly_mul(a, b)
    assert prod.coeff((0,)) == 1.0
    assert prod.coeff((1,)) == 0.0
    assert prod.coeff((2,)) == -1.0


def test_mul_by_zero():
    a = P(1, 4, {(0,): 2.0, (1,): 3.0})
    zero = TaylorPoly.zero(1, (0.0,), 4)
    assert poly_mul(a, zero).max_abs() == 0.0


def brute_convolve(a: TaylorPoly, b: TaylorPoly) -> dict:
    """Independent dense convolution over all index pairs."""
    exps, _, _ = index_table(a.dim, a.cap)
    out = {}
    for i, ei in enumerate(exps):
        for j, ej in enumerate(exps):
            key = tuple(ei + ej)
            if sum(key) <= a.cap:
                out[key] = out.get(key, 0.0) + a.coeffs[i] * b.coeffs[j]
    return out


def test_mul_square_of_sum_vs_bruteforce():
    s = P(2, 4, {(1, 0): 1.0, (0, 1): 1.0})
    sq = poly_mul(s, s)
    ref = brute_convolve(s, s)
    for key, val in ref.items():
        assert sq.coeff(key) == pytest.approx(val, abs=0.0)
    assert sq.coeff((2, 0)) == 1.0
    assert sq.coeff((1, 1)) == 2.0
    assert sq.coeff((0, 2)) == 1.0


def test_mul_random_vs_bruteforce():
    rng = np.random.default_rng(11)
    for dim, cap in ((1, 6), (2, 4), (3, 3)):
        exps, _, _ = index_table(dim, cap)
        a = TaylorPoly(dim, (0.0,) * dim, cap, rng.standard_normal(len(exps)))
        b = TaylorPoly(dim, (0.0,) * dim, cap, rng.standard_normal(len(exps)))
        prod = poly_mul(a, b)
        ref = brute_convolve(a, b)
        for key, val in ref.items():
            assert prod.coeff(key) == pytest.approx(val, rel=1e-14, abs=1e-14)


def test_partial_examples():
    sq = P(1, 3, {(2,): 1.0})
    d = poly_partial(sq, 0)
    assert d.coeff((1,)) == 2.0 and d.coeff((2,)) == 0.0
    const = P(1, 3, {(0,): 5.0})
    assert poly_partial(const, 0).max_abs() == 0.0
    # d/dx1 (dx1^2 dx2) = 2 dx1 dx2, against the product-rule route
    p = P(2, 4, {(2, 1): 1.0})
    d1 = poly_partial(p, 0)
    assert d1.coeff((1, 1)) == 2.0
    x1 = P(2, 4, {(1, 0): 1.0})
    x1sq_x2 = poly_mul(poly_mul(x1, x1), P(2, 4, {(0, 1): 1.0}))
    alt = poly_partial(x1sq_x2, 0)
    assert np.allclose(alt.coeffs, d1.coeffs)


def test_laplacian_examples():
    assert poly_laplacian(P(1, 4, {(2,): 1.0})).coeff((0,)) == 2.0
    assert poly_laplacian(P(2, 4, {(1, 0): 1.0, (0, 1): 2.0})).max_abs() == 0.0
    p = P(2, 4, {(2, 0): 1.0, (0, 4): 1.0})
    lap = poly_laplacian(p)
    assert lap.coeff((0, 0)) == 2.0
    assert lap.coeff((0, 2)) == 12.0


def test_eval_examples():
    p = P(1, 3, {(0,): 7.0, (1,): 2.0, (3,): -1.0})
    assert poly_eval(p, [0.0]) == 7.0
    affine = P(1, 2, {(0,): 1.0, (1,): 1.0})
    assert poly_eval(affine, [2.0]) == 3.0
    cross = P(2, 2, {(1, 1): 1.0})
    assert poly_eval(cross, [3.0, -1.0]) == -3.0


# ---------------------------------------------------------------------------
# ring axioms and calculus identities on random data
# ---------------------------------------------------------------------------

def random_poly(rng, dim, cap, degree):
    exps, pos, orders = index_table(dim, cap)
    coeffs = np.where(orders <= degree, rng.standard_normal(len(exps)), 0.0)
    return TaylorPoly(dim, (0.0,) * dim, cap, coeffs)


def test_associativity_within_cap():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_poly(rng, 2, 9, 3)
        b = random_poly(rng, 2, 9, 3)
        c = random_poly(rng, 2, 9, 3)
        left = poly_mul(poly_mul(a, b), c)
        right = poly_mul(a, poly_mul(b, c))
        assert np.allclose(left.coeffs, right.coeffs, rtol=1e-13, atol=1e-13)
        assert not left.truncated


def test_commutativity_and_distributivity():
    rng = np.random.default_rng(4)
    a = random_poly(rng, 2, 8, 4)
    b = random_poly(rng, 2, 8, 4)
    c = random_poly(rng, 2, 8, 4)
    assert np.allclose(poly_mul(a, b).coeffs, poly_mul(b, a).coeffs)
    lhs = poly_mul(a, poly_add(b, c))
    rhs = poly_add(poly_mul(a, b), poly_mul(a, c))
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-13)


def test_leibniz_rule():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_poly(rng, 2, 8, 3)
        b = random_poly(rng, 2, 8, 4)
        for axis in range(2):
            lhs = poly_partial(poly_mul(a, b), axis)
            rhs = poly_add(poly_mul(poly_partial(a, axis), b),
                           poly_mul(a, poly_partial(b, axis)))
            assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-13)


def test_eval_respects_products_without_truncation():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_poly(rng, 1, 10, 5)
        b = random_poly(rng, 1, 10, 5)
        prod = poly_mul(a, b)
        assert not prod.truncated
        x = rng.uniform(-0.8, 0.8, 1)
        va = poly_eval(a, x)
        vb = poly_eval(b, x)
        vp = poly_eval(prod, x)
        assert vp == pytest.approx(va * vb, rel=1e-12, abs=1e-12)


def test_truncation_flag_set_and_propagated():
    a = P(1, 2, {(2,): 1.0})
    prod = poly_mul(a, a)  # dx^4 exceeds the cap
    assert prod.truncated
    assert poly_add(prod, a).truncated


def test_structural_mismatch_raises():
    a = P(1, 3, {(0,): 1.0})
    b = P(1, 4, {(0,): 1.0})
    with pytest.raises(StructureError):
        poly_add(a, b)
    c = P(1, 3, {(0,): 1.0}, center=(0.5,))
    with pytest.raises(StructureError):
        poly_mul(a, c)


def test_degree_and_rows_are_total():
    # no rows is the zero polynomial, of degree -1, and back
    for dim in (1, 2, 3):
        for cap in (0, 1, 4):
            assert _degree(0, dim, cap) == -1
            assert _rows(dim, -1) == 0
            for d in range(cap + 1):
                assert _degree(_rows(dim, d), dim, cap) == d


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 3), cap=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_trimmed_product_equals_full_table_product(data, dim, cap, seed):
    # columns of degree da and db hold only the rows up to their degree;
    # their product forms only those rows' pairs and must equal the
    # full-table product up to the sign of zero, with the same overflow
    # flags.  Some columns are zero at their top degree, or everywhere
    da = data.draw(st.integers(0, cap), label="da")
    db = data.draw(st.integers(0, cap), label="db")
    rng = np.random.default_rng(seed)

    def columns(d):
        x = rng.standard_normal((_rows(dim, d), 2, 3))
        x[rng.random(x.shape) < 0.3] = 0.0
        x[_rows(dim, d - 1) if d else 0:, 0, 0] = 0.0
        x[:, 1, 1] = 0.0
        return x

    a, b = columns(da), columns(db)
    n = len(index_table(dim, cap)[0])
    prod = _mul_cols(a, b, dim, cap)
    assert prod.shape == (_rows(dim, min(da + db, cap)), 2, 3)
    full = dense_mul_cols(pad_rows(a, n), pad_rows(b, n), dim, cap)
    # adding +0.0 maps -0.0 to +0.0 and leaves every other value alone
    assert (pad_rows(prod, n) + 0.0).tobytes() == (full + 0.0).tobytes()
    assert np.array_equal(_overflow_cols(a, b, dim, cap),
                          dense_overflow_cols(pad_rows(a, n), pad_rows(b, n),
                                              dim, cap))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 3), cap=st.integers(0, 8), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_degree_zero_product_equals_scatter_product(dim, cap, data, seed):
    # a one-row operand takes the broadcast product; it must give the CSR
    # scatter's bits exactly, signed zeros, infinities and NaNs included
    d = data.draw(st.integers(0, cap), label="d")
    first = data.draw(st.booleans(), label="degree-0 operand first")
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])

    def column(rows):
        x = rng.standard_normal((rows, 4, 3))
        pick = rng.random(x.shape) < 0.4
        x[pick] = rng.choice(special, pick.sum())
        return x

    a, b = column(1), column(_rows(dim, d))
    if not first:
        a, b = b, a
    ii, jj, scatter, _, _ = _mul_tables(dim, cap, 0 if first else d,
                                        d if first else 0)
    with np.errstate(invalid="ignore"):     # inf * 0
        ref = (scatter @ (a[ii] * b[jj]).reshape(len(ii), -1)).reshape(
            scatter.shape[:1] + a.shape[1:])
        got = _mul_cols(a, b, dim, cap)
    assert got.shape == ref.shape == (_rows(dim, d), 4, 3)
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(1, 3), cap=st.integers(1, 8), cols=st.sampled_from(
    [1, 2, 7]), seed=st.integers(0, 2 ** 32 - 1))
def test_csr_apply_is_the_sparse_product_bit_for_bit(dim, cap, cols, seed):
    # the helper calls scipy's private kernel; it must give ``S @ x``'s
    # bytes, signed zeros, infinities and NaNs included, on one column
    # (where ``@`` takes its vector kernel) and on several, so a scipy
    # whose kernel differs fails here instead of moving outputs
    rng = np.random.default_rng(seed)
    S = _mul_tables(dim, cap, cap, int(rng.integers(1, cap + 1)))[2]
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -2.5])
    x = rng.standard_normal((S.shape[1], cols))
    pick = rng.random(x.shape) < 0.3
    x[pick] = rng.choice(special, pick.sum())
    with np.errstate(invalid="ignore", over="ignore"):
        ref = S @ x
        for operand in (x, np.asfortranarray(x)):
            got = _csr_apply(S, operand)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Taylor expansion of the entries (``_taylor_cols``, as the recursion calls
# it: one column per centre, and whether the cap cut a term)
# ---------------------------------------------------------------------------

def taylor(entry, y, cap):
    """The degree-``cap`` Taylor polynomial of ``entry`` about ``y``."""
    coeffs, truncated = entry._taylor_cols(np.array([y], dtype=float), cap)
    return TaylorPoly(entry.dim, tuple(y), cap, coeffs[:, 0], truncated)


def test_taylorize_constant():
    entry = PolyEntry(1, ((5.0, (0,)),))
    poly = taylor(entry, [0.3], 4)
    assert poly.coeff((0,)) == 5.0 and not poly.truncated
    assert remainder_bound(entry, 4, 1.0) == 0.0


def test_taylorize_sine_series_and_fd_crosscheck():
    entry = FourierEntry(1, ((1.0, (1.0,), 0.0),))
    poly = taylor(entry, [0.0], 3)
    assert poly.truncated
    assert poly.coeff((1,)) == pytest.approx(1.0, abs=1e-15)
    assert poly.coeff((3,)) == pytest.approx(-1 / 6, abs=1e-15)
    assert poly.coeff((0,)) == pytest.approx(0.0, abs=1e-15)
    # third derivative at 0 via central differences
    h = 1e-2
    fd3 = (entry.eval(0.0, [2 * h]) - 2 * entry.eval(0.0, [h])
           + 2 * entry.eval(0.0, [-h]) - entry.eval(0.0, [-2 * h])) \
        / (2 * h ** 3)
    assert fd3 / 6 == pytest.approx(poly.coeff((3,)), rel=1e-3)


def test_taylorize_recenters_polynomial():
    entry = PolyEntry(1, ((1.0, (2,)),))
    poly = taylor(entry, [1.0], 4)
    assert poly.coeff((0,)) == 1.0
    assert poly.coeff((1,)) == 2.0
    assert poly.coeff((2,)) == 1.0


def test_taylorize_rejects_unknown_class():
    # the recursion expands poly and fourier entries only
    with pytest.raises(UnsupportedSpecError):
        ProblemCoefficients(1, 1, {(0, 0, 0): GaussianMix(
            ((1.0, 1.0, (0.0,)),))})


def test_remainder_bound_is_a_bound():
    entry = FourierEntry(1, ((0.7, (2.0,), 0.4),))
    radius = 0.8
    poly = taylor(entry, [0.2], 6)
    bound = remainder_bound(entry, 6, radius)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        x = np.array([0.2 + rng.uniform(-radius, radius)])
        err = abs(entry.eval(0.0, x) - poly_eval(poly, x))
        worst = max(worst, err)
    assert worst <= bound
    assert bound < 1.0  # and not vacuous


# ---------------------------------------------------------------------------
# TimeJet
# ---------------------------------------------------------------------------

def test_jet_time_derivative_lowers_order():
    p0 = P(1, 3, {(0,): 1.0})
    p1 = P(1, 3, {(1,): 2.0})
    p2 = P(1, 3, {(0,): 3.0})
    jet = TimeJet("t", (p0, p1, p2))
    d = jet_dt(jet)
    assert d.order == jet.order - 1
    assert d.terms[0].coeff((1,)) == 2.0   # 1 * p1
    assert d.terms[1].coeff((0,)) == 6.0   # 2 * p2


def test_jet_mul_matches_scalar_series():
    p = P(1, 2, {(0,): 2.0})
    q = P(1, 2, {(0,): 3.0})
    a = TimeJet("t", (p, q))          # 2 + 3t
    b = TimeJet("t", (q, p))          # 3 + 2t
    prod = jet_mul(a, b)              # 6 + 13t + 6t^2
    assert [term.coeff((0,)) for term in prod.terms] == [6.0, 13.0, 6.0]
    assert jet_eval(prod, 0.5, [0.0]) == pytest.approx((2 + 1.5) * (3 + 1),
                                                       abs=1e-15)


def test_jet_compose_time_rescale():
    # b(t) = 1 + t composed with t = 0.5 tau gives 1 + 0.5 tau
    p0 = P(1, 2, {(0,): 1.0})
    p1 = P(1, 2, {(0,): 1.0})
    jet = TimeJet("t", (p0, p1))
    inner = np.array([0.0, 0.5, 0.0])
    out = jet_compose_time(jet, inner, "tau", 2)
    assert out.var == "tau"
    assert out.terms[0].coeff((0,)) == 1.0
    assert out.terms[1].coeff((0,)) == 0.5
    assert out.terms[2].max_abs() == 0.0
