"""Kernel tests: exact polynomial / truncated-series / bivariate arithmetic."""

import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from higgsbetti.series import (
    BiSeries,
    Poly,
    TruncSeries,
    XOrderExceededError,
    ZeroConstantTermError,
    _exact_all,
    binomial,
    expand_rational,
    first_non_integer,
)


def ints(series):
    return [int(c) for c in series.coeffs]


def count_partitions(k, parts):
    """Partitions of k into parts from the given multiset-free list."""
    ways = [1] + [0] * k
    for p in parts:
        for i in range(p, k + 1):
            ways[i] += ways[i - p]
    return ways[k]


# ---------------------------------------------------------------------------
# addition / multiplication / powers / shifts


def test_add_cancellation():
    assert TruncSeries([1, 1]) + TruncSeries([1, -1]) == TruncSeries([2, 0])


def test_add_identity():
    a = TruncSeries([3, 1, 4], 5)
    assert a + TruncSeries.zero(5) == a


def test_add_truncates_to_min_order():
    a = TruncSeries([1, 1, 1], 2)
    b = TruncSeries([0, 1, 1], 2)
    assert a + b == TruncSeries([1, 2, 2], 2)
    assert (a + TruncSeries([1], 7)).order == 2


def test_mul_difference_of_squares():
    a = TruncSeries([1, 1], 4)
    b = TruncSeries([1, -1], 4)
    assert a * b == TruncSeries([1, 0, -1], 4)


def test_mul_identity():
    a = TruncSeries([2, 0, 5], 3)
    assert a * TruncSeries.one(3) == a


def test_mul_binomial():
    sq = TruncSeries([1, 2, 1], 4)
    assert ints(sq * sq) == [1, 4, 6, 4, 1]


def test_pow_binomial():
    assert ints(TruncSeries([1, 1], 4) ** 4) == [1, 4, 6, 4, 1]


def test_pow_zero_is_one():
    a = TruncSeries([7, 1, 3], 4)
    assert a ** 0 == TruncSeries.one(4)


def test_pow_cubes():
    assert ints(TruncSeries([1, 0, 0, 1], 6) ** 4) == [1, 0, 0, 4, 0, 0, 6]


def test_shift():
    assert ints(TruncSeries([1, 1], 3).shift(2)) == [0, 0, 1, 1]
    a = TruncSeries([1, 2, 3], 5)
    assert a.shift(0) == a
    assert TruncSeries.one(4).shift(5).is_zero
    assert Poly([1, 2]).shift(3) == Poly([0, 0, 0, 1, 2]) == Poly.monomial(3) * Poly([1, 2])
    assert Poly().shift(3) == Poly()


# ---------------------------------------------------------------------------
# inversion and rational expansion


def test_inv_geometric():
    assert ints(TruncSeries([1, -1], 4).inv()) == [1, 1, 1, 1, 1]


def test_inv_of_one():
    assert TruncSeries.one(3).inv() == TruncSeries.one(3)


def test_inv_partition_oracle():
    den = (Poly([1, 0, -1]) * Poly([1, 0, 0, 0, -1])).as_series(8)
    expected = [count_partitions(k, [2, 4]) for k in range(9)]
    assert ints(den.inv()) == expected == [1, 0, 1, 0, 2, 0, 2, 0, 3]


def test_inv_rejects_zero_constant_term():
    with pytest.raises(ZeroConstantTermError):
        TruncSeries([0, 1], 3).inv()


def test_expand_rational_geometric():
    out = expand_rational(Poly([1, 1]), Poly([1, -1]), 3)
    assert ints(out) == [1, 2, 2, 2]


def test_expand_rational_poly_over_one():
    p = Poly([5, 0, 3])
    assert expand_rational(p, Poly.one(), 4) == p.as_series(4)


def test_expand_rational_b5_anchor():
    num = Poly([1, 0, 0, 1]) ** 4
    den = Poly([1, 0, -1]) * Poly([1, 0, 0, 0, -1])
    assert expand_rational(num, den, 5)[5] == 4


def test_expand_rational_rejects_zero_denominator_constant():
    with pytest.raises(ZeroConstantTermError):
        expand_rational(Poly.one(), Poly([0, 1]), 3)


# ---------------------------------------------------------------------------
# binomial


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(2, -1) == 0
    assert binomial(2, 3) == 0
    assert binomial(2 * 2 - 2, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


# ---------------------------------------------------------------------------
# polynomials


def test_poly_trims_trailing_zeros():
    assert Poly([1, 0, 0]).coeffs == (Fraction(1),)
    assert Poly([0, 0]).degree is None
    assert Poly([0, 0, 5]).degree == 2


def test_poly_arithmetic():
    p = Poly([1, 1])
    assert (p * p - Poly([1, 2, 1])).degree is None
    assert (p ** 3).coeffs == (1, 3, 3, 1)
    assert (p - p).degree is None
    assert (2 * p).coeffs == (2, 2)


def test_poly_as_series_pads_exactly():
    assert ints(Poly([1, 1]).as_series(4)) == [1, 1, 0, 0, 0]


# ---------------------------------------------------------------------------
# bivariate series


def test_bi_inv_geometric_in_x():
    f = BiSeries.of_polys([Poly.one(), Poly([-1])], 5, 3)
    inv = f.inv()
    for m in range(6):
        assert inv.x_coeff(m) == TruncSeries.one(3)


def test_bi_mul_identity():
    f = BiSeries.of_polys([Poly([1, 2]), Poly([0, 1]), Poly([3])], 2, 4)
    assert f * BiSeries.one(2, 4) == f


def test_bi_inv_geometric_with_t_weight():
    f = BiSeries.of_polys([Poly.one(), Poly([0, 0, -1])], 4, 8)
    inv = f.inv()
    for m in range(5):
        assert inv.x_coeff(m) == Poly.monomial(2 * m).as_series(8)


def _macdonald_g2(x_order, t_order):
    num = BiSeries.of_polys(
        [Poly.monomial(a, binomial(4, a)) for a in range(5)], x_order, t_order
    )
    den = BiSeries.of_polys([Poly.one(), Poly([-1, 0, -1]), Poly([0, 0, 1])], x_order, t_order)
    return num * den.inv()


def test_x_coeff_macdonald_genus_two():
    f = _macdonald_g2(2, 4)
    assert f.x_coeff(0) == TruncSeries.one(4)
    assert ints(f.x_coeff(1)) == [1, 4, 1, 0, 0]
    assert ints(f.x_coeff(2)) == [1, 4, 7, 4, 1]


def test_x_coeff_beyond_truncation_is_loud():
    f = _macdonald_g2(2, 4)
    with pytest.raises(XOrderExceededError):
        f.x_coeff(3)


def test_bi_inv_needs_invertible_corner():
    f = BiSeries.of_polys([Poly([0, 1]), Poly.one()], 2, 3)
    with pytest.raises(ZeroConstantTermError):
        f.inv()


# ---------------------------------------------------------------------------
# algebraic invariants (randomized)

coeffs_st = st.lists(st.integers(-5, 5), min_size=1, max_size=9)
unit_coeffs_st = coeffs_st.filter(lambda cs: cs[0] != 0)


@given(unit_coeffs_st)
def test_inverse_roundtrip(cs):
    a = TruncSeries(cs)
    assert a * a.inv() == TruncSeries.one(a.order)


@given(coeffs_st, coeffs_st, coeffs_st)
def test_ring_axioms(xs, ys, zs):
    a, b, c = TruncSeries(xs), TruncSeries(ys), TruncSeries(zs)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@given(st.lists(st.integers(-5, 5), max_size=6), unit_coeffs_st)
def test_expand_rational_roundtrip(num_cs, den_cs):
    num, den = Poly(num_cs), Poly(den_cs)
    expansion = expand_rational(num, den, 8)
    assert expansion * den.as_series(8) == num.as_series(8)


@given(unit_coeffs_st)
def test_inverse_coefficients_stay_canonical(cs):
    inv = TruncSeries(cs).inv()
    for c in inv.coeffs:
        assert c.denominator > 0
        assert gcd(abs(c.numerator), c.denominator) == 1


bi_st = st.lists(st.lists(st.integers(-3, 3), max_size=4), min_size=1, max_size=4)


@given(bi_st, bi_st, st.integers(0, 3))
def test_x_coeff_of_product_is_convolution(fs, gs, m):
    f = BiSeries.of_polys([Poly(cs) for cs in fs], 3, 5)
    g = BiSeries.of_polys([Poly(cs) for cs in gs], 3, 5)
    product = f * g
    direct = TruncSeries.zero(5)
    for i in range(m + 1):
        direct = direct + f.x_coeff(i) * g.x_coeff(m - i)
    assert product.x_coeff(m) == direct


# ---------------------------------------------------------------------------
# exact coefficient representation and the sparse rational expansion

scalar_st = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.integers(-9, 9).map(lambda n: Fraction(2 * n, 2)),  # integral Fraction
)
poly_st = st.lists(scalar_st, max_size=8)
den_st = st.tuples(st.sampled_from([1, -1, 2, -2, 4]), poly_st).map(
    lambda t: Poly([t[0]] + t[1])
)


def assert_exact(coeffs):
    for c in coeffs:
        assert type(c) in (int, Fraction)
        assert type(c) is int or c.denominator != 1


@given(poly_st, den_st, st.integers(0, 16))
def test_sparse_expand_rational_matches_dense_inverse(num_cs, den, order):
    num = Poly(num_cs)
    dense = num.as_series(order) * den.as_series(order).inv()
    assert expand_rational(num, den, order) == dense


@given(poly_st, poly_st, den_st, st.integers(0, 12))
def test_coefficients_are_int_when_integral_never_float(xs, ys, den, order):
    p, q = Poly(xs), Poly(ys)
    for poly in (p, q, p + q, p - q, p * q, p * Fraction(2, 3), 1 - p, -p, p ** 2):
        assert_exact(poly.coeffs)
    a, b = p.as_series(order), q.as_series(order)
    for series in (
        a, a + b, a - b, a * b, a * Fraction(1, 2), 2 - a, a + Fraction(1, 3), -a,
        a.shift(2), a ** 2, den.as_series(order).inv(), expand_rational(p, den, order),
    ):
        assert_exact(series.coeffs)


@settings(max_examples=60, deadline=None)
@given(poly_st, st.sampled_from([2, -2, 3, 4, -6, 16]), coeffs_st, st.integers(0, 16))
def test_expand_rational_with_integer_content_matches_dense_inverse(num_cs, content, q_cs, order):
    # den = content * q with q_0 = 1: the recurrence runs on q, one division at the end
    num, den = Poly(num_cs), Poly([content] + [content * c for c in q_cs])
    dense = num.as_series(order) * den.as_series(order).inv()
    expansion = expand_rational(num, den, order)
    assert expansion == dense
    assert_exact(expansion.coeffs)


@given(st.lists(scalar_st, max_size=8))
def test_exact_all_never_keeps_an_integral_fraction(cs):
    out = _exact_all(cs)
    assert out == cs
    assert_exact(out)


@given(
    st.one_of(
        st.lists(st.integers(-2, 2), min_size=1, max_size=8),
        st.lists(scalar_st, min_size=1, max_size=8),
    ),
    st.booleans(),
)
@example([3, -1, 0], True)
@example([0, Fraction(4, 2), Fraction(-1, 1)], True)
def test_first_non_integer_matches_the_plain_scan(cs, nonnegative):
    # the all-int fast path against the coefficient-by-coefficient loop,
    # integral Fractions kept as they are
    def plain(coeffs):
        for k, c in enumerate(coeffs):
            if c.denominator != 1 or (nonnegative and c < 0):
                return k
        return None

    series = TruncSeries._of(cs, len(cs) - 1)
    assert first_non_integer(series, nonnegative=nonnegative) == plain(cs)


def test_an_integral_sum_of_fractions_is_an_int():
    half = TruncSeries([Fraction(1, 2)], 0)
    assert type((half + half).coeffs[0]) is int


def test_series_by_series_operators_make_no_abstract_isinstance_call():
    # Fraction's metaclass is ABCMeta, whose __instancecheck__ is a Python
    # call; an operand of the operator's own type never reaches that check
    # (Fraction's own arithmetic on the coefficients makes such calls too)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__instancecheck__":
            calls.append(frame.f_back.f_code.co_qualname)

    a, b = TruncSeries([1, 2, 3]), TruncSeries([Fraction(1, 2), 0, 5])
    p, q = Poly([1, -1]), Poly([0, 2, 1])
    sys.setprofile(profile)
    try:
        results = (a + b, a * b, a - b, p + q, p * q, p - q)
    finally:
        sys.setprofile(None)
    assert [c for c in calls if c.startswith(("Poly.", "TruncSeries."))] == []
    assert results == (
        TruncSeries([Fraction(3, 2), 2, 8]),
        TruncSeries([Fraction(1, 2), 1, Fraction(13, 2)]),
        TruncSeries([Fraction(1, 2), 2, -2]),
        Poly([1, 1, 1]),
        Poly([0, 2, -1, -1]),
        Poly([1, -3, -1]),
    )
    # scalars still take the scalar path, and other types are refused
    assert a + 1 == TruncSeries([2, 2, 3]) and 2 * p == Poly([2, -2])
    assert a.__add__("x") is NotImplemented and p.__mul__("x") is NotImplemented
