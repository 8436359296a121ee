"""Building-block Poincare series: Jacobians, BU(1), classifying spaces,
symmetric products and their covers."""

import pytest

from higgsbetti.series import Poly
from higgsbetti.spaces import (
    CoverRangeError,
    Determinant,
    SurfaceSpec,
    anti_invariant_dim,
    bg_series,
    binomial_poly,
    bu1_series,
    jacobian_series,
    sym_cover_series,
    sym_generating,
    sym_poly,
    sym_series,
)

G2 = SurfaceSpec(2)


def ints(series):
    return [int(c) for c in series.coeffs]


def count_partitions(k, parts):
    ways = [1] + [0] * k
    for p in parts:
        for i in range(p, k + 1):
            ways[i] += ways[i - p]
    return ways[k]


def test_surface_rejects_small_genus():
    for genus in (1, 0, -3):
        with pytest.raises(ValueError, match="^genus must be at least 2$"):
            SurfaceSpec(genus)
    with pytest.raises(ValueError, match="^genus must be at least 2$"):
        SurfaceSpec(genus=1)


def test_surface_is_frozen():
    with pytest.raises(AttributeError):
        G2.genus = 3
    with pytest.raises(AttributeError):
        G2.extra = 1  # no instance dict either
    assert G2.genus == 2 and G2 == SurfaceSpec(2)


def test_equal_surfaces_share_one_cache_entry():
    sym_poly.cache_clear()
    first = sym_poly(SurfaceSpec(3), 2)
    again = SurfaceSpec(3)
    assert hash(again) == hash(SurfaceSpec(3))
    assert sym_poly(again, 2) is first
    info = sym_poly.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    sym_poly.cache_clear()


def test_jacobian_series():
    assert ints(jacobian_series(G2, 4)) == [1, 4, 6, 4, 1]
    assert jacobian_series(SurfaceSpec(3), 6)[1] == 6
    assert jacobian_series(G2, 6)[5] == 0


def test_bu1_series():
    assert ints(bu1_series(6)) == [1, 0, 1, 0, 1, 0, 1]
    assert bu1_series(4)[3] == 0
    assert ints(bu1_series(0)) == [1]


def test_bg_series_fixed_anchor():
    assert bg_series(G2, Determinant.FIXED, 5)[5] == 4


@pytest.mark.parametrize("step", [1, 3])
def test_binomial_poly_is_the_power(step):
    # the binomial theorem against repeated squaring
    base = Poly.monomial(step) + 1
    for n in range(129):
        assert binomial_poly(n, step) == base**n, n


def test_binomial_poly_rejects_bad_arguments():
    for n, step in ((-1, 1), (2, 0)):
        with pytest.raises(ValueError, match="^binomial_poly needs n >= 0 and step >= 1$"):
            binomial_poly(n, step)


def test_bg_series_connected():
    for g in (2, 3, 4):
        for det in Determinant:
            assert bg_series(SurfaceSpec(g), det, 3)[0] == 1


def test_bg_series_fixed_hand_expansion():
    # (1 + 4t^3 + 6t^6 + ...) convolved with the {2,4}-partition series
    bg = bg_series(G2, Determinant.FIXED, 8)
    numerator = (Poly([1, 0, 0, 1]) ** 4).coeffs
    for k in range(9):
        expected = sum(
            int(numerator[j]) * count_partitions(k - j, [2, 4])
            for j in range(min(k, len(numerator) - 1) + 1)
        )
        assert bg[k] == expected
    assert bg[6] == 8


def test_sym_series_small():
    assert ints(sym_series(G2, 0, 0)) == [1]
    assert ints(sym_series(G2, 1, 2)) == [1, 4, 1]
    assert ints(sym_series(G2, 2, 4)) == [1, 4, 7, 4, 1]


def test_sym_oracle_small():
    assert ints(sym_generating(G2, 1)) == [1, 4, 1]
    assert sym_generating(G2, 2)[2] == 7  # C(4,2) + C(4,0)
    for g in (2, 3, 5):
        assert ints(sym_generating(SurfaceSpec(g), 0)) == [1]


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_sym_series_matches_oracle(genus):
    surface = SurfaceSpec(genus)
    for n in range(13):
        assert sym_series(surface, n, 2 * n) == sym_generating(surface, n)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_sym_series_palindromic_and_low_degrees(genus):
    surface = SurfaceSpec(genus)
    for n in range(1, 2 * genus - 1):
        coeffs = sym_series(surface, n, 2 * n).coeffs
        assert all(coeffs[k] == coeffs[2 * n - k] for k in range(2 * n + 1))
        assert coeffs[0] == 1
        assert coeffs[1] == 2 * genus


def test_sym_series_nonnegative_integers():
    for n in range(8):
        for c in sym_series(SurfaceSpec(3), n, 2 * n).coeffs:
            assert c.denominator == 1 and c >= 0


def test_cover_small():
    assert ints(sym_cover_series(G2, 0, 0)) == [16]
    assert ints(sym_cover_series(G2, 1, 2)) == [1, 34, 1]
    assert ints(sym_cover_series(G2, 2, 4)) == [1, 4, 22, 4, 1]


def test_cover_euler_characteristic_oracle():
    # the n=1 cover is a 2^{2g}-fold cover of the curve itself, so its first
    # Betti number is 2 - 2^{2g} * (2 - 2g)
    for g in (2, 3, 4):
        surface = SurfaceSpec(g)
        cover = sym_cover_series(surface, 1, 2)
        assert ints(cover) == [1, 2 + 2 ** (2 * g) * (2 * g - 2), 1]


def test_anti_invariant_dims():
    assert anti_invariant_dim(G2, 0) == 15
    assert anti_invariant_dim(G2, 1) == 30
    assert anti_invariant_dim(G2, 2) == 15


def test_cover_minus_base_is_concentrated():
    for g in (2, 3):
        surface = SurfaceSpec(g)
        for n in range(2 * g - 1):
            diff = sym_cover_series(surface, n, 2 * n + 2) - sym_series(surface, n, 2 * n + 2)
            expected = Poly.monomial(n, anti_invariant_dim(surface, n)).as_series(2 * n + 2)
            assert diff == expected


def test_cover_range_is_enforced():
    with pytest.raises(CoverRangeError):
        sym_cover_series(G2, 3, 6)
    with pytest.raises(CoverRangeError):
        anti_invariant_dim(G2, -1)
