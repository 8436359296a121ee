"""Closed-form routes: the rational expression for the degree-zero series,
the four evaluations of the correction kernel, and the binomial identity."""

from fractions import Fraction

import pytest

from higgsbetti.closedforms import (
    ResidueLabel,
    binomial_extra,
    bivariate_route,
    corollary_closed_form,
    lemma_closed,
    lemma_direct,
    residue_combination,
    residue_piece,
)
from higgsbetti.series import Poly
from higgsbetti.spaces import Determinant, SurfaceSpec
from higgsbetti.strata import ModuliSpec, semistable_series

G2 = SurfaceSpec(2)


def ints(series):
    return [int(c) for c in series.coeffs]


def test_corollary_connected():
    assert corollary_closed_form(G2, Determinant.FIXED, 4)[0] == 1
    assert corollary_closed_form(G2, Determinant.NONFIXED, 4)[0] == 1


def test_corollary_genus_two_anchor():
    assert corollary_closed_form(G2, Determinant.FIXED, 8)[6] == 23


@pytest.mark.parametrize("genus", [2, 3, 4])
@pytest.mark.parametrize("det", list(Determinant))
def test_corollary_equals_stratified_route(genus, det):
    order = 6 * genus + 10
    spec = ModuliSpec(genus, 0, det, order)
    assert corollary_closed_form(SurfaceSpec(genus), det, order) == semistable_series(spec)


def test_lemma_direct_genus_two_is_a_monomial():
    assert ints(lemma_direct(G2, 10)) == [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]


def test_lemma_direct_genus_three():
    series = lemma_direct(SurfaceSpec(3), 12)
    assert all(series[k] == 0 for k in range(8))
    assert series[8] == 1
    assert series[9] == 6  # t^8 * P_t(S^2 M) with b_1 = 2g = 6


def test_lemma_closed_low_coefficients_cancel():
    for g in (2, 3, 4):
        series = lemma_closed(SurfaceSpec(g), 2 * g + 6)
        assert all(series[k] == 0 for k in range(2 * g + 2))


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 8, 16])
def test_kernel_four_way_agreement(genus):
    surface = SurfaceSpec(genus)
    order = 4 * genus + 12
    direct = lemma_direct(surface, order)
    assert lemma_closed(surface, order) == direct
    assert residue_combination(surface, order) == direct
    assert bivariate_route(surface, order) == direct


def test_contour_piece():
    for g in (2, 3, 5):
        piece = residue_piece(SurfaceSpec(g), ResidueLabel.CONTOUR, 4 * g)
        assert piece.value == Poly.monomial(4 * g - 4, -1).as_series(4 * g)


def test_simple_pole_at_one_leading_power():
    piece = residue_piece(SurfaceSpec(3), ResidueLabel.SIMPLE_POLE_X1, 12)
    assert all(piece.value[k] == 0 for k in range(2 * 3 + 2))


def test_simple_pole_at_minus_inverse_t2_transcription():
    # -(1-t)^4 t^4 / (4 (1+t^2)) starts -t^4/4 + t^5 - 5 t^6/4 + ...
    piece = residue_piece(G2, ResidueLabel.SIMPLE_POLE_X_MINUS_INV_T2, 6)
    assert piece.value.coeffs[4:] == (Fraction(-1, 4), Fraction(1), Fraction(-5, 4))


def test_pieces_are_rational_but_combination_is_integral():
    surface = SurfaceSpec(3)
    combined = residue_combination(surface, 20)
    assert any(
        c.denominator != 1
        for label in ResidueLabel
        for c in residue_piece(surface, label, 20).value.coeffs
    )
    assert all(c.denominator == 1 for c in combined.coeffs)


def test_bivariate_route_genus_two():
    assert ints(bivariate_route(G2, 8)) == [0, 0, 0, 0, 0, 0, 1, 0, 0]


def test_binomial_extra_genus_two():
    assert ints(binomial_extra(G2, "direct", 7)) == [0, 0, 0, 0, 0, 0, 15, 0]
    assert ints(binomial_extra(G2, "closed", 7)) == [0, 0, 0, 0, 0, 0, 15, 0]


@pytest.mark.parametrize("genus", range(2, 11))
def test_binomial_extra_routes_agree(genus):
    surface = SurfaceSpec(genus)
    order = 6 * genus
    assert binomial_extra(surface, "direct", order) == binomial_extra(surface, "closed", order)


def test_binomial_extra_rejects_unknown_route():
    with pytest.raises(ValueError):
        binomial_extra(G2, "sideways", 4)
