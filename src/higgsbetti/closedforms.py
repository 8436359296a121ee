"""Independent evaluation routes for the degree-zero series.

The stratified assembly of :mod:`higgsbetti.strata` must agree with a
closed-form rational expression.  Inside that expression sits the kernel

    K_g(t) = sum_{d=1}^{g-1} t^{2(g+2d-1)} P_t(S^{2g-2d-2} M),

which this module evaluates four independent ways: direct summation, a
closed form, a signed combination of residues of

    f(x) = (1+xt)^{2g} t^{2g+2} x^{3-2g} / ((1-x)(1-xt^2)^2 (1+xt^2)),

and bivariate coefficient extraction.  The binomial identity for the
anti-invariant extras is checked the same way.  Individual pieces have
genuinely rational coefficients; only their combinations are integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .series import BiSeries, Poly, TruncSeries, binomial, expand_rational
from .spaces import Determinant, SurfaceSpec, sym_series

__all__ = [
    "ResidueLabel",
    "ResiduePiece",
    "binomial_extra",
    "bivariate_route",
    "corollary_closed_form",
    "lemma_closed",
    "lemma_direct",
    "residue_combination",
    "residue_piece",
]

_ONE_PLUS_T = Poly([1, 1])
_ONE_MINUS_T = Poly([1, -1])
_ONE_MINUS_T2 = Poly([1, 0, -1])
_ONE_MINUS_T4 = Poly([1, 0, 0, 0, -1])
_ONE_PLUS_T2 = Poly([1, 0, 1])
_T2_MINUS_1 = Poly([-1, 0, 1])


class ResidueLabel(Enum):
    """The four pieces of the residue evaluation of the kernel."""

    CONTOUR = "contour"
    SIMPLE_POLE_X1 = "simple-pole-x=1"
    SIMPLE_POLE_X_MINUS_INV_T2 = "simple-pole-x=-1/t^2"
    DOUBLE_POLE_X_INV_T2 = "double-pole-x=1/t^2"


@dataclass(frozen=True)
class ResiduePiece:
    label: ResidueLabel
    value: TruncSeries


def _double_pole_bracket(genus: int) -> tuple[Poly, Poly]:
    """The inner factor 2g/(t+1) + 1/(t^2-1) - 1/2 + (3-2g) as a single
    rational expression over the common denominator 2(t+1)^2(t-1).

    One inversion instead of three; same exact result.
    """
    t_plus_1 = Poly([1, 1])
    num = (
        _T2_MINUS_1 * (4 * genus)
        + t_plus_1 * 2
        + t_plus_1 * _T2_MINUS_1 * (5 - 4 * genus)
    )
    den = t_plus_1 * _T2_MINUS_1 * 2
    return num, den


def residue_piece(surface: SurfaceSpec, label: ResidueLabel, order: int) -> ResiduePiece:
    """One labelled piece, expanded exactly.

    Denominator constant terms are 1, 4 and -2: always invertible.
    """
    g = surface.genus
    g2 = 2 * g
    if label is ResidueLabel.CONTOUR:
        # the contour integral around all poles
        value = Poly.monomial(4 * g - 4, -1).as_series(order)
    elif label is ResidueLabel.SIMPLE_POLE_X1:
        num = -Poly.monomial(g2 + 2) * _ONE_PLUS_T ** g2
        value = expand_rational(num, _ONE_MINUS_T2 * _ONE_MINUS_T4, order)
    elif label is ResidueLabel.SIMPLE_POLE_X_MINUS_INV_T2:
        num = -Poly.monomial(4 * g - 4) * _ONE_MINUS_T ** g2
        value = expand_rational(num, _ONE_PLUS_T2 * 4, order)
    elif label is ResidueLabel.DOUBLE_POLE_X_INV_T2:
        bracket_num, bracket_den = _double_pole_bracket(g)
        num = Poly.monomial(4 * g - 4) * _ONE_PLUS_T ** g2 * bracket_num
        den = _T2_MINUS_1 * 2 * bracket_den
        value = expand_rational(num, den, order)
    else:  # pragma: no cover
        raise ValueError(f"unknown residue label {label!r}")
    return ResiduePiece(label, value)


def residue_combination(surface: SurfaceSpec, order: int) -> TruncSeries:
    """The residue at x = 0 of f(x): contour value minus the residues at the
    three finite poles x = 1, x = -1/t^2 and x = 1/t^2."""
    contour = residue_piece(surface, ResidueLabel.CONTOUR, order).value
    at_one = residue_piece(surface, ResidueLabel.SIMPLE_POLE_X1, order).value
    at_minus = residue_piece(surface, ResidueLabel.SIMPLE_POLE_X_MINUS_INV_T2, order).value
    at_plus = residue_piece(surface, ResidueLabel.DOUBLE_POLE_X_INV_T2, order).value
    return contour - at_one - at_minus - at_plus


def lemma_direct(surface: SurfaceSpec, order: int) -> TruncSeries:
    """The kernel K_g(t) summed term by term over d = 1..g-1."""
    total = TruncSeries.zero(order)
    for d in range(1, surface.genus):
        n = 2 * surface.genus - 2 * d - 2
        shift = 2 * (surface.genus + 2 * d - 1)
        total = total + sym_series(surface, n, order).shift(shift)
    return total


def lemma_closed(surface: SurfaceSpec, order: int) -> TruncSeries:
    """The kernel K_g(t) in closed form:

        -t^{4g-4} + t^{2g+2}(1+t)^{2g} / ((1-t^2)(1-t^4))
                  + (1-t)^{2g} t^{4g-4} / (4(1+t^2))
                  - (t+1)^{2g} t^{4g-4} / (2(t^2-1)) * [bracket]

    with the double-pole bracket of :func:`_double_pole_bracket`.
    """
    g = surface.genus
    g2 = 2 * g
    total = Poly.monomial(4 * g - 4, -1).as_series(order)
    total = total + expand_rational(
        Poly.monomial(g2 + 2) * _ONE_PLUS_T ** g2, _ONE_MINUS_T2 * _ONE_MINUS_T4, order
    )
    total = total + expand_rational(
        Poly.monomial(4 * g - 4) * _ONE_MINUS_T ** g2, _ONE_PLUS_T2 * 4, order
    )
    bracket_num, bracket_den = _double_pole_bracket(g)
    total = total + expand_rational(
        -Poly.monomial(4 * g - 4) * _ONE_PLUS_T ** g2 * bracket_num,
        _T2_MINUS_1 * 2 * bracket_den,
        order,
    )
    return total


def bivariate_route(surface: SurfaceSpec, order: int) -> TruncSeries:
    """The kernel K_g(t) as the coefficient of x^{2g} in

        t^{2g+2} x^4 (1+xt)^{2g} / ((1-x)(1-xt^2)(1-x^2 t^4)),

    validating the resummation of the infinite sum behind the residue
    calculus by an independent computation.
    """
    g2 = 2 * surface.genus
    # numerator: x^{a+4} coefficient is C(2g, a) t^{2g+2+a}
    num_polys: list[Poly] = [Poly()] * 4 + [
        Poly.monomial(g2 + 2 + a, binomial(g2, a)) for a in range(g2 - 3)
    ]
    num = BiSeries.of_polys(num_polys, g2, order)
    den = (
        BiSeries.of_polys([Poly.one(), Poly([-1])], g2, order)
        * BiSeries.of_polys([Poly.one(), Poly([0, 0, -1])], g2, order)
        * BiSeries.of_polys([Poly.one(), Poly(), Poly.monomial(4, -1)], g2, order)
    )
    return (num * den.inv()).x_coeff(g2)


def binomial_extra(surface: SurfaceSpec, route: str, order: int) -> TruncSeries:
    """The anti-invariant extras summed over the strata, two ways.

    direct:  (2^{2g}-1) t^{4g-4} sum_{d=1}^{g-1} C(2g-2, 2g-2d-2) t^{2d}
    closed:  (2^{2g}-1)/2 t^{4g-4} ((1+t)^{2g-2} + (1-t)^{2g-2} - 2)

    Equal by the binomial theorem (the even-index half of (1+t)^{2g-2}).
    """
    g = surface.genus
    mass = 2 ** (2 * g) - 1
    if route == "direct":
        total = Poly()
        for d in range(1, g):
            total = total + Poly.monomial(2 * d, binomial(2 * g - 2, 2 * g - 2 * d - 2))
        poly = Poly.monomial(4 * g - 4, mass) * total
    elif route == "closed":
        even_half = _ONE_PLUS_T ** (2 * g - 2) + _ONE_MINUS_T ** (2 * g - 2) - 2
        poly = Poly.monomial(4 * g - 4, Fraction(mass, 2)) * even_half
    else:
        raise ValueError("route must be 'direct' or 'closed'")
    return poly.as_series(order)


def corollary_closed_form(
    surface: SurfaceSpec, determinant: Determinant, order: int
) -> TruncSeries:
    """Closed form of the degree-zero semistable series, built from the
    closed kernel and the closed binomial extras.

    Fixed determinant:

        ((1+t^3)^{2g} - (1+t)^{2g} t^{2g+2}) / ((1-t^2)(1-t^4))
        + K_g(t) closed form + binomial extras

    Non-fixed determinant: the leading term plus the closed kernel, times
    the Jacobian/BU(1) factor (1+t)^{2g}/(1-t^2); no binomial extras, since
    the non-fixed correction uses S^n M itself, not its cover.
    """
    g2 = 2 * surface.genus
    leading = expand_rational(
        Poly([1, 0, 0, 1]) ** g2 - _ONE_PLUS_T ** g2 * Poly.monomial(g2 + 2),
        _ONE_MINUS_T2 * _ONE_MINUS_T4,
        order,
    )
    total = leading + lemma_closed(surface, order)
    if determinant is Determinant.FIXED:
        return total + binomial_extra(surface, "closed", order)
    return total * expand_rational(_ONE_PLUS_T ** g2, _ONE_MINUS_T2, order)
