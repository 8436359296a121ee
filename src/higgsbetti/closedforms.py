"""Independent evaluation routes for the degree-zero series.

The stratified assembly of :mod:`higgsbetti.strata` must agree with a
closed-form rational expression.  Inside that expression sits the kernel

    K_g(t) = sum_{d=1}^{g-1} t^{2(g+2d-1)} P_t(S^{2g-2d-2} M),

which this module evaluates by direct summation, by bivariate coefficient
extraction, and through the residue calculus of

    f(x) = (1+xt)^{2g} t^{2g+2} x^{3-2g} / ((1-x)(1-xt^2)^2 (1+xt^2)).

One table, :func:`_residue_fraction`, holds the four residue pieces as
rational functions of t.  The residue route expands each piece and combines
the series; the closed form puts the four pieces over one denominator and
expands a single rational function.  Both read the same table, so they are
one route in two arithmetics, not two independent ones.  The binomial
identity for the anti-invariant extras is checked the same way.  Individual
pieces have genuinely rational coefficients; only their combinations are
integral.
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


def _residue_fraction(genus: int, label: ResidueLabel) -> tuple[Poly, Poly]:
    """One piece of the residue evaluation as a rational function num/den
    of t; every denominator has a nonzero constant term.

        contour:        -t^{4g-4}
        x = 1:          -t^{2g+2} (1+t)^{2g} / ((1-t^2)(1-t^4))
        x = -1/t^2:     -t^{4g-4} (1-t)^{2g} / (4(1+t^2))
        x = 1/t^2:       t^{4g-4} (1+t)^{2g} / (2(t^2-1)) * bracket

    where bracket = 2g/(t+1) + 1/(t^2-1) - 1/2 + (3-2g), written over its
    common denominator 2(t+1)(t^2-1).
    """
    g = genus
    shift = Poly.monomial(4 * g - 4)
    if label is ResidueLabel.CONTOUR:
        return -shift, Poly.one()
    if label is ResidueLabel.SIMPLE_POLE_X1:
        num = -Poly.monomial(2 * g + 2) * _ONE_PLUS_T ** (2 * g)
        return num, _ONE_MINUS_T2 * _ONE_MINUS_T4
    if label is ResidueLabel.SIMPLE_POLE_X_MINUS_INV_T2:
        return -shift * _ONE_MINUS_T ** (2 * g), _ONE_PLUS_T2 * 4
    if label is ResidueLabel.DOUBLE_POLE_X_INV_T2:
        bracket = (
            _T2_MINUS_1 * (4 * g)
            + _ONE_PLUS_T * 2
            + _ONE_PLUS_T * _T2_MINUS_1 * (5 - 4 * g)
        )
        num = shift * _ONE_PLUS_T ** (2 * g) * bracket
        return num, _ONE_PLUS_T * _T2_MINUS_1 * _T2_MINUS_1 * 4
    raise ValueError(f"unknown residue label {label!r}")  # pragma: no cover


def residue_piece(surface: SurfaceSpec, label: ResidueLabel, order: int) -> ResiduePiece:
    """One labelled piece, expanded exactly."""
    return ResiduePiece(label, expand_rational(*_residue_fraction(surface.genus, label), order))


def residue_combination(surface: SurfaceSpec, order: int) -> TruncSeries:
    """The residue at x = 0 of f(x): contour value minus the residues at the
    three finite poles x = 1, x = -1/t^2 and x = 1/t^2."""
    contour, *poles = (residue_piece(surface, label, order).value for label in ResidueLabel)
    for pole in poles:
        contour = contour - pole
    return contour


def lemma_direct(surface: SurfaceSpec, order: int) -> TruncSeries:
    """The kernel K_g(t) summed term by term over d = 1..g-1."""
    total = TruncSeries.zero(order)
    for d in range(1, surface.genus):
        n = 2 * surface.genus - 2 * d - 2
        shift = 2 * (surface.genus + 2 * d - 1)
        total = total + sym_series(surface, n, order).shift(shift)
    return total


def lemma_closed(surface: SurfaceSpec, order: int) -> TruncSeries:
    """The kernel K_g(t) in closed form: the contour piece minus the three
    pole pieces of :func:`_residue_fraction`, put over one denominator and
    expanded once."""
    num, den = Poly(), Poly.one()
    for label in ResidueLabel:
        piece_num, piece_den = _residue_fraction(surface.genus, label)
        if label is not ResidueLabel.CONTOUR:
            piece_num = -piece_num
        num, den = num * piece_den + piece_num * den, den * piece_den
    return expand_rational(num, den, order)


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
