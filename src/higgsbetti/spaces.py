"""Poincare series of the building-block spaces.

Everything the stratification formulas are assembled from: Jacobian tori,
BU(1), classifying spaces of the rank-2 gauge groups, symmetric products
S^n M of a genus-g curve, and their 2^{2g}-fold covers.  All coefficients
are nonnegative integers.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .series import BiSeries, Poly, TruncSeries, binomial, expand_rational

__all__ = [
    "CoverRangeError",
    "Determinant",
    "SurfaceSpec",
    "anti_invariant_dim",
    "bg_fraction",
    "bg_series",
    "binomial_poly",
    "bu1_series",
    "jacobian_series",
    "sym_cover_poly",
    "sym_cover_series",
    "sym_generating",
    "sym_poly",
    "sym_series",
]

_BG_DEN_FIXED = Poly([1, 0, -1, 0, -1, 0, 1])  # (1-t^2)(1-t^4)
_BG_DEN_NONFIXED = Poly([1, 0, -2, 0, 0, 0, 2, 0, -1])  # (1-t^2)^2 (1-t^4)


class Determinant(Enum):
    """Whether the determinant line bundle of the rank-2 bundle is held fixed."""

    FIXED = "fixed"
    NONFIXED = "nonfixed"

    # members are singletons compared by identity, so the identity hash, in
    # C, agrees with equality; ``Enum.__hash__`` is a Python-level call on
    # every cache lookup keyed by a spec
    __hash__ = object.__hash__


class CoverRangeError(ValueError):
    """Covered symmetric products, and the correction terms T(n) built from
    S^n M, are only used for 0 <= n <= 2g-2."""


class _SurfaceFields(NamedTuple):
    genus: int


class SurfaceSpec(_SurfaceFields):
    """A compact Riemann surface of genus g >= 2.

    The lower bound keeps the correction sums over d = 1..g-1 nonempty.
    ``_replace`` and ``_make`` skip the check, so nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, genus: int) -> SurfaceSpec:
        if genus < 2:
            raise ValueError("genus must be at least 2")
        return tuple.__new__(cls, (genus,))  # the NamedTuple's own __new__ is a Python call


def binomial_poly(n: int, step: int) -> Poly:
    """(1 + t^step)^n by the binomial theorem: C(n, k) at t^{step k}, with
    no polynomial product."""
    if n < 0 or step < 1:
        raise ValueError("binomial_poly needs n >= 0 and step >= 1")
    out = [0] * (n * step + 1)
    c = 1
    for k in range(n + 1):
        out[k * step] = c
        c = c * (n - k) // (k + 1)
    return Poly(out)


def jacobian_series(surface: SurfaceSpec, order: int) -> TruncSeries:
    """P_t of the Jacobian torus: (1+t)^(2g), independent of the degree."""
    return (Poly([1, 1]) ** (2 * surface.genus)).as_series(order)


def bu1_series(order: int) -> TruncSeries:
    """P_t(BU(1)) = 1/(1-t^2): one generator in every even degree."""
    return expand_rational(Poly.one(), Poly([1, 0, -1]), order)


@lru_cache(maxsize=None)
def bg_fraction(surface: SurfaceSpec, determinant: Determinant) -> tuple[Poly, Poly]:
    """Atiyah-Bott series of the classifying space of the gauge group, as
    numerator and denominator.

    Fixed determinant (SU(2) gauge group):

        (1+t^3)^(2g) / ((1-t^2)(1-t^4))

    Non-fixed determinant (U(2) gauge group):

        (1+t)^(2g) (1+t^3)^(2g) / ((1-t^2)^2 (1-t^4))

    The binomial powers come from :func:`binomial_poly` and the
    denominators are constants, so the only polynomial product is the
    non-fixed numerator's.  Cached: the semistable series puts its whole
    Morse assembly over this denominator, and :func:`bg_series` expands it.
    """
    g2 = 2 * surface.genus
    num = binomial_poly(g2, 3)
    if determinant is Determinant.FIXED:
        return num, _BG_DEN_FIXED
    return num * binomial_poly(g2, 1), _BG_DEN_NONFIXED


@lru_cache(maxsize=None)
def bg_series(surface: SurfaceSpec, determinant: Determinant, order: int) -> TruncSeries:
    """:func:`bg_fraction` expanded to ``order``.

    The displayed series does not read it.  Cached: a degree-one ``verify``
    reads it twice, in the telescoping check and in the stratum-by-stratum
    route, and the ``strata`` dump shows it as its "bg" row.
    """
    return expand_rational(*bg_fraction(surface, determinant), order)


@lru_cache(maxsize=None)
def sym_poly(surface: SurfaceSpec, n: int) -> Poly:
    """P_t(S^n M) by Macdonald's enumeration of the cohomology generators.

    A palindromic polynomial of degree 2n (the symmetric product is smooth
    and compact).  Macdonald (1962): H^*(S^n M) has 2g generators in degree
    1 (each usable at most once) and one generator in degree 2, subject only
    to total weight <= n, so

        b_k = sum over a + 2j = k with a + j <= n of C(2g, a).
    """
    if n < 0:
        raise ValueError("symmetric-product size must be nonnegative")
    g2 = 2 * surface.genus
    out = [0] * (2 * n + 1)
    for a in range(min(g2, n) + 1):
        c = binomial(g2, a)
        for j in range(n - a + 1):
            out[a + 2 * j] += c
    return Poly(out)


def sym_series(surface: SurfaceSpec, n: int, order: int) -> TruncSeries:
    """:func:`sym_poly` truncated at ``order``."""
    return sym_poly(surface, n).as_series(order)


def sym_generating(surface: SurfaceSpec, n: int) -> TruncSeries:
    """P_t(S^n M) as the x^n coefficient of Macdonald's generating function

        (1+xt)^{2g} / ((1-x)(1-xt^2)),

    extracted by bivariate series arithmetic.  Shares no code with
    :func:`sym_series`, which it checks.  The answer is a polynomial of
    degree 2n, so t-order 2n is exact.
    """
    if n < 0:
        raise ValueError("symmetric-product size must be nonnegative")
    t_order = 2 * n
    g2 = 2 * surface.genus
    num = BiSeries.of_polys(
        [Poly.monomial(a, binomial(g2, a)) for a in range(min(g2, n) + 1)], n, t_order
    )
    # (1-x)(1-xt^2) = 1 - (1+t^2) x + t^2 x^2
    den = BiSeries.of_polys([Poly.one(), Poly([-1, 0, -1]), Poly([0, 0, 1])], n, t_order)
    return (num * den.inv()).x_coeff(n)


def anti_invariant_dim(surface: SurfaceSpec, n: int) -> int:
    """Dimension of the extra (anti-invariant) cohomology of the cover.

    The 2^{2g}-fold cover of S^n M adds (2^{2g}-1) * C(2g-2, n) to the Betti
    number in degree n and nothing elsewhere.
    """
    if not 0 <= n <= 2 * surface.genus - 2:
        raise CoverRangeError(
            f"cover formula needs 0 <= n <= 2g-2 = {2 * surface.genus - 2}, got n = {n}"
        )
    return (2 ** (2 * surface.genus) - 1) * binomial(2 * surface.genus - 2, n)


def sym_cover_poly(surface: SurfaceSpec, n: int) -> Poly:
    """P_t of the 2^{2g}-fold cover of S^n M.

    :func:`sym_poly` plus the anti-invariant part, concentrated in degree n.
    """
    extra = anti_invariant_dim(surface, n)
    coeffs = list(sym_poly(surface, n).coeffs)
    coeffs[n] += extra
    return Poly(coeffs)


def sym_cover_series(surface: SurfaceSpec, n: int, order: int) -> TruncSeries:
    """:func:`sym_cover_poly` truncated at ``order``."""
    return sym_cover_poly(surface, n).as_series(order)
