"""Morse-stratification engine for spaces of rank-2 Higgs bundles.

The Yang-Mills-Higgs flow stratifies the space of Higgs pairs by the degree
d >= 1 of a destabilizing invariant line subbundle.  Stratum d enters at
Morse index mu_d = g - 1 + 2d - d_E, and the first g-1 strata additionally
carry correction terms built from symmetric products S^n M with
n = 2g - 2 + d_E - 2d (the range where the index jumps).  Removing each
stratum's contribution from the classifying-space series and adding the
corrections back yields the equivariant series of the semistable locus;
summing the per-stratum differences telescopes back to the classifying
space, which is the engine's main internal consistency check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .series import Poly, TruncSeries, expand_rational, first_non_integer
from .spaces import (
    Determinant,
    SurfaceSpec,
    bg_series,
    sym_cover_series,
    sym_series,
)

__all__ = [
    "KirwanViolation",
    "ModuliSpec",
    "NegativeBettiError",
    "StratumIndex",
    "correction_sum",
    "default_truncation",
    "invariant_part_series",
    "kirwan_monotonicity_check",
    "max_stratum",
    "moduli_series",
    "mu_index",
    "semistable_series",
    "stratification_formula",
    "stratum_difference",
    "stratum_space_series",
    "unstable_sum",
    "unstable_sum_resummed",
]

_ONE_PLUS_T = Poly([1, 1])
_ONE_MINUS_T2 = Poly([1, 0, -1])
_ONE_MINUS_T4 = Poly([1, 0, 0, 0, -1])


class NegativeBettiError(ArithmeticError):
    """A series that must consist of Betti numbers has a negative or
    non-integer coefficient.  This signals an implementation bug, never a
    property of the input."""


def default_truncation(genus: int, degree: int) -> int:
    """Default series order: covers every cross-check (in particular the
    degree-one finite-support window 12g-12) while keeping runs fast."""
    return 6 * genus + 10 if degree == 0 else 12 * genus - 8


@dataclass(frozen=True)
class ModuliSpec:
    """Which moduli problem to compute.

    genus g >= 2, bundle degree d_E in {0, 1}, determinant variant, and the
    truncation order for all series.
    """

    genus: int
    degree: int
    determinant: Determinant
    truncation: int

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        if self.degree not in (0, 1):
            raise ValueError("degree must be 0 or 1")
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")

    @classmethod
    def default(cls, genus: int, degree: int, determinant: Determinant) -> ModuliSpec:
        return cls(genus, degree, determinant, default_truncation(genus, degree))

    @property
    def surface(self) -> SurfaceSpec:
        return SurfaceSpec(self.genus)


@dataclass(frozen=True)
class StratumIndex:
    """Index data of one stratum: d, its Morse index mu_d, and the
    symmetric-product size n_d (negative once the correction range is left)."""

    d: int
    mu: int
    n: int


def mu_index(spec: ModuliSpec, d: int) -> StratumIndex:
    """mu_d = g - 1 + 2d - d_E and n_d = 2g - 2 + d_E - 2d for stratum d >= 1."""
    if d < 1:
        raise ValueError("strata are indexed by d >= 1")
    return StratumIndex(
        d,
        spec.genus - 1 + 2 * d - spec.degree,
        2 * spec.genus - 2 + spec.degree - 2 * d,
    )


def max_stratum(spec: ModuliSpec) -> int:
    """Largest d whose stratum can contribute below the truncation order.

    A stratum's contribution starts at t^{2 mu_d}, so terms with
    2 mu_d > N vanish identically up to t^N and the infinite sums truncate
    exactly.
    """
    d = 0
    while 2 * mu_index(spec, d + 1).mu <= spec.truncation:
        d += 1
    return d


def _jacobian_bu1_factor(spec: ModuliSpec) -> tuple[Poly, Poly]:
    """One Jacobian and one BU(1) factor, (1+t)^{2g}/(1-t^2), as numerator
    and denominator."""
    return _ONE_PLUS_T ** (2 * spec.genus), _ONE_MINUS_T2


def _critical_factor(spec: ModuliSpec) -> tuple[Poly, Poly]:
    """eta_d, the equivariant series of the d-th critical set (the same for
    every d), as numerator and denominator.

    Fixed determinant: J_d x BU(1), i.e. (1+t)^{2g}/(1-t^2); non-fixed: two
    Jacobian factors and two BU(1) factors, (1+t)^{4g}/(1-t^2)^2.
    """
    num, den = _jacobian_bu1_factor(spec)
    if spec.determinant is Determinant.FIXED:
        return num, den
    return num * num, den * den


@lru_cache(maxsize=None)
def _factor_series(
    factor: Callable[[ModuliSpec], tuple[Poly, Poly]], spec: ModuliSpec
) -> TruncSeries:
    # one expansion of each factor per spec, shared by every stratum
    return expand_rational(*factor(spec), spec.truncation)


def _correction_factor(spec: ModuliSpec, n: int, cover: bool = True) -> TruncSeries:
    """T(n), the equivariant series of the subspace responsible for the
    index jump, for n = n_d >= 0.

    Fixed determinant: the 2^{2g}-fold cover of S^n M, or S^n M itself
    without ``cover`` (the invariant part); non-fixed: S^n M times a
    Jacobian and a BU(1) factor.
    """
    if spec.determinant is Determinant.FIXED:
        sym = sym_cover_series if cover else sym_series
        return sym(spec.surface, n, spec.truncation)
    jacobian_bu1 = _factor_series(_jacobian_bu1_factor, spec)
    return sym_series(spec.surface, n, spec.truncation) * jacobian_bu1


def _shifted_sum(
    spec: ModuliSpec, last: int, term: Callable[[int], TruncSeries]
) -> TruncSeries:
    """Sum over d = 1..last of t^{2 mu_d} * term(n_d): the one stratum loop."""
    total = TruncSeries.zero(spec.truncation)
    for d in range(1, last + 1):
        idx = mu_index(spec, d)
        total = total + term(idx.n).shift(2 * idx.mu)
    return total


def _morse_recursion(spec: ModuliSpec, cover: bool) -> TruncSeries:
    # P_t(BG) - sum_d t^{2 mu_d} eta + sum_{d<g} t^{2 mu_d} T(n_d)
    bg = bg_series(spec.surface, spec.determinant, spec.truncation)
    return bg - unstable_sum(spec) + correction_sum(spec, cover)


def _moduli_part(spec: ModuliSpec, series: TruncSeries) -> TruncSeries:
    """The moduli-space series of an equivariant one.

    Degree 0 keeps the equivariant series (the semistable locus is singular
    and that is the meaningful object).  In degree 1 the fixed-determinant
    gauge group acts with finite stabilizers, so the equivariant and
    ordinary series coincide; for non-fixed determinant the constant central
    U(1) contributes a global BU(1) factor 1/(1-t^2), divided out here, the
    one place, by multiplying with (1-t^2).
    """
    if spec.determinant is Determinant.NONFIXED and spec.degree == 1:
        return _ONE_MINUS_T2.as_series(spec.truncation) * series
    return series


def _require_betti(series: TruncSeries, what: str) -> TruncSeries:
    k = first_non_integer(series, nonnegative=True)
    if k is not None:
        raise NegativeBettiError(f"{what}: coefficient of t^{k} is {series.coeffs[k]}")
    return series


def unstable_sum(spec: ModuliSpec) -> TruncSeries:
    """Sum over all strata of t^{2 mu_d} times the critical factor eta_d:
    (1+t)^{2g}/(1-t^2) for fixed determinant, (1+t)^{4g}/(1-t^2)^2 for
    non-fixed (either degree)."""
    eta = _factor_series(_critical_factor, spec)
    return _shifted_sum(spec, max_stratum(spec), lambda n: eta)


def unstable_sum_resummed(spec: ModuliSpec) -> TruncSeries:
    """The same sum via geometric resummation.

    Consecutive exponents 2 mu_d differ by 4, so the tail resums to
    eta * t^{2 mu_1} / (1 - t^4).  Cross-check against :func:`unstable_sum`.
    """
    num, den = _critical_factor(spec)
    tail = expand_rational(num, den * _ONE_MINUS_T4, spec.truncation)
    return tail.shift(2 * mu_index(spec, 1).mu)


def correction_sum(spec: ModuliSpec, cover: bool = True) -> TruncSeries:
    """Sum over d = 1..g-1 of t^{2 mu_d} times the correction factor T(n_d).

    n_d >= 0 exactly for these strata, where the Morse index jumps.  Fixed
    determinant: the covered symmetric product (S^n M itself without
    ``cover``); non-fixed: S^n M times (1+t)^{2g}/(1-t^2).
    """
    return _shifted_sum(
        spec, spec.genus - 1, lambda n: _correction_factor(spec, n, cover)
    )


@lru_cache(maxsize=None)
def semistable_series(spec: ModuliSpec) -> TruncSeries:
    """Equivariant Poincare series of the semistable locus.

    Morse recursion: start from the classifying-space series, remove every
    stratum's normal contribution t^{2 mu_d} * eta_d, and add back the
    correction t^{2 mu_d} * T_d for the first g-1 strata, where the Morse
    index jumps.  Coefficients must come out nonnegative integers.
    """
    return _require_betti(_morse_recursion(spec, cover=True), "semistable series")


def invariant_part_series(spec: ModuliSpec) -> TruncSeries:
    """Semistable series restricted to the invariant part of the cohomology
    under the 2-torsion action (fixed determinant only).

    Same recursion as :func:`semistable_series` with each covered symmetric
    product replaced by the plain one, dropping the anti-invariant classes.
    Bounded above by the classifying-space series coefficientwise.
    """
    if spec.determinant is not Determinant.FIXED:
        raise ValueError("the invariant-part series is a fixed-determinant object")
    return _require_betti(_morse_recursion(spec, cover=False), "invariant-part series")


def moduli_series(spec: ModuliSpec) -> TruncSeries:
    """Poincare series of the moduli space itself: the semistable series
    with the global BU(1) divided out where there is one
    (:func:`_moduli_part`)."""
    return _require_betti(_moduli_part(spec, semistable_series(spec)), "moduli series")


def stratification_formula(spec: ModuliSpec) -> TruncSeries:
    """The three-term assembly ``P_t(BG) - unstable tail + correction_sum``,
    taken to the moduli space as in :func:`moduli_series`.

    The unstable tail is the geometric resummation
    :func:`unstable_sum_resummed`, so this route and the stratum-by-stratum
    recursion share the factors but not the infinite sum; the verification
    suite checks that they agree.
    """
    bg = bg_series(spec.surface, spec.determinant, spec.truncation)
    return _moduli_part(spec, bg - unstable_sum_resummed(spec) + correction_sum(spec))


def stratum_difference(spec: ModuliSpec, d: int) -> TruncSeries:
    """Generating function of dim H^k(X_d) - dim H^k(X_{d-1}).

    Equals t^{2 mu_d} * (eta-term - T-term); the T-term is empty once
    n_d < 0.  Coefficients may be negative exactly when Kirwan surjectivity
    fails (fixed determinant).
    """
    idx = mu_index(spec, d)
    term = _factor_series(_critical_factor, spec)
    if idx.n >= 0:
        term = term - _correction_factor(spec, idx.n)
    return term.shift(2 * idx.mu)


@lru_cache(maxsize=None)
def _stratum_spaces(spec: ModuliSpec) -> tuple[TruncSeries, ...]:
    # X_0 .. X_{max_stratum}, each X_d = X_{d-1} + stratum difference d:
    # one difference per stratum, in a loop so a large order cannot hit the
    # recursion limit.
    spaces = [semistable_series(spec)]
    for d in range(1, max_stratum(spec) + 1):
        spaces.append(
            _require_betti(spaces[-1] + stratum_difference(spec, d), f"stratum space X_{d}")
        )
    return tuple(spaces)


@lru_cache(maxsize=None)
def stratum_space_series(spec: ModuliSpec, d: int) -> TruncSeries:
    """Equivariant series of X_d, the union of the semistable locus with the
    strata of index at most d.

    X_0 is the semistable locus; once 2 mu_{d+1} > N the series equals the
    classifying-space series up to t^N (every later stratum difference
    vanishes there).
    """
    if d < 0:
        raise ValueError("stratum spaces are indexed by d >= 0")
    if d == 0:
        return semistable_series(spec)  # needs no stratum
    spaces = _stratum_spaces(spec)
    return spaces[min(d, len(spaces) - 1)]


@dataclass(frozen=True)
class KirwanViolation:
    """A failure of Betti monotonicity b_k(X_{d-1}) <= b_k(X_d)."""

    d: int
    k: int
    b_before: int  # b_k(X_{d-1})
    b_after: int  # b_k(X_d)


def kirwan_monotonicity_check(spec: ModuliSpec) -> list[KirwanViolation]:
    """Check b_k(X_{d-1}) <= b_k(X_d) for every stratum attachment.

    Surjectivity of the Kirwan map forces monotonicity, so non-fixed
    determinant variants must return an empty list; fixed-determinant
    variants are expected to produce witnesses (the anti-invariant classes
    of the covers do not extend).
    """
    violations = []
    previous = stratum_space_series(spec, 0)
    for d in range(1, max_stratum(spec) + 1):
        current = stratum_space_series(spec, d)
        for k in range(spec.truncation + 1):
            if previous[k] > current[k]:
                violations.append(
                    KirwanViolation(d, k, int(previous[k]), int(current[k]))
                )
        previous = current
    return violations
