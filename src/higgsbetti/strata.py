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

The displayed series is one fraction over Z[t], the whole Morse assembly
over the classifying space's denominator, expanded once; the stratum table,
one row per stratum holding the term t^{2 mu_d} (eta_d - T(n_d)) it adds,
serves the stratum-by-stratum route, the stratum spaces and the checks.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from math import comb
from typing import NamedTuple

from . import spaces
from .series import Poly, TruncSeries, binomial, expand_rational, first_non_integer
from .spaces import (
    CoverRangeError,
    Determinant,
    SurfaceSpec,
    bg_fraction,
    bg_series,
    binomial_poly,
    sym_cover_poly,
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

_ONE = Poly.one()
_ONE_MINUS_T2 = Poly([1, 0, -1])
_ONE_MINUS_T4 = Poly([1, 0, 0, 0, -1])
# (1-t^2)(1-t^4) = 1 - t^2 - t^4 + t^6 as shifted adds
_TIMES_ONE_MINUS_T2_T4 = (
    (0, operator.add), (2, operator.sub), (4, operator.sub), (6, operator.add)
)


class NegativeBettiError(ArithmeticError):
    """A series that must consist of Betti numbers has a negative or
    non-integer coefficient.  This signals an implementation bug, never a
    property of the input."""


def default_truncation(genus: int, degree: int) -> int:
    """Default series order, and the floor of the order every check runs at
    (``run_checks`` lifts -N to it, so -N only caps the display).  It covers
    each check: the kernel K_g has degree 6g-6, the first fixed-determinant
    Kirwan witness sits at 4g-2-d_E, and degree-one support ends at 8g-6."""
    return 6 * genus + 10 if degree == 0 else 12 * genus - 8


class _ModuliFields(NamedTuple):
    genus: int
    degree: int
    determinant: Determinant
    truncation: int


class ModuliSpec(_ModuliFields):
    """Which moduli problem to compute.

    genus g >= 2, bundle degree d_E in {0, 1}, determinant variant, and the
    truncation order for all series.  ``_replace`` and ``_make`` skip the
    checks, so nothing calls them.
    """

    __slots__ = ()

    def __new__(
        cls, genus: int, degree: int, determinant: Determinant, truncation: int
    ) -> ModuliSpec:
        if genus < 2:
            raise ValueError("genus must be at least 2")
        if degree not in (0, 1):
            raise ValueError("degree must be 0 or 1")
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        # the NamedTuple's own __new__ is a Python call
        return tuple.__new__(cls, (genus, degree, determinant, truncation))

    @classmethod
    def default(cls, genus: int, degree: int, determinant: Determinant) -> ModuliSpec:
        return cls(genus, degree, determinant, default_truncation(genus, degree))

    @property
    def surface(self) -> SurfaceSpec:
        return SurfaceSpec(self.genus)


class StratumIndex(NamedTuple):
    """Index data of stratum d: its Morse index mu_d and the symmetric-product
    size n_d (negative once the correction range is left)."""

    mu: int
    n: int


def mu_index(spec: ModuliSpec, d: int) -> StratumIndex:
    """mu_d = g - 1 + 2d - d_E and n_d = 2g - 2 + d_E - 2d for stratum d >= 1."""
    if d < 1:
        raise ValueError("strata are indexed by d >= 1")
    return tuple.__new__(
        StratumIndex,
        (spec.genus - 1 + 2 * d - spec.degree, 2 * spec.genus - 2 + spec.degree - 2 * d),
    )


def max_stratum(spec: ModuliSpec) -> int:
    """Largest d whose stratum can contribute below the truncation order.

    A stratum's contribution starts at t^{2 mu_d}, so terms with
    2 mu_d > N vanish identically up to t^N and the infinite sums truncate
    exactly.  2 mu_d steps by 4 from 2 mu_1, so this is the count of
    2 mu_1, 2 mu_1 + 4, ... up to N.
    """
    return max(0, (spec.truncation - 2 * mu_index(spec, 1).mu) // 4 + 1)


@lru_cache(maxsize=None)
def _jacobian_bu1_factor(genus: int) -> tuple[Poly, Poly]:
    """One Jacobian and one BU(1) factor, (1+t)^{2g}/(1-t^2), as numerator
    and denominator, the numerator by :func:`binomial_poly`.  Cached: eta,
    the displayed series' summed non-fixed T(n) numerators and the
    recurrence of every non-fixed T(n) read it, and it depends on the genus
    alone."""
    return binomial_poly(2 * genus, 1), _ONE_MINUS_T2


@lru_cache(maxsize=None)
def _critical_factor(spec: ModuliSpec) -> tuple[Poly, Poly]:
    """eta_d, the equivariant series of the d-th critical set (the same for
    every d), as numerator and denominator.

    Fixed determinant: J_d x BU(1), i.e. (1+t)^{2g}/(1-t^2); non-fixed: two
    Jacobian factors and two BU(1) factors, (1+t)^{4g}/(1-t^2)^2.  Cached:
    the displayed series, the stratum table and the resummed tail each read
    it, and the non-fixed squares are products.
    """
    num, den = _jacobian_bu1_factor(spec.genus)
    if spec.determinant is Determinant.FIXED:
        return num, den
    return num * num, den * den


def _add_at(
    out: list[int], shift: int, coeffs: Sequence[int], op: Callable[[int, int], int] = operator.add
) -> None:
    """Add t^shift times ``coeffs`` into ``out`` in place (or, with
    ``operator.sub``, take it away), dropping what lies past the end of
    ``out``.  The prefix below the shift is neither copied nor
    re-normalised."""
    end = shift + len(coeffs)
    out[shift:end] = map(op, out[shift:end], coeffs)


@lru_cache(maxsize=None)
def _nonfixed_numerators(genus: int, parity: int) -> tuple[Poly, ...]:
    """The numerators P_t(S^n M) (1+t)^{2g} of the non-fixed T(n) for
    n = parity, parity + 2, ... up to 2g - 2, by Macdonald's recurrence.

    Clearing the denominators of Macdonald's generating function
    sum_n x^n P_t(S^n M) = (1+xt)^{2g} / ((1-x)(1-xt^2)) and multiplying by
    J = (1+t)^{2g}, read through :func:`_jacobian_bu1_factor`, gives

        T_n = (1+t^2) T_{n-1} - t^2 T_{n-2} + C(2g, n) t^n J,

    shifted sums and one scalar multiple of J per step, no polynomial
    product.  Every n is stepped through; only the parity asked for is kept
    (the n_d of one degree share the parity of d_E).
    """
    jacobian = _jacobian_bu1_factor(genus)[0].coeffs
    kept: list[Poly] = []
    before: list[int] = []
    current: list[int] = []
    for n in range(2 * genus - 1):
        out = [0] * (2 * n + len(jacobian))
        _add_at(out, 0, current)
        _add_at(out, 2, current)
        _add_at(out, 2, before, operator.sub)
        scale = binomial(2 * genus, n)
        _add_at(out, n, [scale * c for c in jacobian])
        before, current = current, out
        if n % 2 == parity:
            kept.append(Poly(out))
    return tuple(kept)


def _correction_factor(spec: ModuliSpec, n: int) -> tuple[Poly, Poly]:
    """T(n), the equivariant series of the subspace responsible for the
    index jump, for 0 <= n = n_d <= 2g - 2 (else :class:`CoverRangeError`),
    as numerator and denominator.

    Fixed determinant: the 2^{2g}-fold cover of S^n M, over 1; non-fixed:
    S^n M times a Jacobian and a BU(1) factor, P_t(S^n M) (1+t)^{2g} over
    1-t^2, the numerator looked up in :func:`_nonfixed_numerators`.  Either
    way the denominator is the same for every n.
    """
    if not 0 <= n <= 2 * spec.genus - 2:
        raise CoverRangeError(f"T(n) needs 0 <= n <= 2g-2 = {2 * spec.genus - 2}, got n = {n}")
    if spec.determinant is Determinant.FIXED:
        return sym_cover_poly(spec.surface, n), _ONE
    den = _jacobian_bu1_factor(spec.genus)[1]
    return _nonfixed_numerators(spec.genus, n % 2)[n // 2], den


@lru_cache(maxsize=None)
def _stratum_table(
    spec: ModuliSpec,
) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """eta_d to the truncation order, and one row per stratum
    d = 1..max_stratum: (2 mu_d, the coefficients of eta_d - T(n_d) from t^0
    up to t^{N - 2 mu_d}), the term t^{2 mu_d} (eta_d - T(n_d)) the stratum
    adds to the Morse recursion.

    The one place that builds T(n_d) (:func:`_correction_factor`), only up
    to N - 2 mu_d, the part the shift keeps.  eta_d, the same for every d,
    is expanded once and is the whole row of a stratum with n_d < 0 (the
    one tuple, longer than the shift keeps).  Readers place rows with
    :func:`_total` or :func:`_add_at`; the displayed series does not read
    the table.
    """
    eta = expand_rational(*_critical_factor(spec), spec.truncation).coeffs
    rows = []
    for d in range(1, max_stratum(spec) + 1):
        mu, n = mu_index(spec, d)
        row = eta
        if n >= 0:
            correction = expand_rational(*_correction_factor(spec, n), spec.truncation - 2 * mu)
            row = tuple(map(operator.sub, eta, correction.coeffs))
        rows.append((2 * mu, row))
    return eta, tuple(rows)


def _moduli_part(spec: ModuliSpec, series: TruncSeries) -> TruncSeries:
    """The moduli-space series of an equivariant one.

    Degree 0 keeps the equivariant series (the semistable locus is singular
    and that is the meaningful object).  In degree 1 the fixed-determinant
    gauge group acts with finite stabilizers, so the equivariant and
    ordinary series coincide; for non-fixed determinant the constant central
    U(1) contributes a global BU(1) factor 1/(1-t^2), divided out here, the
    one place, as (1-t^2) S = S - t^2 S, in one list.
    """
    if spec.determinant is Determinant.NONFIXED and spec.degree == 1:
        cs = series.coeffs
        return TruncSeries._of([*cs[:2], *map(operator.sub, cs[2:], cs)], series.order)
    return series


def _require_betti(series: TruncSeries, what: str) -> TruncSeries:
    k = first_non_integer(series, nonnegative=True)
    if k is not None:
        raise NegativeBettiError(f"{what}: coefficient of t^{k} is {series.coeffs[k]}")
    return series


def _total(spec: ModuliSpec, rows: Iterable[tuple[int, Sequence[int]]]) -> TruncSeries:
    """Sum of t^shift times each row's integral coefficients, to the
    truncation order, accumulated into one list."""
    out: list[int] = [0] * (spec.truncation + 1)
    for shift, coeffs in rows:
        _add_at(out, shift, coeffs)
    return TruncSeries._of(out, spec.truncation)


def unstable_sum(spec: ModuliSpec) -> TruncSeries:
    """Sum over all strata of t^{2 mu_d} times the critical factor eta_d:
    (1+t)^{2g}/(1-t^2) for fixed determinant, (1+t)^{4g}/(1-t^2)^2 for
    non-fixed (either degree), stratum by stratum from the table."""
    eta, rows = _stratum_table(spec)
    return _total(spec, ((shift, eta) for shift, _ in rows))


def unstable_sum_resummed(spec: ModuliSpec) -> TruncSeries:
    """The same sum via geometric resummation.

    Consecutive exponents 2 mu_d differ by 4, so the tail resums to
    eta * t^{2 mu_1} / (1 - t^4), one expansion.  Its one reader is the
    resummation check against :func:`unstable_sum`; the displayed series
    puts the same tail over the classifying space's denominator instead.
    """
    num, den = _critical_factor(spec)
    tail = expand_rational(num, den * _ONE_MINUS_T4, spec.truncation)
    return tail.shift(2 * mu_index(spec, 1).mu)


def _parity_correction_numerator(spec: ModuliSpec) -> Sequence[int]:
    """Sum of t^{2 mu_d} times the numerator of T(n_d) over the strata with
    n_d >= 0, in one pass, with no T(n) built.

    Macdonald's enumeration gives b_k(S^n M) = s_{min(k, 2n-k)}, where
    s_k = sum_{a <= k, a = k mod 2} C(2g, a) is a parity sum, so P_t(S^n M)
    is s_0 .. s_n .. s_0: two slice-adds at t^{2 mu_d} per stratum.  The
    fixed-determinant cover adds its anti-invariant classes at
    t^{2 mu_d + n_d}; the non-fixed T(n) share the factor J = (1+t)^{2g},
    so the sum is multiplied by it once.
    """
    g2 = 2 * spec.genus
    sums = [1, g2]  # s_0 .. s_{2g-2}
    for k in range(2, g2 - 1):
        sums.append(sums[k - 2] + comb(g2, k))
    mirror = sums[::-1]  # s_{n-1} .. s_0 is mirror[top - n:]
    top = len(sums)
    fixed = spec.determinant is Determinant.FIXED
    surface = spec.surface if fixed else None
    out: list[int] = []
    for d in range(1, max_stratum(spec) + 1):
        mu, n = mu_index(spec, d)
        if n < 0:
            break
        low, mid, end = 2 * mu, 2 * mu + n + 1, 2 * mu + 2 * n + 1
        if len(out) < end:
            out += [0] * (end - len(out))
        out[low:mid] = map(operator.add, out[low:mid], sums)
        out[mid:end] = map(operator.add, out[mid:end], mirror[top - n :])
        if fixed:
            out[mid - 1] += spaces.anti_invariant_dim(surface, n)
    if fixed:
        return out
    return (Poly(out) * _jacobian_bu1_factor(spec.genus)[0]).coeffs


def correction_sum(spec: ModuliSpec) -> TruncSeries:
    """Sum over the strata with n_d >= 0 (d = 1..g-1, where the Morse index
    jumps) of t^{2 mu_d} times the correction factor T(n_d).

    Row d of the stratum table is t^{2 mu_d} (eta_d - T(n_d)), so this is
    :func:`unstable_sum` minus the rows: the term-by-term reference for the
    parity-sum numerator of :func:`semistable_series`.
    """
    return unstable_sum(spec) - _total(spec, _stratum_table(spec)[1])


@lru_cache(maxsize=None)
def semistable_series(spec: ModuliSpec) -> TruncSeries:
    """Equivariant Poincare series of the semistable locus.

    Morse recursion: start from the classifying-space series A/D, remove
    every stratum's normal contribution t^{2 mu_d} * eta_d, and add back the
    correction t^{2 mu_d} * T(n_d) for the first g-1 strata, where the Morse
    index jumps.  The unstable tail resums to t^{2 mu_1} eta/(1-t^4), and in
    every variant D = den(eta) (1-t^4) = den(T) (1-t^2)(1-t^4), so the
    whole assembly is one fraction,

        [A - t^{2 mu_1} num(eta) + (1-t^2)(1-t^4) sum_d t^{2 mu_d} num(T(n_d))] / D,

    expanded once; no per-stratum series is built, and the sum of the
    num(T(n_d)) comes in one pass from Macdonald's parity sums
    (:func:`_parity_correction_numerator`), no T(n) built either.
    Coefficients must come out nonnegative integers.  Cached: the displayed
    series, the stratum spaces, the invariant part and the checks all start
    from it.
    """
    order = spec.truncation
    bg_num, den = bg_fraction(spec.surface, spec.determinant)
    num = list(bg_num.coeffs[: order + 1])
    num += [0] * (order + 1 - len(num))
    _add_at(num, 2 * mu_index(spec, 1).mu, _critical_factor(spec)[0].coeffs, operator.sub)
    corrections = _parity_correction_numerator(spec)
    for shift, op in _TIMES_ONE_MINUS_T2_T4:
        _add_at(num, shift, corrections, op)
    return _require_betti(expand_rational(Poly(num), den, order), "semistable series")


def invariant_part_series(spec: ModuliSpec) -> TruncSeries:
    """Semistable series restricted to the invariant part of the cohomology
    under the 2-torsion action (fixed determinant only).

    The semistable series minus the anti-invariant classes: for each stratum
    with n_d >= 0, the cover of S^{n_d} M (T(n_d) for fixed determinant)
    minus S^{n_d} M itself, which is :func:`spaces.anti_invariant_dim`
    classes in degree n_d, placed at t^{2 mu_d + n_d}.  Bounded above by the
    classifying-space series coefficientwise.
    """
    if spec.determinant is not Determinant.FIXED:
        raise ValueError("the invariant-part series is a fixed-determinant object")
    surface = spec.surface
    anti_invariant = []
    for d in range(1, max_stratum(spec) + 1):
        mu, n = mu_index(spec, d)
        if n >= 0:
            anti_invariant.append((2 * mu + n, (spaces.anti_invariant_dim(surface, n),)))
    return _require_betti(
        semistable_series(spec) - _total(spec, anti_invariant), "invariant-part series"
    )


def moduli_series(spec: ModuliSpec) -> TruncSeries:
    """Poincare series of the moduli space itself: the semistable series
    with the global BU(1) divided out where there is one
    (:func:`_moduli_part`)."""
    return _require_betti(_moduli_part(spec, semistable_series(spec)), "moduli series")


def stratification_formula(spec: ModuliSpec) -> TruncSeries:
    """The stratum-by-stratum assembly: ``P_t(BG)`` minus every stratum's
    t^{2 mu_d} (eta_d - T(n_d)), the stratum table's rows, taken to the
    moduli space as in :func:`moduli_series`.

    It reads only the stratum table, so it shares the factors with
    :func:`semistable_series` but not the resummed tail or the correction
    fraction; the verification suite checks that they agree.
    """
    bg = bg_series(spec.surface, spec.determinant, spec.truncation)
    return _moduli_part(spec, bg - _total(spec, _stratum_table(spec)[1]))


def stratum_difference(spec: ModuliSpec, d: int) -> TruncSeries:
    """Generating function of dim H^k(X_d) - dim H^k(X_{d-1}).

    Equals t^{2 mu_d} * (eta-term - T-term), the table's row d as a series;
    the T-term is empty once n_d < 0, and past the table (2 mu_d > N) the
    whole difference lies above t^N.  Coefficients may be negative exactly
    when Kirwan surjectivity fails (fixed determinant).  The stratum spaces
    and the Kirwan scan read the row itself, so this is their reference.
    """
    if d < 1:
        raise ValueError("strata are indexed by d >= 1")
    return _total(spec, _stratum_table(spec)[1][d - 1 : d])


@lru_cache(maxsize=None)
def _stratum_spaces(spec: ModuliSpec) -> tuple[TruncSeries, ...]:
    # X_0 .. X_{max_stratum}: X_d is X_{d-1} with row d of the stratum table
    # added in place on one running list
    xs = [semistable_series(spec)]
    running = list(xs[0].coeffs)
    for d, (shift, row) in enumerate(_stratum_table(spec)[1], 1):
        _add_at(running, shift, row)
        x = TruncSeries._of(running, spec.truncation)
        xs.append(_require_betti(x, f"stratum space X_{d}"))
    return tuple(xs)


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
    xs = _stratum_spaces(spec)
    return xs[min(d, len(xs) - 1)]


class KirwanViolation(NamedTuple):
    """A failure of Betti monotonicity b_k(X_{d-1}) <= b_k(X_d)."""

    d: int
    k: int
    b_before: int  # b_k(X_{d-1})
    b_after: int  # b_k(X_d)


def kirwan_monotonicity_check(spec: ModuliSpec) -> list[KirwanViolation]:
    """Check b_k(X_{d-1}) <= b_k(X_d) for every stratum attachment.

    b_k(X_d) - b_k(X_{d-1}) is the t^{k - 2 mu_d} coefficient of row d of
    the stratum table, so the scan reads the N + 1 - 2 mu_d entries of each
    row that the shift keeps.  A witness is a negative entry; only then is
    b_k(X_{d-1}) read from the stratum spaces.  Surjectivity of the Kirwan
    map forces monotonicity, so non-fixed determinant variants must return
    an empty list, building no stratum space; fixed-determinant variants
    are expected to produce witnesses (the anti-invariant classes of the
    covers do not extend).
    """
    violations = []
    for d, (shift, row) in enumerate(_stratum_table(spec)[1], 1):
        steps = row[: spec.truncation + 1 - shift]
        if min(steps) < 0:
            before = stratum_space_series(spec, d - 1).coeffs
            violations += (
                KirwanViolation(d, k, int(before[k]), int(before[k] + step))
                for k, step in enumerate(steps, shift)
                if step < 0
            )
    return violations
