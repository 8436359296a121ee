"""Cross-route verification battery.

Every identity the computation rests on, checked coefficientwise at the
verification order max(N, default order): the requested truncation N caps
what is displayed, never what is checked.  Failures report the first
mismatching coefficient; the fixed-determinant Kirwan check is expected to
produce violation witnesses and is flagged accordingly.
"""

from __future__ import annotations

from .closedforms import (
    binomial_extra,
    bivariate_route,
    corollary_closed_form,
    lemma_closed,
    lemma_direct,
    residue_combination,
)
from .report import CheckResult
from .series import TruncSeries, first_non_integer
from .spaces import Determinant, bg_series, sym_cover_series, sym_series
from .strata import (
    ModuliSpec,
    default_truncation,
    invariant_part_series,
    kirwan_monotonicity_check,
    max_stratum,
    moduli_series,
    semistable_series,
    stratification_formula,
    stratum_space_series,
    unstable_sum,
    unstable_sum_resummed,
)

__all__ = ["first_mismatch", "run_checks"]


def first_mismatch(a: TruncSeries, b: TruncSeries) -> int | None:
    """Smallest k with differing t^k coefficients, or None if the series
    agree up to the smaller order."""
    for k in range(min(a.order, b.order) + 1):
        if a.coeffs[k] != b.coeffs[k]:
            return k
    return None


def _euler_characteristic(series: TruncSeries) -> int:
    """The series at t = -1; exact for a polynomial series."""
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(series.coeffs))


def _equality_check(name: str, a: TruncSeries, b: TruncSeries, ok_detail: str) -> CheckResult:
    k = first_mismatch(a, b)
    if k is None:
        return CheckResult(name, True, ok_detail)
    return CheckResult(name, False, f"first mismatch at t^{k}: {a.coeffs[k]} != {b.coeffs[k]}")


def run_checks(spec: ModuliSpec) -> list[CheckResult]:
    """Run every applicable cross-check for one moduli problem, at the
    verification order (see :func:`default_truncation`)."""
    order = max(spec.truncation, default_truncation(spec.genus, spec.degree))
    spec = ModuliSpec(spec.genus, spec.degree, spec.determinant, order)
    surface = spec.surface
    checks: list[CheckResult] = []

    direct = lemma_direct(surface, order)
    for name, other in (
        ("kernel-direct-vs-closed", lemma_closed(surface, order)),
        ("kernel-direct-vs-residues", residue_combination(surface, order)),
        ("kernel-direct-vs-bivariate", bivariate_route(surface, order)),
    ):
        checks.append(
            _equality_check(name, direct, other, f"agree coefficientwise up to t^{order}")
        )

    checks.append(
        _equality_check(
            "binomial-identity",
            binomial_extra(surface, "direct", order),
            binomial_extra(surface, "closed", order),
            f"direct and closed routes agree up to t^{order}",
        )
    )

    semistable = semistable_series(spec)
    if spec.degree == 0:
        checks.append(
            _equality_check(
                "stratified-vs-closed-form",
                semistable,
                corollary_closed_form(surface, spec.determinant, order),
                f"stratified assembly equals the closed form up to t^{order}",
            )
        )

    classifying = bg_series(surface, spec.determinant, order)
    checks.append(
        _equality_check(
            "telescoping",
            stratum_space_series(spec, max_stratum(spec)),
            classifying,
            f"stratum differences rebuild the classifying-space series up to t^{order}",
        )
    )

    checks.append(
        _equality_check(
            "unstable-resummation",
            unstable_sum(spec),
            unstable_sum_resummed(spec),
            "term-by-term unstable sum matches its geometric resummation",
        )
    )

    moduli = moduli_series(spec)
    bad: list[str] = []
    for label, series in [
        ("semistable", semistable),
        ("moduli", moduli),
        *((f"X_{d}", stratum_space_series(spec, d)) for d in range(max_stratum(spec) + 1)),
        ("bg", classifying),
    ]:
        k = first_non_integer(series, nonnegative=True)
        if k is not None:
            bad.append(f"{label} at t^{k}")
    checks.append(
        CheckResult(
            "space-coefficients",
            not bad,
            "all space series have nonnegative integer coefficients"
            if not bad
            else "non-Betti coefficients: " + ", ".join(bad),
        )
    )

    if spec.degree == 1:
        # M retracts onto its nilpotent cone (Hitchin), a compact variety of
        # real dimension 6g-6, or 8g-6 with the Jacobian for non-fixed
        # determinant: the top Betti number sits exactly there
        top = 6 * spec.genus - 6 if spec.determinant is Determinant.FIXED else 8 * spec.genus - 6
        last = max(k for k, c in enumerate(moduli.coeffs) if c)
        checks.append(
            CheckResult(
                "finite-support",
                last == top,
                f"b_{top} != 0 and moduli coefficients vanish for {top} < k <= {order}"
                if last == top
                else f"top nonzero moduli coefficient is b_{last}, expected b_{top}",
            )
        )
        checks.append(
            _equality_check(
                "moduli-route-agreement",
                stratification_formula(spec),
                moduli,
                "three-term assembly agrees with the equivariant route",
            )
        )

    violations = kirwan_monotonicity_check(spec)
    if spec.determinant is Determinant.NONFIXED:
        checks.append(
            CheckResult(
                "kirwan-monotonicity",
                not violations,
                "Betti numbers nondecreasing down the stratification"
                if not violations
                else "monotonicity fails at "
                + ", ".join(f"(d={v.d}, k={v.k})" for v in violations[:6]),
            )
        )
    else:
        witnesses = ", ".join(
            f"(d={v.d}, k={v.k}): {v.b_before} > {v.b_after}" for v in violations[:6]
        )
        if len(violations) > 6:
            witnesses += f", ... ({len(violations)} total)"
        checks.append(
            CheckResult(
                "kirwan-violation-witness",
                bool(violations),
                f"EXPECTED: surjectivity fails for fixed determinant; witnesses: {witnesses}"
                if violations
                else "no violation found, but fixed determinant must produce one",
            )
        )

    if spec.determinant is Determinant.FIXED:
        # both series are integral: BG minus the invariant part goes negative where the bound fails
        offending = first_non_integer(classifying - invariant_part_series(spec), nonnegative=True)
        checks.append(
            CheckResult(
                "invariant-part-bound",
                offending is None,
                "invariant part bounded by the classifying-space series"
                if offending is None
                else f"bound fails at t^{offending}",
            )
        )
        # a 2^{2g}-sheeted unramified cover multiplies the Euler
        # characteristic; S^n M and its cover are polynomials of degree 2n
        failing = [
            n
            for n in range(2 * spec.genus - 1)
            if _euler_characteristic(sym_cover_series(surface, n, 2 * n))
            != 2 ** (2 * spec.genus) * _euler_characteristic(sym_series(surface, n, 2 * n))
        ]
        checks.append(
            CheckResult(
                "cover-correction-note",
                not failing,
                f"chi(cover of S^n M) = 2^(2g) chi(S^n M) for 0 <= n <= {2 * spec.genus - 2}"
                if not failing
                else f"chi(cover of S^{failing[0]} M) != 2^(2g) chi(S^{failing[0]} M)",
            )
        )

    return checks
