"""Acceptance battery.

Every guaranteed identity, run at its pinned range and tolerance (all exact:
tolerance zero).  One PASS/FAIL line per criterion; run with ``pytest -s``
to see them as they complete.
"""

import time

from higgsbetti.closedforms import (
    binomial_extra,
    bivariate_route,
    corollary_closed_form,
    lemma_closed,
    lemma_direct,
    residue_combination,
)
from higgsbetti.cli import main
from higgsbetti.series import TruncSeries
from higgsbetti.spaces import (
    Determinant,
    SurfaceSpec,
    bg_series,
    sym_generating,
    sym_series,
)
from higgsbetti.strata import (
    KirwanViolation,
    ModuliSpec,
    invariant_part_series,
    kirwan_monotonicity_check,
    max_stratum,
    moduli_series,
    semistable_series,
    stratum_difference,
    stratum_space_series,
)

FIXED = Determinant.FIXED
NONFIXED = Determinant.NONFIXED


def verdict(criterion, ok):
    print(("PASS" if ok else "FAIL") + f"  {criterion}")
    assert ok, criterion


def is_betti(series):
    return all(c.denominator == 1 and c >= 0 for c in series.coeffs)


def test_criterion_01_genus_two_degree_one_anchor(capsys):
    start = time.perf_counter()
    code = main(["betti", "-g", "2", "--degree", "1", "--determinant", "fixed",
                 "--format", "csv"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        verdict(
            "criterion 1: b_5 = 34 for genus 2, degree 1, fixed determinant (< 1 s)",
            code == 0 and "5,34" in out.splitlines() and elapsed < 1.0,
        )


def test_criterion_02_classifying_space_anchor(capsys):
    ok = bg_series(SurfaceSpec(2), FIXED, 5)[5] == 4
    with capsys.disabled():
        verdict("criterion 2: classifying-space coefficient b_5 = 4 at genus 2", ok)


def test_criterion_03_stratified_equals_closed_form(capsys):
    start = time.perf_counter()
    ok = True
    for genus in range(2, 7):
        order = 6 * genus + 10
        for det in Determinant:
            stratified = semistable_series(ModuliSpec(genus, 0, det, order))
            closed = corollary_closed_form(SurfaceSpec(genus), det, order)
            ok = ok and stratified == closed
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        verdict(
            "criterion 3: stratified assembly equals closed form, g=2..6, both "
            f"variants, N=6g+10 (< 30 s, took {elapsed:.2f} s)",
            ok and elapsed < 30.0,
        )


def test_criterion_04_kernel_four_way_agreement(capsys):
    ok = True
    for genus in range(2, 9):
        order = 4 * genus + 12
        surface = SurfaceSpec(genus)
        direct = lemma_direct(surface, order)
        ok = ok and direct == lemma_closed(surface, order)
        ok = ok and direct == residue_combination(surface, order)
        ok = ok and direct == bivariate_route(surface, order)
        if genus == 2:
            monomial = TruncSeries([0] * 6 + [1], order)
            ok = ok and direct == monomial
    with capsys.disabled():
        verdict("criterion 4: kernel four-way agreement, g=2..8, N=4g+12", ok)


def test_criterion_05_binomial_identity(capsys):
    ok = all(
        binomial_extra(SurfaceSpec(g), "direct", 6 * g)
        == binomial_extra(SurfaceSpec(g), "closed", 6 * g)
        for g in range(2, 11)
    )
    with capsys.disabled():
        verdict("criterion 5: binomial identity direct = closed, g=2..10", ok)


def test_criterion_06_macdonald_oracle(capsys):
    ok = True
    for genus in (2, 3, 4):
        surface = SurfaceSpec(genus)
        for n in range(13):
            series = sym_series(surface, n, 2 * n)
            ok = ok and series == sym_generating(surface, n)
            if n <= 2 * genus - 2:
                cs = series.coeffs
                ok = ok and all(cs[k] == cs[2 * n - k] for k in range(2 * n + 1))
    with capsys.disabled():
        verdict("criterion 6: MacDonald extraction matches enumeration, g<=4, n<=12", ok)


def test_criterion_07_space_coefficients(capsys):
    ok = True
    for genus in range(2, 6):
        for degree in (0, 1):
            for det in Determinant:
                spec = ModuliSpec.default(genus, degree, det)
                ok = ok and is_betti(semistable_series(spec))
                ok = ok and is_betti(moduli_series(spec))
                for d in range(max_stratum(spec) + 1):
                    ok = ok and is_betti(stratum_space_series(spec, d))
    with capsys.disabled():
        verdict("criterion 7: space series have nonnegative integer coefficients, g=2..5", ok)


def test_criterion_08_telescoping(capsys):
    ok = True
    for genus in range(2, 6):
        for degree in (0, 1):
            for det in Determinant:
                spec = ModuliSpec.default(genus, degree, det)
                total = semistable_series(spec)
                for d in range(1, max_stratum(spec) + 1):
                    total = total + stratum_difference(spec, d)
                ok = ok and total == bg_series(spec.surface, det, spec.truncation)
    with capsys.disabled():
        verdict("criterion 8: telescoping to the classifying-space series, g=2..5", ok)


def test_criterion_09_finite_support_degree_one(capsys):
    # M retracts onto the nilpotent cone (Hitchin): top degree 6g-6 for fixed
    # determinant, 8g-6 with the Jacobian for non-fixed
    ok = True
    for genus in (2, 3, 4):
        order = 12 * genus - 8
        for det, top in ((FIXED, 6 * genus - 6), (NONFIXED, 8 * genus - 6)):
            series = moduli_series(ModuliSpec(genus, 1, det, order))
            ok = ok and series[top] != 0
            ok = ok and all(c == 0 for c in series.coeffs[top + 1 :])
    g2 = moduli_series(ModuliSpec(2, 1, FIXED, 16))
    top = max(k for k, c in enumerate(g2.coeffs) if c)
    ok = ok and top == 6
    with capsys.disabled():
        verdict(
            "criterion 9: degree-one moduli series supported in k <= 6g-6 (fixed) "
            "or 8g-6 (non-fixed), with b_top != 0",
            ok,
        )


def test_criterion_10_kirwan_monotonicity(capsys):
    ok = True
    for genus in range(2, 6):
        for degree in (0, 1):
            ok = ok and not kirwan_monotonicity_check(
                ModuliSpec.default(genus, degree, NONFIXED)
            )
    witness = kirwan_monotonicity_check(ModuliSpec.default(2, 1, FIXED))
    ok = ok and witness == [KirwanViolation(d=1, k=5, b_before=34, b_after=4)]
    with capsys.disabled():
        verdict(
            "criterion 10: non-fixed monotonicity holds, g=2..5; fixed (2,1) "
            "reports exactly the (k=5: 34 > 4) violation",
            ok,
        )


def test_criterion_11_invariant_part_bound(capsys):
    ok = True
    for genus in range(2, 6):
        for degree in (0, 1):
            spec = ModuliSpec.default(genus, degree, FIXED)
            invariant = invariant_part_series(spec)
            classifying = bg_series(spec.surface, FIXED, spec.truncation)
            ok = ok and all(
                invariant[k] <= classifying[k] for k in range(spec.truncation + 1)
            )
    with capsys.disabled():
        verdict("criterion 11: invariant part bounded by the classifying space, g=2..5", ok)
