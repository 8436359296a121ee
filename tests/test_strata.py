"""Morse-stratification engine: stratum bookkeeping, the semistable series,
telescoping, and the Kirwan monotonicity shadows."""

import pytest

from higgsbetti import spaces, strata
from higgsbetti.series import TruncSeries, binomial
from higgsbetti.spaces import Determinant, bg_series
from higgsbetti.strata import (
    KirwanViolation,
    ModuliSpec,
    correction_sum,
    default_truncation,
    invariant_part_series,
    kirwan_monotonicity_check,
    max_stratum,
    moduli_series,
    mu_index,
    semistable_series,
    stratification_formula,
    stratum_difference,
    stratum_space_series,
    unstable_sum,
    unstable_sum_resummed,
)

FIXED = Determinant.FIXED
NONFIXED = Determinant.NONFIXED


def ints(series):
    return [int(c) for c in series.coeffs]


def spec_of(genus, degree, det, order=None):
    if order is None:
        return ModuliSpec.default(genus, degree, det)
    return ModuliSpec(genus, degree, det, order)


def all_specs(genus_range):
    for g in genus_range:
        for degree in (0, 1):
            for det in Determinant:
                yield ModuliSpec.default(g, degree, det)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModuliSpec(1, 0, FIXED, 10)
    with pytest.raises(ValueError):
        ModuliSpec(2, 2, FIXED, 10)
    with pytest.raises(ValueError):
        ModuliSpec(2, 0, FIXED, 0)


def test_default_truncation():
    assert default_truncation(2, 0) == 22
    assert default_truncation(2, 1) == 16
    assert default_truncation(5, 1) == 52


def test_mu_index():
    idx = mu_index(spec_of(2, 0, FIXED, 8), 1)
    assert (idx.mu, idx.n) == (3, 0)
    idx = mu_index(spec_of(2, 1, FIXED, 8), 1)
    assert (idx.mu, idx.n) == (2, 1)
    idx = mu_index(spec_of(3, 0, FIXED, 8), 2)
    assert (idx.mu, idx.n) == (6, 0)
    with pytest.raises(ValueError):
        mu_index(spec_of(2, 0, FIXED, 8), 0)


def test_unstable_sum_single_visible_stratum():
    series = unstable_sum(spec_of(2, 0, FIXED, 7))
    assert ints(series) == [0, 0, 0, 0, 0, 0, 1, 4]


def test_unstable_sum_leading_power():
    for spec in all_specs(range(2, 4)):
        series = unstable_sum(spec)
        first = 2 * mu_index(spec, 1).mu
        assert all(series.coeffs[k] == 0 for k in range(min(first, spec.truncation + 1)))


def test_unstable_sum_degree_one_anchor():
    assert unstable_sum(spec_of(2, 1, FIXED, 6))[5] == 4


def test_unstable_sum_is_equivariant_in_nonfixed_degree_one():
    # the sum carries both BU(1) factors, (1+t)^{4g}/(1-t^2)^2; the global
    # one is divided out only in the moduli series
    for g in (2, 3, 5):
        spec = spec_of(g, 1, NONFIXED)
        first = 2 * mu_index(spec, 1).mu
        assert unstable_sum(spec)[first + 2] == binomial(4 * g, 2) + 2


def test_unstable_sum_matches_geometric_resummation():
    for spec in all_specs(range(2, 5)):
        assert unstable_sum(spec) == unstable_sum_resummed(spec)


def test_correction_sum_genus_two():
    # only the d=1 stratum corrects at genus 2
    fixed0 = correction_sum(spec_of(2, 0, FIXED, 8))
    assert ints(fixed0) == [0, 0, 0, 0, 0, 0, 16, 0, 0]
    fixed1 = correction_sum(spec_of(2, 1, FIXED, 8))
    assert ints(fixed1) == [0, 0, 0, 0, 1, 34, 1, 0, 0]


def test_semistable_anchors():
    assert semistable_series(spec_of(2, 1, FIXED))[5] == 34
    assert semistable_series(spec_of(2, 0, FIXED))[6] == 23
    for spec in all_specs(range(2, 4)):
        assert semistable_series(spec)[0] == 1


def test_moduli_degree_zero_is_equivariant():
    for det in Determinant:
        spec = spec_of(3, 0, det)
        assert moduli_series(spec) == semistable_series(spec)


def test_moduli_fixed_degree_one_genus_two_polynomial():
    # hand value: classifying-space minus geometric tail plus the t^4-shifted
    # cover of the curve
    series = moduli_series(spec_of(2, 1, FIXED))
    expected = [1, 0, 1, 4, 2, 34, 2] + [0] * 10
    assert ints(series) == expected


def test_moduli_nonfixed_degree_one_finitely_supported():
    # nilpotent cone times the Jacobian: real dimension 8g-6
    for g in (2, 3):
        series = moduli_series(spec_of(g, 1, NONFIXED))
        top = 8 * g - 6
        assert series[top] != 0
        assert all(c == 0 for c in series.coeffs[top + 1 :])


@pytest.mark.parametrize("g", range(2, 9))
def test_moduli_degree_one_euler_characteristic(g):
    # chi(M) = P_{-1} is the sum over the C*-fixed loci (Hitchin 1987, sec. 7):
    # fixed determinant, N (chi = 0) and the 2^{2g}-fold covers of S^n M for
    # odd n <= 2g-3, with chi(S^n M) = (-1)^n C(2g-2, n); non-fixed, 0 from
    # the Jacobian factor
    for det, chi in ((FIXED, -(2 ** (4 * g - 3))), (NONFIXED, 0)):
        series = moduli_series(spec_of(g, 1, det))
        assert sum((-1) ** k * c for k, c in enumerate(series.coeffs)) == chi


def test_stratification_formula_agrees_with_equivariant_route():
    for spec in all_specs(range(2, 5)):
        if spec.degree == 1 and spec.determinant is NONFIXED:
            assert stratification_formula(spec) == moduli_series(spec)
        else:
            assert stratification_formula(spec) == semistable_series(spec)


def test_stratum_difference_genus_two():
    diff = stratum_difference(spec_of(2, 0, FIXED, 10), 1)
    # t^6 * ((1+t)^4/(1-t^2) - 16); inner coefficients 1,4,7,8,8,... minus 16
    inner = [sum(binomial(4, j) for j in range(k % 2, k + 1, 2)) for k in range(5)]
    assert ints(diff) == [0] * 6 + [inner[0] - 16] + inner[1:5]


def test_stratum_difference_without_correction_term():
    spec = spec_of(2, 0, FIXED, 21)
    assert mu_index(spec, 2).n < 0
    diff = stratum_difference(spec, 2)
    jac_bu1 = (TruncSeries([1, 1], 21) ** 4) * TruncSeries([1, 0, -1], 21).inv()
    assert diff == jac_bu1.shift(2 * mu_index(spec, 2).mu)


def test_telescoping_to_classifying_space():
    for spec in all_specs(range(2, 5)):
        total = semistable_series(spec)
        for d in range(1, max_stratum(spec) + 1):
            total = total + stratum_difference(spec, d)
        assert total == bg_series(spec.surface, spec.determinant, spec.truncation)


def test_stratum_space_convention_and_stabilization():
    for spec in all_specs(range(2, 4)):
        assert stratum_space_series(spec, 0) == semistable_series(spec)
        top = max_stratum(spec)
        assert stratum_space_series(spec, top) == bg_series(
            spec.surface, spec.determinant, spec.truncation
        )


def clear_caches():
    for module in (spaces, strata):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.mark.parametrize("det", [FIXED, NONFIXED])
def test_stratum_spaces_are_built_incrementally(det, monkeypatch):
    spec = spec_of(5, 1, det)
    top = max_stratum(spec)
    clear_caches()
    calls = []
    difference = strata.stratum_difference

    def counted(spec, d):
        calls.append(d)
        return difference(spec, d)

    monkeypatch.setattr(strata, "stratum_difference", counted)
    kirwan_monotonicity_check(spec)
    assert stratum_space_series.cache_info().misses == top + 1
    assert sorted(calls) == list(range(1, top + 1))  # one difference per stratum
    spaces_x = [stratum_space_series(spec, d) for d in range(top + 1)]
    monkeypatch.undo()

    clear_caches()
    expected = semistable_series(spec)
    for d in range(top + 1):
        if d:
            expected = expected + stratum_difference(spec, d)
        assert spaces_x[d] == expected


def test_stratum_space_coefficients_are_betti_numbers():
    spec = spec_of(2, 0, FIXED)
    for d in range(max_stratum(spec) + 1):
        for c in stratum_space_series(spec, d).coeffs:
            assert c.denominator == 1 and c >= 0


def test_kirwan_monotonicity_nonfixed():
    for g in (2, 3, 4):
        for degree in (0, 1):
            assert kirwan_monotonicity_check(spec_of(g, degree, NONFIXED)) == []


def test_kirwan_violation_fixed_genus_two_degree_one():
    violations = kirwan_monotonicity_check(spec_of(2, 1, FIXED))
    assert violations == [KirwanViolation(d=1, k=5, b_before=34, b_after=4)]


def test_kirwan_fixed_specs_always_witness():
    for g in (2, 3):
        for degree in (0, 1):
            assert kirwan_monotonicity_check(spec_of(g, degree, FIXED))


def test_invariant_part_anchors():
    assert invariant_part_series(spec_of(2, 1, FIXED))[5] == 4
    assert invariant_part_series(spec_of(2, 0, FIXED))[6] == 8


def test_invariant_part_bounded_by_classifying_space():
    for g in (2, 3, 4):
        for degree in (0, 1):
            spec = spec_of(g, degree, FIXED)
            invariant = invariant_part_series(spec)
            classifying = bg_series(spec.surface, FIXED, spec.truncation)
            for k in range(spec.truncation + 1):
                assert invariant[k] <= classifying[k]


def test_invariant_part_requires_fixed_determinant():
    with pytest.raises(ValueError):
        invariant_part_series(spec_of(2, 0, NONFIXED))
