"""Morse-stratification engine: stratum bookkeeping, the semistable series,
telescoping, and the Kirwan monotonicity shadows."""

import pytest

from higgsbetti import spaces, strata, verify
from higgsbetti.series import Poly, TruncSeries, binomial, expand_rational
from higgsbetti.spaces import Determinant, bg_series, sym_poly
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
from higgsbetti.verify import run_checks

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


def clear_caches():
    for module in (spaces, strata):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_spec_validation():
    with pytest.raises(ValueError, match="^genus must be at least 2$"):
        ModuliSpec(1, 0, FIXED, 10)
    with pytest.raises(ValueError, match="^degree must be 0 or 1$"):
        ModuliSpec(2, 2, FIXED, 10)
    with pytest.raises(ValueError, match="^truncation must be at least 1$"):
        ModuliSpec(2, 0, FIXED, 0)
    with pytest.raises(ValueError, match="^genus must be at least 2$"):
        ModuliSpec(genus=0, degree=1, determinant=NONFIXED, truncation=5)


def test_spec_is_frozen():
    spec = spec_of(2, 0, FIXED)
    for field in ("genus", "degree", "determinant", "truncation"):
        with pytest.raises(AttributeError):
            setattr(spec, field, 3)
    with pytest.raises(AttributeError):
        spec.extra = 1  # no instance dict either
    assert spec == spec_of(2, 0, FIXED, 22)


def test_equal_specs_share_one_cache_entry():
    clear_caches()
    first = semistable_series(ModuliSpec(3, 1, NONFIXED, 20))
    again = ModuliSpec(3, 1, NONFIXED, 20)
    assert hash(again) == hash(ModuliSpec(3, 1, NONFIXED, 20))
    assert semistable_series(again) is first
    info = semistable_series.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    clear_caches()


def test_run_checks_lifts_a_short_spec_to_the_default_order(monkeypatch):
    seen = []
    real = strata.semistable_series

    def recorded(spec):
        seen.append(spec)
        return real(spec)

    monkeypatch.setattr(verify, "semistable_series", recorded)
    for degree in (0, 1):
        for det in Determinant:
            seen.clear()
            checks = run_checks(ModuliSpec(2, degree, det, 3))
            default = ModuliSpec.default(2, degree, det)
            assert seen == [default] and type(seen[0]) is ModuliSpec
            assert all(c.passed for c in checks), checks
            assert f"t^{default.truncation}" in checks[0].detail


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
    # max_stratum is the largest d with 2 mu_d <= N, and 0 below 2 mu_1:
    # on both sides of each of the first thresholds 2 mu_d
    for g in (2, 3, 16, 64):
        for degree in (0, 1):
            for d in (1, 2, 3):
                edge = 2 * mu_index(spec_of(g, degree, FIXED, 8), d).mu
                for order, largest in ((edge - 1, d - 1), (edge, d), (edge + 3, d)):
                    assert max_stratum(spec_of(g, degree, FIXED, order)) == largest


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
    # the stratum-by-stratum table route against the displayed fractions,
    # exactly, from orders below the first stratum up to the CLI cap
    for g in (2, 3, 4, 5, 16, 32):
        for order in (1, 3, None, 1024):
            for degree in (0, 1):
                for det in Determinant:
                    spec = spec_of(g, degree, det, order)
                    clear_caches()
                    assert stratification_formula(spec) == moduli_series(spec), spec
                    if (degree, det) != (1, NONFIXED):
                        assert moduli_series(spec) == semistable_series(spec)
    clear_caches()


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


@pytest.mark.parametrize("det", [FIXED, NONFIXED])
def test_stratum_spaces_are_built_incrementally(det, monkeypatch):
    # the spaces add the table's rows in place, not stratum_difference's
    # series; the Kirwan scan reads the rows and, only at a witness, the
    # space before it
    spec = spec_of(5, 1, det)
    top = max_stratum(spec)
    clear_caches()

    def unused(spec, d):
        raise AssertionError("stratum_difference is a reference, not a step")

    monkeypatch.setattr(strata, "stratum_difference", unused)
    violations = kirwan_monotonicity_check(spec)
    if det is NONFIXED:
        assert violations == []
        assert stratum_space_series.cache_info().misses == 0
        assert strata._stratum_spaces.cache_info().misses == 0
    else:
        witnessed = {v.d for v in violations}
        assert witnessed  # one space lookup per stratum with a witness
        assert stratum_space_series.cache_info().misses == len(witnessed)
    spaces_x = [stratum_space_series(spec, d) for d in range(top + 1)]
    assert strata._stratum_table.cache_info().misses == 1
    monkeypatch.undo()

    clear_caches()
    expected = semistable_series(spec)
    for d in range(top + 1):
        if d:
            expected = expected + stratum_difference(spec, d)
        assert spaces_x[d] == expected


def _pairwise_violations(spec):
    # the oracle: every coefficient of X_{d-1} against X_d
    out = []
    for d in range(1, max_stratum(spec) + 1):
        before, after = stratum_space_series(spec, d - 1), stratum_space_series(spec, d)
        out += [
            KirwanViolation(d, k, int(b), int(a))
            for k, (b, a) in enumerate(zip(before.coeffs, after.coeffs))
            if b > a
        ]
    return out


@pytest.mark.parametrize("genus", range(2, 9))
def test_kirwan_row_scan_is_the_pairwise_comparison(genus):
    for degree in (0, 1):
        for det in Determinant:
            default = default_truncation(genus, degree)
            for order in (3, default, 2 * default):
                spec = spec_of(genus, degree, det, order)
                assert kirwan_monotonicity_check(spec) == _pairwise_violations(spec), spec


@pytest.mark.parametrize("det", [FIXED, NONFIXED])
def test_run_checks_builds_each_correction_factor_once(det, monkeypatch):
    # the stratum table is the only caller: one T(n_d) per stratum with
    # n_d >= 0, which correction_sum and the stratum spaces read from the table
    spec = spec_of(5, 1, det)
    clear_caches()
    calls = []
    factor = strata._correction_factor

    def counted(spec, n):
        calls.append(n)
        return factor(spec, n)

    monkeypatch.setattr(strata, "_correction_factor", counted)
    run_checks(spec)
    monkeypatch.undo()
    clear_caches()
    strata_n = [mu_index(spec, d).n for d in range(1, max_stratum(spec) + 1)]
    assert sorted(calls) == sorted(n for n in strata_n if n >= 0) == [1, 3, 5, 7]


def test_run_checks_builds_the_jacobian_factor_once(monkeypatch):
    # (1+t)^{2g} depends on g alone; eta and every non-fixed T(n) share it
    builds = []
    real = strata.binomial_poly

    def counted(n, step):
        builds.append((n, step))
        return real(n, step)

    clear_caches()
    monkeypatch.setattr(strata, "binomial_poly", counted)
    run_checks(spec_of(5, 1, NONFIXED))
    monkeypatch.undo()
    clear_caches()
    assert builds == [(10, 1)]


@pytest.mark.parametrize("genus, order", [(3, 200), (16, 1024)])
def test_moduli_series_expands_one_fraction_and_builds_no_stratum_table(
    genus, order, monkeypatch
):
    # the displayed series is one fraction over P_t(BG)'s denominator: one
    # expansion whatever the order, P_t(BG) itself not expanded, and no
    # per-stratum series
    calls = []
    for module in (strata, spaces):
        expand = module.expand_rational

        def counted(num, den, order, expand=expand):
            calls.append(order)
            return expand(num, den, order)

        monkeypatch.setattr(module, "expand_rational", counted)
    for degree in (0, 1):
        for det in Determinant:
            clear_caches()
            calls.clear()
            moduli_series(spec_of(genus, degree, det, order))
            assert strata._stratum_table.cache_info().misses == 0
            assert calls == [order], (degree, det)
    clear_caches()


def test_moduli_series_makes_a_fixed_number_of_polynomial_products(monkeypatch):
    # the T(n) numerators summed from parity sums, binomial powers in closed
    # form, the tail over P_t(BG)'s denominator: the products left are the
    # non-fixed A*J, eta's J*J and (1-t^2)^2, and J times the summed
    # numerators, whatever the genus
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    counts = {}
    for genus in (3, 64):
        for degree in (0, 1):
            for det in Determinant:
                clear_caches()
                calls.clear()
                moduli_series(spec_of(genus, degree, det))
                counts[genus, degree, det] = len(calls)
    monkeypatch.undo()
    clear_caches()
    for (genus, degree, det), count in counts.items():
        assert count == (0 if det is FIXED else 4), (genus, degree, det)


@pytest.mark.parametrize("genus", [2, 3, 5, 16, 32])
def test_semistable_series_is_the_three_term_assembly(genus):
    # the one fraction against P_t(BG) - resummed tail + correction fraction,
    # three expansions, exactly, at every order
    for degree in (0, 1):
        for det in Determinant:
            default = default_truncation(genus, degree)
            for order in (1, 3, default, 1024):
                clear_caches()
                spec = spec_of(genus, degree, det, order)
                bg = bg_series(spec.surface, det, order)
                assembled = bg - unstable_sum_resummed(spec) + correction_sum(spec)
                assert semistable_series(spec) == assembled, spec
    clear_caches()


@pytest.mark.parametrize("genus", [2, 3, 8])
def test_every_factor_shares_the_classifying_space_denominator(genus):
    # D_BG = den(eta) (1-t^4) = den(T) (1-t^2)(1-t^4), so the Morse assembly
    # is one fraction over D_BG
    one_minus_t4 = Poly([1, 0, 0, 0, -1])
    one_minus_t2 = Poly([1, 0, -1])
    for degree in (0, 1):
        for det in Determinant:
            spec = spec_of(genus, degree, det)
            den = spaces.bg_fraction(spec.surface, det)[1]
            assert den == strata._critical_factor(spec)[1] * one_minus_t4
            for n in range(2 * genus - 1):
                t_den = strata._correction_factor(spec, n)[1]
                assert den == t_den * one_minus_t2 * one_minus_t4, (spec, n)


@pytest.mark.parametrize("genus", [*range(2, 13), 16, 32, 64])
def test_nonfixed_correction_numerators_match_the_products(genus):
    # Macdonald's recurrence in n against P_t(S^n M) (1+t)^{2g} multiplied out
    jacobian = Poly([1, 1]) ** (2 * genus)
    spec = spec_of(genus, 0, NONFIXED)
    for n in range(2 * genus - 1):
        num, den = strata._correction_factor(spec, n)
        assert num == sym_poly(spec.surface, n) * jacobian, n
        assert den == Poly([1, 0, -1])


@pytest.mark.parametrize("genus", range(2, 17))
def test_parity_sum_numerator_is_the_per_row_shifted_sum(genus):
    # the displayed series' one-pass sum against sum_d t^{2 mu_d} num T(n_d)
    # from the T(n) the stratum table reads, exactly, as polynomials
    for degree in (0, 1):
        for det in Determinant:
            for order in (3, default_truncation(genus, degree)):
                spec = spec_of(genus, degree, det, order)
                per_row = Poly()
                for d in range(1, max_stratum(spec) + 1):
                    idx = mu_index(spec, d)
                    if idx.n >= 0:
                        num = strata._correction_factor(spec, idx.n)[0]
                        per_row = per_row + num.shift(2 * idx.mu)
                summed = Poly(strata._parity_correction_numerator(spec))
                assert summed == per_row, spec


@pytest.mark.parametrize("genus", range(2, 17))
def test_parity_sums_lay_out_each_symmetric_product(genus, monkeypatch):
    # one stratum at t^0 with n_d = n and no anti-invariant classes: the sum
    # is the parity-sum P_t(S^n M) itself
    spec = spec_of(genus, 0, FIXED)
    monkeypatch.setattr(strata, "max_stratum", lambda spec: 1)
    monkeypatch.setattr(spaces, "anti_invariant_dim", lambda surface, n: 0)
    for n in range(2 * genus - 1):
        monkeypatch.setattr(strata, "mu_index", lambda spec, d, n=n: strata.StratumIndex(0, n))
        laid_out = strata._parity_correction_numerator(spec)
        assert Poly(laid_out) == sym_poly(spec.surface, n), n


@pytest.mark.parametrize("det", [FIXED, NONFIXED])
@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("genus", [2, 5])
def test_correction_factor_rejects_n_outside_its_range(genus, degree, det):
    # n = -1 must not wrap round to T(2g-2), nor n past 2g-2 be accepted
    spec = spec_of(genus, degree, det)
    top = 2 * genus - 2
    for n in (-2, -1, top + 1, top + 2):
        message = rf"^T\(n\) needs 0 <= n <= 2g-2 = {top}, got n = {n}$"
        with pytest.raises(ValueError, match=message):
            strata._correction_factor(spec, n)


@pytest.mark.parametrize("genus", [3, 8])
def test_stratum_table_corrections_are_the_shifted_expansions(genus):
    # each table row expands T(n_d) only up to t^{N - 2 mu_d}; the stratum
    # difference it gives must equal eta - T(n_d) from order-N expansions,
    # shifted by 2 mu_d: eta alone past the corrected strata, zero past the table
    for degree in (0, 1):
        for det in Determinant:
            spec = spec_of(genus, degree, det)
            order = spec.truncation
            eta = expand_rational(*strata._critical_factor(spec), order)
            top = max_stratum(spec)
            for d in range(1, top + 2):
                idx = mu_index(spec, d)
                expected = eta
                if idx.n >= 0:
                    num, den = strata._correction_factor(spec, idx.n)
                    expected = eta - expand_rational(num, den, order)
                assert stratum_difference(spec, d) == expected.shift(2 * idx.mu), (spec, d)
            assert stratum_difference(spec, top + 1) == TruncSeries.zero(order)


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


@pytest.mark.parametrize("genus", range(2, 17))
def test_invariant_part_removes_each_cover_minus_its_symmetric_product(genus):
    # the anti-invariant classes placed one coefficient per stratum, against
    # the semistable series minus sum_d t^{2 mu_d} (cover of S^{n_d} M - S^{n_d} M)
    for degree in (0, 1):
        for order in (3, default_truncation(genus, degree)):
            spec = spec_of(genus, degree, FIXED, order)
            anti_invariant = Poly()
            for d in range(1, max_stratum(spec) + 1):
                idx = mu_index(spec, d)
                if idx.n >= 0:
                    extra = spaces.sym_cover_poly(spec.surface, idx.n) - sym_poly(spec.surface, idx.n)
                    anti_invariant = anti_invariant + extra.shift(2 * idx.mu)
            expected = semistable_series(spec) - anti_invariant.as_series(order)
            assert invariant_part_series(spec) == expected, spec


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
