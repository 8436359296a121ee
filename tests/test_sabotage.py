"""Sabotage matrix: perturb one building block at a time and check that
``verify`` at genus 3 notices, in every variant that uses the block.

Each perturbation patches the name in every module that looks it up, and
every ``lru_cache`` is cleared before and after, so no series computed with
the real block leaks into a sabotaged run or the other way round.
"""

import contextlib
import io

import pytest

from higgsbetti import cli, closedforms, spaces, strata, verify
from higgsbetti.closedforms import ResidueLabel
from higgsbetti.series import Poly
from higgsbetti.spaces import Determinant
from higgsbetti.strata import ModuliSpec

FIXED = Determinant.FIXED
DEGREES = (0, 1)
DETERMINANTS = ("fixed", "nonfixed")


def clear_caches():
    for module in (spaces, strata, closedforms, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def run_verify(degree, determinant):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "-g", "3", "-d", str(degree), "--determinant", determinant])
    return code, out.getvalue(), err.getvalue()


def assert_fail_line(degree, determinant):
    code, out, _ = run_verify(degree, determinant)
    assert code == 2
    assert any(line.startswith("FAIL") for line in out.splitlines()), out


def sym_poly_plus_t(monkeypatch):
    real = spaces.sym_poly
    for module in (spaces, strata):
        monkeypatch.setattr(module, "sym_poly", lambda surface, n: real(surface, n) + Poly([0, 1]))


def bg_seen_by_strata_plus_t7(monkeypatch):
    # the displayed series reads P_t(BG) as a fraction num/den, where
    # num + t^7 den is the series P_t(BG) + t^7; the stratum-by-stratum
    # route reads the expansion
    real_fraction = strata.bg_fraction
    real_series = strata.bg_series

    def fraction(surface, det):
        num, den = real_fraction(surface, det)
        return num + Poly.monomial(7) * den, den

    monkeypatch.setattr(strata, "bg_fraction", fraction)
    monkeypatch.setattr(
        strata,
        "bg_series",
        lambda surface, det, order: real_series(surface, det, order)
        + Poly.monomial(7).as_series(order),
    )


def mu_2_plus_1(monkeypatch):
    real = strata.mu_index

    def sabotaged(spec, d):
        idx = real(spec, d)
        return idx._replace(mu=idx.mu + 1) if d == 2 else idx

    monkeypatch.setattr(strata, "mu_index", sabotaged)


def residue_piece_plus_t8(monkeypatch, piece):
    real = closedforms._residue_fraction

    def sabotaged(genus, label):
        num, den = real(genus, label)
        if label is piece:
            num = num + Poly.monomial(8) * den
        return num, den

    monkeypatch.setattr(closedforms, "_residue_fraction", sabotaged)


def residue_contour_plus_t8(monkeypatch):
    residue_piece_plus_t8(monkeypatch, ResidueLabel.CONTOUR)


def residue_x1_piece_plus_t8(monkeypatch):
    residue_piece_plus_t8(monkeypatch, ResidueLabel.SIMPLE_POLE_X1)


def residue_x_minus_inv_t2_piece_plus_t8(monkeypatch):
    residue_piece_plus_t8(monkeypatch, ResidueLabel.SIMPLE_POLE_X_MINUS_INV_T2)


def residue_x_inv_t2_piece_plus_t8(monkeypatch):
    residue_piece_plus_t8(monkeypatch, ResidueLabel.DOUBLE_POLE_X_INV_T2)


def bg_seen_by_verify_plus_t7(monkeypatch):
    real = verify.bg_series
    monkeypatch.setattr(
        verify,
        "bg_series",
        lambda surface, det, order: real(surface, det, order)
        + Poly.monomial(7).as_series(order),
    )


def anti_invariant_dim_plus_1(monkeypatch):
    real = spaces.anti_invariant_dim
    monkeypatch.setattr(spaces, "anti_invariant_dim", lambda surface, n: real(surface, n) + 1)


def eta_plus_t9(monkeypatch):
    real = strata._critical_factor

    def sabotaged(spec):
        num, den = real(spec)
        return num + Poly.monomial(9) * den, den

    monkeypatch.setattr(strata, "_critical_factor", sabotaged)


def jacobian_bu1_factor_plus_t9(monkeypatch):
    real = strata._jacobian_bu1_factor

    def sabotaged(genus):
        num, den = real(genus)
        return num + Poly.monomial(9) * den, den

    monkeypatch.setattr(strata, "_jacobian_bu1_factor", sabotaged)


def binomial_extra_plus_t9(monkeypatch):
    real = closedforms.binomial_extra

    def sabotaged(surface, route, order):
        return real(surface, route, order) + Poly.monomial(9).as_series(order)

    for module in (closedforms, verify):
        monkeypatch.setattr(module, "binomial_extra", sabotaged)


def correction_plus_t_n_plus_1(monkeypatch):
    # T(n) is a fraction num/den: num + t^{n+1} den is the series T(n) + t^{n+1}
    real = strata._correction_factor

    def sabotaged(spec, n):
        num, den = real(spec, n)
        return num + Poly.monomial(n + 1) * den, den

    monkeypatch.setattr(strata, "_correction_factor", sabotaged)


@pytest.mark.parametrize("determinant", DETERMINANTS)
@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize(
    "sabotage",
    [
        sym_poly_plus_t,
        bg_seen_by_strata_plus_t7,
        mu_2_plus_1,
        residue_contour_plus_t8,
        residue_x1_piece_plus_t8,
        residue_x_minus_inv_t2_piece_plus_t8,
        residue_x_inv_t2_piece_plus_t8,
    ],
)
def test_block_used_by_every_variant_is_caught(sabotage, degree, determinant, monkeypatch):
    sabotage(monkeypatch)
    assert_fail_line(degree, determinant)


@pytest.mark.parametrize("degree", DEGREES)
def test_anti_invariant_dim_is_caught_for_fixed_determinant(degree, monkeypatch):
    # degree 1 has only the cover Euler-characteristic check to see it
    anti_invariant_dim_plus_1(monkeypatch)
    assert_fail_line(degree, "fixed")


@pytest.mark.parametrize("determinant", DETERMINANTS)
def test_eta_is_caught_in_degree_zero(determinant, monkeypatch):
    eta_plus_t9(monkeypatch)
    assert_fail_line(0, determinant)


@pytest.mark.parametrize("determinant", DETERMINANTS)
def test_eta_surfaces_as_an_internal_error_in_degree_one(determinant, monkeypatch):
    eta_plus_t9(monkeypatch)
    code, out, err = run_verify(1, determinant)
    assert (code, out) == (2, "")
    assert err.startswith("higgsbetti: error:")


@pytest.mark.parametrize("determinant", DETERMINANTS)
@pytest.mark.parametrize("degree", DEGREES)
def test_bg_seen_by_verify_fails_telescoping(degree, determinant, monkeypatch):
    bg_seen_by_verify_plus_t7(monkeypatch)
    code, out, _ = run_verify(degree, determinant)
    assert code == 2
    assert ["FAIL", "telescoping"] in [line.split()[:2] for line in out.splitlines()], out


@pytest.mark.parametrize("determinant", DETERMINANTS)
def test_jacobian_bu1_factor_is_caught_in_degree_zero(determinant, monkeypatch):
    jacobian_bu1_factor_plus_t9(monkeypatch)
    assert_fail_line(0, determinant)


@pytest.mark.parametrize("determinant", DETERMINANTS)
def test_jacobian_bu1_factor_surfaces_as_an_internal_error_in_degree_one(
    determinant, monkeypatch
):
    jacobian_bu1_factor_plus_t9(monkeypatch)
    code, out, err = run_verify(1, determinant)
    assert (code, out) == (2, "")
    assert err.startswith("higgsbetti: error:")


@pytest.mark.parametrize("determinant", DETERMINANTS)
@pytest.mark.parametrize("degree", DEGREES)
def test_binomial_extra_is_caught_where_a_route_uses_it(degree, determinant, monkeypatch):
    binomial_extra_plus_t9(monkeypatch)
    if (degree, determinant) == (0, "fixed"):
        assert_fail_line(degree, determinant)
    else:
        # only the degree-0 fixed closed form adds the extras; elsewhere the
        # one check that reads them compares its two routes, which shift
        # alike, so the perturbation cannot show
        code, out, _ = run_verify(degree, determinant)
        assert code == 0, out


@pytest.mark.parametrize("determinant", DETERMINANTS)
def test_correction_factor_is_caught_in_degree_zero(determinant, monkeypatch):
    correction_plus_t_n_plus_1(monkeypatch)
    assert_fail_line(0, determinant)


# the displayed series sums the T(n) numerators from Macdonald's parity sums
# and reads no _correction_factor; the stratum table, and so the
# stratum-by-stratum stratification_formula and the stratum spaces, do.  The
# two degree-1 routes still share the strata code (ROADMAP item 1).
@pytest.mark.parametrize("determinant", DETERMINANTS)
def test_correction_factor_is_caught_in_degree_one(determinant, monkeypatch):
    correction_plus_t_n_plus_1(monkeypatch)
    code, out, _ = run_verify(1, determinant)
    assert code == 2
    fails = [line.split(None, 2) for line in out.splitlines() if line.startswith("FAIL")]
    assert [name for _, name, _ in fails] == ["telescoping", "moduli-route-agreement"], out
    assert all(detail.startswith("first mismatch at t^10:") for _, _, detail in fails), out


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_cover_check_names_the_first_failing_n(genus, monkeypatch):
    real = spaces.anti_invariant_dim
    monkeypatch.setattr(
        spaces, "anti_invariant_dim", lambda surface, n: real(surface, n) + (n == 2)
    )
    checks = {c.name: c for c in verify.run_checks(ModuliSpec.default(genus, 1, FIXED))}
    cover = checks["cover-correction-note"]
    assert not cover.passed
    assert cover.detail == "chi(cover of S^2 M) != 2^(2g) chi(S^2 M)"
