"""Command-line behaviour: formats, exit codes, determinism."""

import enum
import json
import sys
from fractions import Fraction

import pytest

from higgsbetti import cli, closedforms, spaces, strata, verify
from higgsbetti.series import TruncSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_value(out, k):
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == str(k):
            return int(fields[1])
    raise AssertionError(f"no row for k={k} in output")


def test_betti_table_degree_one_anchor(capsys):
    code, out, _ = run(
        capsys, "betti", "-g", "2", "--degree", "1", "--determinant", "fixed"
    )
    assert code == 0
    assert table_value(out, 5) == 34


def test_betti_table_degree_zero_rows(capsys):
    code, out, _ = run(
        capsys, "betti", "--genus", "2", "--degree", "0", "--determinant", "fixed"
    )
    assert code == 0
    assert table_value(out, 0) == 1
    assert table_value(out, 6) == 23


def test_betti_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "betti", "-g", "2", "--degree", "1", "--determinant", "fixed", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert payload["degree"] == 1
    assert payload["determinant"] == "fixed"
    assert payload["route"] == "moduli"
    assert payload["truncation"] == 16
    assert all(isinstance(c, str) for c in payload["coefficients"])
    from higgsbetti.strata import ModuliSpec, moduli_series
    from higgsbetti.spaces import Determinant

    series = moduli_series(ModuliSpec(2, 1, Determinant.FIXED, 16))
    assert [int(c) for c in payload["coefficients"]] == [int(c) for c in series.coeffs]


def test_betti_csv(capsys):
    code, out, _ = run(
        capsys,
        "betti", "-g", "2", "--degree", "1", "--determinant", "fixed", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,b_k"
    assert "5,34" in lines


def test_output_is_deterministic(capsys):
    args = ("betti", "-g", "3", "--degree", "0", "--determinant", "nonfixed", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_truncate_override(capsys):
    code, out, _ = run(
        capsys,
        "betti", "-g", "2", "--degree", "0", "--determinant", "fixed", "--truncate", "4",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("4,")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "betti", "-g", "2", "--degree", "0", "--determinant", "fixed",
        "--format", "json", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["route"] == "equivariant"


def test_output_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(
        capsys,
        "betti", "-g", "2", "--degree", "0", "--determinant", "fixed", "--output", str(target),
    )
    assert code == 1
    assert out == ""
    assert f"higgsbetti: error: cannot write {target}: " in err
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_verify_passes_degree_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "-g", "2", "--degree", "0", "--determinant", "fixed"
    )
    assert code == 0
    assert "all checks passed" in out


def test_verify_reports_expected_violation(capsys):
    code, out, _ = run(
        capsys, "verify", "-g", "2", "--degree", "1", "--determinant", "fixed"
    )
    assert code == 0
    assert "EXPECTED" in out
    assert "(d=1, k=5): 34 > 4" in out


@pytest.mark.parametrize("genus", [2, 3, 4])
@pytest.mark.parametrize("degree", [0, 1])
def test_verify_fixed_witness_below_the_truncation(capsys, genus, degree):
    # -N caps the display only: below the default order every check line is
    # the one at the default, so the fixed-determinant witness at
    # k = 2 mu_1 + n_1 = 4g-2-d_E is found whatever -N is
    first = 4 * genus - 2 - degree
    default = strata.default_truncation(genus, degree)
    for determinant in ("fixed", "nonfixed"):
        argv = ("verify", "-g", str(genus), "-d", str(degree), "--determinant", determinant)
        default_code, default_out, _ = run(capsys, *argv)
        assert default_code == 0
        for order in (1, 2, 3, first - 1, default - 1):
            code, out, _ = run(capsys, *argv, "-N", str(order))
            assert code == 0, (determinant, order)
            assert out.splitlines()[1:] == default_out.splitlines()[1:], (determinant, order)
            if determinant == "fixed":
                assert f"witnesses: (d=1, k={first}): " in out


def test_verify_failure_exits_two(capsys, monkeypatch):
    # sabotage one route to confirm the failure path and exit code
    monkeypatch.setattr(
        verify, "lemma_closed", lambda surface, order: TruncSeries.one(order)
    )
    code, out, _ = run(
        capsys, "verify", "-g", "2", "--degree", "0", "--determinant", "fixed"
    )
    assert code == 2
    assert "FAIL" in out
    assert "first mismatch at t^0" in out


def test_space_coefficients_scans_the_classifying_space(monkeypatch):
    # bg_series is the one space series no NegativeBettiError guards
    original = verify.bg_series

    def negated_b5(surface, determinant, order):
        series = original(surface, determinant, order)
        return TruncSeries([-c if k == 5 else c for k, c in enumerate(series.coeffs)], order)

    monkeypatch.setattr(verify, "bg_series", negated_b5)
    checks = {
        c.name: c
        for c in verify.run_checks(strata.ModuliSpec.default(2, 0, spaces.Determinant.FIXED))
    }
    assert not checks["space-coefficients"].passed
    assert checks["space-coefficients"].detail == "non-Betti coefficients: bg at t^5"


@pytest.mark.parametrize("subcommand", ["betti", "verify", "strata"])
def test_internal_error_exits_two_without_traceback(capsys, monkeypatch, subcommand):
    # a non-Betti coefficient is a bug in the program, reported without a traceback
    def clear_caches():
        for module in (spaces, strata):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    monkeypatch.setattr(spaces, "anti_invariant_dim", lambda *args: -1000)
    clear_caches()
    try:
        code, out, err = run(
            capsys, subcommand, "-g", "2", "-d", "0", "--determinant", "fixed"
        )
    finally:
        clear_caches()
    assert (code, out) == (2, "")
    assert err == "higgsbetti: error: semistable series: coefficient of t^6 is -992\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_non_integral_classifying_space_row_exits_two(capsys, monkeypatch, fmt):
    # the strata dump's bg row is the one rendered series no _require_betti guards
    original = cli.bg_series

    def plus_half_t(surface, determinant, order):
        return original(surface, determinant, order) + TruncSeries([0, Fraction(1, 2)], order)

    monkeypatch.setattr(cli, "bg_series", plus_half_t)
    code, out, err = run(
        capsys, "strata", "-g", "2", "-d", "0", "--determinant", "fixed", "-f", fmt
    )
    assert (code, out) == (2, "")
    assert err == "higgsbetti: error: coefficient of t^1 is not an integer: 1/2\n"


def test_usage_errors_exit_one(capsys):
    genus_errors = set()
    for genus in ("1", "0"):
        for truncate in ((), ("-N", "10")):
            code, out, err = run(
                capsys, "verify", "--genus", genus, "--degree", "1", "--determinant", "fixed",
                *truncate,
            )
            assert (code, out) == (1, "")
            genus_errors.add(err)
    assert len(genus_errors) == 1
    assert genus_errors.pop().endswith("higgsbetti: error: genus must be at least 2\n")
    assert run(capsys, "betti", "--genus", "2", "--degree", "3", "--determinant", "fixed")[0] == 1
    assert run(capsys, "betti", "--genus", "2", "--degree", "0", "--determinant", "free")[0] == 1
    assert run(capsys, "betti", "--genus", "2", "--degree", "0", "--determinant", "fixed",
               "--truncate", "0")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1
    # the caps refuse before computing anything
    code, out, err = run(capsys, "verify", "-g", "65", "-d", "0", "--determinant", "nonfixed")
    assert (code, out) == (1, "")
    assert err.endswith("higgsbetti: error: genus must be at most 64\n")
    code, out, err = run(
        capsys, "betti", "-g", "2", "-d", "0", "--determinant", "fixed", "-N", "1025"
    )
    assert (code, out) == (1, "")
    assert err.endswith("higgsbetti: error: truncation must be at most 1024\n")


def test_strata_last_block_is_classifying_space(capsys):
    code, out, _ = run(
        capsys,
        "strata", "-g", "2", "--degree", "0", "--determinant", "fixed", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["strata"]
    assert rows[-1]["d"] == "bg"
    assert rows[-2]["coefficients"] == rows[-1]["coefficients"]

    from higgsbetti.spaces import Determinant, bg_series
    from higgsbetti.strata import ModuliSpec

    bg = bg_series(ModuliSpec(2, 0, Determinant.FIXED, 22).surface, Determinant.FIXED, 22)
    assert [int(c) for c in rows[-1]["coefficients"]] == [int(c) for c in bg.coeffs]


def test_strata_first_row_matches_betti_degree_zero(capsys):
    _, strata_out, _ = run(
        capsys,
        "strata", "-g", "2", "--degree", "0", "--determinant", "fixed", "--format", "json",
    )
    _, betti_out, _ = run(
        capsys,
        "betti", "-g", "2", "--degree", "0", "--determinant", "fixed", "--format", "json",
    )
    rows = json.loads(strata_out)["strata"]
    assert rows[0]["d"] == 0
    assert rows[0]["coefficients"] == json.loads(betti_out)["coefficients"]


def test_strata_rows_monotone_for_nonfixed(capsys):
    _, out, _ = run(
        capsys,
        "strata", "-g", "3", "--degree", "0", "--determinant", "nonfixed", "--format", "json",
    )
    rows = [r["coefficients"] for r in json.loads(out)["strata"]]
    for previous, current in zip(rows, rows[1:]):
        assert all(int(a) <= int(b) for a, b in zip(previous, current))


def test_strata_csv_header(capsys):
    _, out, _ = run(
        capsys,
        "strata", "-g", "2", "--degree", "1", "--determinant", "fixed", "--format", "csv",
    )
    assert out.splitlines()[0] == "d,k,b_k"


@pytest.mark.parametrize("determinant", ["fixed", "nonfixed"])
@pytest.mark.parametrize("degree", ["0", "1"])
@pytest.mark.parametrize("subcommand", ["betti", "verify", "strata"])
def test_request_runs_no_enum_frame_and_reads_each_argument_once(
    capsys, subcommand, degree, determinant
):
    # a cold request pays for every Python frame it runs: no Enum machinery
    # (lookup by value, hashing, iteration) and one classification per argument
    argv = [subcommand, "-g", "3", "-d", degree, "--determinant", determinant, "-f", "json"]
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    def clear_caches():
        for module in (spaces, strata, closedforms, verify):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    clear_caches()
    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
        clear_caches()
    capsys.readouterr()
    assert code == 0
    assert [c.co_name for c in codes if c.co_filename == enum.__file__] == []
    assert 0 < codes.count(cli._option.__code__) <= len(argv)
