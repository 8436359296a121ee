"""Renderers against the code they replaced: ``json.dumps(payload, indent=2)``
for JSON and one f-string per line for the table and CSV.

The oracles below are the renderers as they stood before the formats were
laid out by hand; they share no code with ``higgsbetti.report`` beyond the
report records.
"""

import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from higgsbetti import cli, report
from higgsbetti.report import BettiReport, CheckResult
from higgsbetti.series import TruncSeries
from higgsbetti.spaces import Determinant, bg_series
from higgsbetti.strata import (
    ModuliSpec,
    NegativeBettiError,
    max_stratum,
    stratum_space_series,
)


def oracle_coeffs(series):
    for k, c in enumerate(series.coeffs):
        if Fraction(c).denominator != 1:
            raise ValueError(f"coefficient of t^{k} is not an integer: {c}")
    return [str(c) for c in series.coeffs]


def oracle_table_block(series):
    coeffs = oracle_coeffs(series)
    wk = len(str(series.order))
    wb = max(len("b_k"), max(len(c) for c in coeffs))
    lines = [f"{'k':>{wk}}  {'b_k':>{wb}}"]
    lines += [f"{str(k).rjust(wk)}  {c.rjust(wb)}" for k, c in enumerate(coeffs)]
    return "\n".join(lines) + "\n"


def oracle_table(rep):
    spec = rep.spec
    out = (
        f"# genus={spec.genus} degree={spec.degree}"
        f" determinant={spec.determinant.value}"
        f" truncation={spec.truncation} route={rep.route}\n"
    )
    if rep.strata:
        blocks = []
        for label, series in rep.strata:
            name = "bg" if label == "bg" else f"X_{label}"
            blocks.append(f"# {name}\n" + oracle_table_block(series))
        return out + "\n".join(blocks)
    if rep.checks:
        width = max(len(c.name) for c in rep.checks)
        lines = [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}"
            for c in rep.checks
        ]
        failed = sum(1 for c in rep.checks if not c.passed)
        lines.append("all checks passed" if failed == 0 else f"{failed} check(s) failed")
        return out + "\n".join(lines) + "\n"
    return out + oracle_table_block(rep.series)


def oracle_json(rep):
    spec = rep.spec
    payload = {
        "genus": spec.genus,
        "degree": spec.degree,
        "determinant": spec.determinant.value,
        "truncation": spec.truncation,
        "route": rep.route,
        "coefficients": oracle_coeffs(rep.series),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in rep.checks
        ],
    }
    if rep.strata:
        payload["strata"] = [
            {"d": int(label) if label.isdigit() else label, "coefficients": oracle_coeffs(s)}
            for label, s in rep.strata
        ]
    return json.dumps(payload, indent=2) + "\n"


def oracle_csv(rep):
    if rep.strata:
        lines = ["d,k,b_k"]
        for label, series in rep.strata:
            for k, c in enumerate(oracle_coeffs(series)):
                lines.append(f"{label},{k},{c}")
        return "\n".join(lines) + "\n"
    if rep.checks:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["check", "passed", "detail"])
        for c in rep.checks:
            writer.writerow([c.name, "pass" if c.passed else "fail", c.detail])
        return buffer.getvalue()
    lines = ["k,b_k"]
    for k, c in enumerate(oracle_coeffs(rep.series)):
        lines.append(f"{k},{c}")
    return "\n".join(lines) + "\n"


ORACLES = {"table": oracle_table, "json": oracle_json, "csv": oracle_csv}

# huge, negative and integral-Fraction coefficients
coefficient = st.one_of(
    st.integers(-(10**40), 10**40),
    st.integers(-(10**9), 10**9),
    st.integers(-3, 3).map(Fraction),
)
series_st = st.lists(coefficient, min_size=1, max_size=40).map(TruncSeries)
# quotes, backslashes, control characters and non-ASCII
text = st.text(
    st.one_of(
        st.sampled_from('"\\,\n\t\x00\x1f\x7f é€😀'),
        st.characters(),
    ),
    max_size=12,
)
label = st.one_of(
    st.integers(0, 10**6).map(str),
    st.just("bg"),
    text.filter(lambda s: not s.isdigit()),
)
spec_st = st.builds(
    lambda g, d, det, n: ModuliSpec._make((g, d, det, n)),
    st.integers(-(10**30), 10**30),
    st.integers(-5, 5),
    st.sampled_from(Determinant),
    st.integers(-(10**30), 10**30),
)
checks_st = st.lists(st.builds(CheckResult, text, st.booleans(), text), max_size=4)
strata_st = st.lists(st.tuples(label, series_st), max_size=5)
report_st = st.builds(
    lambda spec, route, series, checks, strata: BettiReport(
        spec, route, series, tuple(checks), tuple(strata)
    ),
    spec_st,
    text,
    series_st,
    checks_st,
    strata_st,
)


@settings(max_examples=300, deadline=None)
@given(report_st, st.sampled_from(sorted(ORACLES)))
def test_every_format_matches_the_replaced_renderer(rep, fmt):
    assert report.render(rep, fmt) == ORACLES[fmt](rep)


@given(series_st, st.integers(0, 39), st.sampled_from(sorted(ORACLES)))
def test_a_non_integral_coefficient_is_an_internal_error(series, k, fmt):
    cs = list(series.coeffs)
    k = min(k, len(cs) - 1)
    cs[k] = Fraction(2 * cs[k] + 1, 2)
    bad = TruncSeries(cs)
    rep = BettiReport(ModuliSpec.default(2, 0, Determinant.FIXED), "moduli", bad)
    with pytest.raises(NegativeBettiError, match=rf"coefficient of t\^{k} is not an integer"):
        report.render(rep, fmt)
    one = TruncSeries([1])
    stratified = rep._replace(series=one, strata=(("0", one), ("bg", bad)))
    with pytest.raises(NegativeBettiError):
        report.render(stratified, fmt)


def strata_report(genus, degree, determinant, order):
    spec = ModuliSpec(genus, degree, determinant, order)
    rows = [(str(d), stratum_space_series(spec, d)) for d in range(max_stratum(spec) + 1)]
    rows.append(("bg", bg_series(spec.surface, determinant, order)))
    return BettiReport(spec, "stratified", stratum_space_series(spec, 0), strata=tuple(rows))


@pytest.mark.parametrize("fmt", sorted(ORACLES))
def test_largest_strata_request_matches_the_replaced_renderer(fmt, capsys):
    # the largest request the CLI caps allow; the digests pin JSON only at g <= 4
    argv = ["strata", "-g", "64", "-d", "1", "--determinant", "nonfixed", "-N", "1024"]
    assert cli.main(argv + ["-f", fmt]) == 0
    out = capsys.readouterr().out
    assert out == ORACLES[fmt](strata_report(64, 1, Determinant.NONFIXED, 1024))


def test_strata_blocks_of_different_orders_keep_their_own_k_column():
    short, long = TruncSeries([1, 2, 3]), TruncSeries(range(12))
    rep = BettiReport(
        ModuliSpec.default(2, 0, Determinant.FIXED), "stratified", short,
        strata=(("0", long), ("1", short), ("bg", long)),
    )
    for fmt, oracle in ORACLES.items():
        assert report.render(rep, fmt) == oracle(rep)
