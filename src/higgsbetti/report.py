"""Report objects and deterministic rendering (table / JSON / CSV).

Identical inputs must produce byte-identical output: no timestamps, no
locale-dependent formatting, integers printed in plain decimal, LF line
endings.  JSON coefficients are decimal strings because they outgrow 64-bit
integers at large genus.

Each coefficient is turned into decimal once, as the line or list that shows
it is built, and each format is joined from those.  The JSON is laid out by
hand, exactly as ``json.dumps(payload, indent=2)`` lays it out, byte for
byte: its strings go through the escaping function ``json.dumps`` itself
uses under ``ensure_ascii``, and the tests keep ``json.dumps`` as the oracle.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple

from .series import TruncSeries, first_non_integer
from .strata import ModuliSpec, NegativeBettiError

__all__ = ["BettiReport", "CheckResult", "render"]

FORMATS = ("table", "json", "csv")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class BettiReport(NamedTuple):
    """A computed coefficient table plus the outcome of any cross-checks.

    ``strata`` holds labelled rows for stratum dumps; the classifying-space
    row carries the label "bg".
    """

    spec: ModuliSpec
    route: str
    series: TruncSeries
    checks: tuple[CheckResult, ...] = ()
    strata: tuple[tuple[str, TruncSeries], ...] = ()


def _integer_coeffs(series: TruncSeries) -> tuple[int, ...]:
    """The coefficients, once each is known to be an integer (an integral
    ``Fraction`` prints as its integer)."""
    k = first_non_integer(series, nonnegative=False)
    if k is not None:
        raise NegativeBettiError(
            f"coefficient of t^{k} is not an integer: {series.coeffs[k]}"
        )
    return series.coeffs


def _k_column(strata: tuple[tuple[str, TruncSeries], ...]) -> list[str]:
    """The k column of every block: 0..the longest order, in decimal."""
    return list(map(str, range(max(series.order for _, series in strata) + 1)))


def _coefficient_table(series: TruncSeries, ks: Iterable[str]) -> str:
    cs = _integer_coeffs(series)
    wk = len(str(series.order))
    # the widest decimal is the largest or the most negative coefficient
    wb = max(len("b_k"), len(str(max(cs))), len(str(min(cs))))
    lines = ["k".rjust(wk) + "  " + "b_k".rjust(wb)]
    lines += [f"{k.rjust(wk)}  {c.rjust(wb)}" for k, c in zip(ks, map(str, cs))]
    return "\n".join(lines) + "\n"


def _check_lines(checks: tuple[CheckResult, ...]) -> str:
    width = max(len(c.name) for c in checks)
    lines = [
        f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}" for c in checks
    ]
    failed = sum(1 for c in checks if not c.passed)
    lines.append(
        "all checks passed" if failed == 0 else f"{failed} check(s) failed"
    )
    return "\n".join(lines) + "\n"


def _header(report: BettiReport) -> str:
    spec = report.spec
    return (
        f"# genus={spec.genus} degree={spec.degree}"
        f" determinant={spec.determinant._value_}"  # .value is a Python-level property
        f" truncation={spec.truncation} route={report.route}\n"
    )


def render_table(report: BettiReport) -> str:
    out = _header(report)
    if report.strata:
        ks = _k_column(report.strata)
        blocks = [
            f"# {'bg' if label == 'bg' else 'X_' + label}\n" + _coefficient_table(series, ks)
            for label, series in report.strata
        ]
        return out + "\n".join(blocks)
    if report.checks:
        return out + _check_lines(report.checks)
    series = report.series
    return out + _coefficient_table(series, map(str, range(series.order + 1)))


def _json_list(items: list[str], indent: str, quote: str = "") -> str:
    """Items, each inside ``quote``, laid out as ``json.dumps(..., indent=2)``
    lays out a list whose closing bracket sits at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}{quote}" + f"{quote},\n{inner}{quote}".join(items) + f"{quote}\n{indent}]"


def render_json(report: BettiReport) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` of the report's payload,
    laid out by hand.  Decimal digit strings need no escaping; every other
    string goes through the escaping ``json.dumps`` uses under
    ``ensure_ascii``."""
    spec = report.spec
    checks = [
        f'{{\n      "name": {_json_string(c.name)},\n'
        f'      "passed": {"true" if c.passed else "false"},\n'
        f'      "detail": {_json_string(c.detail)}\n    }}'
        for c in report.checks
    ]
    coeffs = _json_list(list(map(str, _integer_coeffs(report.series))), "  ", '"')
    out = (
        f'{{\n  "genus": {spec.genus},\n  "degree": {spec.degree},\n'
        f'  "determinant": {_json_string(spec.determinant._value_)},\n'
        f'  "truncation": {spec.truncation},\n  "route": {_json_string(report.route)},\n'
        f'  "coefficients": {coeffs},\n  "checks": {_json_list(checks, "  ")}'
    )
    if report.strata:
        rows = []
        for label, series in report.strata:
            d = int(label) if label.isdigit() else _json_string(label)
            coeffs = _json_list(list(map(str, _integer_coeffs(series))), "      ", '"')
            rows.append(f'{{\n      "d": {d},\n      "coefficients": {coeffs}\n    }}')
        out += f',\n  "strata": {_json_list(rows, "  ")}'
    return out + "\n}\n"


def render_csv(report: BettiReport) -> str:
    if report.strata:
        ks = _k_column(report.strata)
        lines = ["d,k,b_k"]
        for label, series in report.strata:
            lines += [f"{label},{k},{c}" for k, c in zip(ks, _integer_coeffs(series))]
        return "\n".join(lines) + "\n"
    if report.checks:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["check", "passed", "detail"])
        for c in report.checks:
            writer.writerow([c.name, "pass" if c.passed else "fail", c.detail])
        return buffer.getvalue()
    lines = ["k,b_k"]
    lines += [f"{k},{c}" for k, c in enumerate(_integer_coeffs(report.series))]
    return "\n".join(lines) + "\n"


def render(report: BettiReport, fmt: str) -> str:
    if fmt == "table":
        return render_table(report)
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
