"""Report objects and deterministic rendering (table / JSON / CSV).

Identical inputs must produce byte-identical output: no timestamps, no
locale-dependent formatting, integers printed in plain decimal, LF line
endings.  JSON coefficients are decimal strings because they outgrow 64-bit
integers at large genus.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .series import TruncSeries, first_non_integer
from .strata import ModuliSpec

__all__ = ["BettiReport", "CheckResult", "render"]

FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class BettiReport:
    """A computed coefficient table plus the outcome of any cross-checks.

    ``strata`` holds labelled rows for stratum dumps; the classifying-space
    row carries the label "bg".
    """

    spec: ModuliSpec
    route: str
    series: TruncSeries
    checks: tuple[CheckResult, ...] = ()
    strata: tuple[tuple[str, TruncSeries], ...] = ()


def _int_coeffs(series: TruncSeries) -> list[int]:
    k = first_non_integer(series, nonnegative=False)
    if k is not None:
        raise ValueError(f"coefficient of t^{k} is not an integer: {series.coeffs[k]}")
    return [int(c) for c in series.coeffs]


def _coefficient_table(series: TruncSeries) -> str:
    coeffs = _int_coeffs(series)
    wk = len(str(series.order))
    wb = max(len("b_k"), max(len(str(c)) for c in coeffs))
    lines = [f"{'k':>{wk}}  {'b_k':>{wb}}"]
    for k, c in enumerate(coeffs):
        lines.append(f"{k:>{wk}}  {c:>{wb}}")
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
        f" determinant={spec.determinant.value}"
        f" truncation={spec.truncation} route={report.route}\n"
    )


def render_table(report: BettiReport) -> str:
    out = _header(report)
    if report.strata:
        blocks = []
        for label, series in report.strata:
            name = "bg" if label == "bg" else f"X_{label}"
            blocks.append(f"# {name}\n" + _coefficient_table(series))
        return out + "\n".join(blocks)
    if report.checks:
        return out + _check_lines(report.checks)
    return out + _coefficient_table(report.series)


def render_json(report: BettiReport) -> str:
    spec = report.spec
    payload: dict = {
        "genus": spec.genus,
        "degree": spec.degree,
        "determinant": spec.determinant.value,
        "truncation": spec.truncation,
        "route": report.route,
        "coefficients": [str(c) for c in _int_coeffs(report.series)],
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    if report.strata:
        payload["strata"] = [
            {
                "d": int(label) if label.isdigit() else label,
                "coefficients": [str(c) for c in _int_coeffs(series)],
            }
            for label, series in report.strata
        ]
    return json.dumps(payload, indent=2) + "\n"


def render_csv(report: BettiReport) -> str:
    if report.strata:
        lines = ["d,k,b_k"]
        for label, series in report.strata:
            for k, c in enumerate(_int_coeffs(series)):
                lines.append(f"{label},{k},{c}")
        return "\n".join(lines) + "\n"
    if report.checks:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["check", "passed", "detail"])
        for c in report.checks:
            writer.writerow([c.name, "pass" if c.passed else "fail", c.detail])
        return buffer.getvalue()
    lines = ["k,b_k"]
    for k, c in enumerate(_int_coeffs(report.series)):
        lines.append(f"{k},{c}")
    return "\n".join(lines) + "\n"


def render(report: BettiReport, fmt: str) -> str:
    if fmt == "table":
        return render_table(report)
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
