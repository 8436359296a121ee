"""Parsers for the CLI's three output formats, and the correctness gate.

A parsed report holds whichever of these the output carries: the Betti
coefficients, the stratum rows (label -> coefficients, label "bg" for the
classifying space), and the checks as (name, passed) pairs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass


@dataclass
class Parsed:
    coefficients: list[int] | None = None
    strata: dict[str, list[int]] | None = None
    checks: list[tuple[str, bool]] | None = None


def _parse_table(subcommand: str, text: str) -> Parsed:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# genus="):
        raise ValueError("missing report header")
    body = lines[1:]
    if subcommand == "verify":
        checks = []
        for line in body[:-1]:
            verdict, name = line.split()[:2]
            if verdict not in ("PASS", "FAIL"):
                raise ValueError(f"bad check line {line!r}")
            checks.append((name, verdict == "PASS"))
        return Parsed(checks=checks)
    rows: dict[str, list[int]] = {}
    label = None
    for line in body:
        fields = line.split()
        if not fields or fields == ["k", "b_k"]:
            continue
        if fields[0] == "#":
            label = fields[1].removeprefix("X_")
            rows[label] = []
        else:
            k, value = fields
            current = rows.setdefault(label, [])
            if int(k) != len(current):
                raise ValueError(f"row t^{k} out of sequence")
            current.append(int(value))
    if subcommand == "strata":
        return Parsed(strata=rows)
    return Parsed(coefficients=rows[None])


def _parse_json(subcommand: str, text: str) -> Parsed:
    payload = json.loads(text)
    parsed = Parsed(coefficients=[int(c) for c in payload["coefficients"]])
    if subcommand == "verify":
        parsed.checks = [(c["name"], c["passed"] is True) for c in payload["checks"]]
    if subcommand == "strata":
        parsed.strata = {
            str(row["d"]): [int(c) for c in row["coefficients"]] for row in payload["strata"]
        }
    return parsed


def _parse_csv(subcommand: str, text: str) -> Parsed:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if subcommand == "verify":
        if header != ["check", "passed", "detail"]:
            raise ValueError(f"bad header {header}")
        return Parsed(checks=[(name, passed == "pass") for name, passed, _ in body])
    if subcommand == "strata":
        if header != ["d", "k", "b_k"]:
            raise ValueError(f"bad header {header}")
        strata: dict[str, list[int]] = {}
        for label, k, value in body:
            current = strata.setdefault(label, [])
            if int(k) != len(current):
                raise ValueError(f"row {label} t^{k} out of sequence")
            current.append(int(value))
        return Parsed(strata=strata)
    if header != ["k", "b_k"]:
        raise ValueError(f"bad header {header}")
    coefficients = []
    for k, value in body:
        if int(k) != len(coefficients):
            raise ValueError(f"row t^{k} out of sequence")
        coefficients.append(int(value))
    return Parsed(coefficients=coefficients)


PARSERS = {"table": _parse_table, "json": _parse_json, "csv": _parse_csv}


def parse(subcommand: str, fmt: str, text: str) -> Parsed:
    return PARSERS[fmt](subcommand, text)


def failure(request, exit_code: int | None, stdout: str, reference: dict) -> str | None:
    """Why a finished request counts as failed, or None if it is correct.

    betti and strata must exit 0 and print exactly the reference series.  A
    verify request must exit 0 with every check reading PASS, and where the
    format carries coefficients (json) they must match the reference too.
    """
    spec = request.spec
    if exit_code != 0:
        return f"exit code {exit_code}"
    expected = reference.get(spec.key)
    if expected is None:
        return "no reference entry"
    try:
        parsed = parse(spec.subcommand, request.fmt, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable {request.fmt} output: {exc!r}"
    if spec.subcommand == "verify":
        if not parsed.checks:
            return "no checks reported"
        failing = [name for name, passed in parsed.checks if not passed]
        if failing:
            return "checks not PASS: " + ", ".join(failing)
    if spec.subcommand == "strata":
        if parsed.strata != expected["strata"]:
            return "stratum rows differ from the reference"
    elif parsed.coefficients is not None and parsed.coefficients != expected["coefficients"]:
        return "coefficients differ from the reference"
    return None
