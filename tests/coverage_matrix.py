"""Check-coverage matrix: which ``verify`` checks FAIL under each sabotage.

Every perturbation of ``test_sabotage.PERTURBATIONS`` is applied on its own,
with every cache cleared, in each of the four variants at genus 3.  A cell
records the exit code and the checks that FAIL; an exit of 2 with no FAIL
is an internal error.  The same file holds what follows from the cells: the
cells that exit 0, the checks that no perturbation makes FAIL, and the
checks that FAIL only alongside another one.

    PYTHONPATH=src python tests/coverage_matrix.py           # print the matrix
    PYTHONPATH=src python tests/coverage_matrix.py --write   # re-record the file

``tests/test_coverage_matrix.py`` regenerates the matrix and compares it
with the recorded file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from test_sabotage import DEGREES, DETERMINANTS, PERTURBATIONS, clear_caches, run_verify

RECORD = Path(__file__).with_name("coverage_matrix.json")
VARIANTS = tuple((degree, det) for degree in DEGREES for det in DETERMINANTS)


def _run(degree: int, determinant: str, perturbation=None) -> tuple[int, list[str], list[str]]:
    """Exit code, the checks that ran and the checks that FAIL, for one
    ``verify`` request with caches cleared before and after."""
    clear_caches()
    with pytest.MonkeyPatch.context() as monkeypatch:
        if perturbation is not None:
            perturbation(monkeypatch)
        code, out, _ = run_verify(degree, determinant)
    clear_caches()
    lines = [line.split()[:2] for line in out.splitlines()]
    ran = [name for status, name in lines if status in ("PASS", "FAIL")]
    return code, ran, [name for status, name in lines if status == "FAIL"]


def build() -> dict:
    checks: list[str] = []
    for degree, det in VARIANTS:
        code, ran, failed = _run(degree, det)
        assert (code, failed) == (0, []), (degree, det, failed)
        checks += (name for name in ran if name not in checks)
    cells = {}
    for perturbation in PERTURBATIONS:
        row = cells[perturbation.__name__] = {}
        for degree, det in VARIANTS:
            code, _, failed = _run(degree, det, perturbation)
            row[f"d{degree} {det}"] = {"exit": code, "fail": failed}
    failing = [cell["fail"] for row in cells.values() for cell in row.values()]
    return {
        "genus": 3,
        "checks": checks,
        "cells": cells,
        "exit_0": [
            f"{name}: {variant}"
            for name, row in cells.items()
            for variant, cell in row.items()
            if cell["exit"] == 0
        ],
        "unreached": [c for c in checks if not any(c in fails for fails in failing)],
        "never_alone": [
            c
            for c in checks
            if any(c in fails for fails in failing)
            and all(len(fails) > 1 for fails in failing if c in fails)
        ],
    }


def main(argv: list[str]) -> int:
    text = json.dumps(build(), indent=2) + "\n"
    if argv == ["--write"]:
        RECORD.write_text(text, encoding="utf-8")
    elif argv:
        sys.stderr.write("usage: coverage_matrix.py [--write]\n")
        return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
