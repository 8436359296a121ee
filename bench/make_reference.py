"""Record the reference output of every request the workloads can emit.

    python3 bench/make_reference.py

Runs each distinct (subcommand, g, degree, determinant, N) once through
``higgsbetti.cli.main`` with JSON output and writes ``bench/reference.json``:
the Betti coefficients for betti and verify, every stratum row for strata,
and the check names for verify.  The benchmark compares each request's
parsed output against this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import higgsbetti.cli  # noqa: E402

import outputs  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def record(spec: workloads.Spec) -> dict:
    request = workloads.Request(spec, "json")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = higgsbetti.cli.main(request.argv())
    if code != 0:
        raise SystemExit(f"{spec.key}: exit code {code}")
    parsed = outputs.parse(spec.subcommand, "json", buffer.getvalue())
    if spec.subcommand == "strata":
        return {"strata": parsed.strata}
    entry = {"coefficients": parsed.coefficients}
    if parsed.checks is not None:
        entry["checks"] = [name for name, _ in parsed.checks]
    return entry


def main() -> None:
    keys = {}
    for name in workloads.WORKLOADS:
        for spec in workloads.specs(name):
            keys.setdefault(spec.key, spec)
    entries = {}
    for key in sorted(keys):
        entries[key] = record(keys[key])
        print(key, file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in entries.items()]
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
