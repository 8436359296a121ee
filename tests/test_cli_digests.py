"""Golden output of the CLI: exit code and stdout digest of every request
in a fixed grid, checked against ``tests/cli_digests.json``.

A change that alters any CLI output fails this test until the file is
re-recorded, so every output change shows up as a diff of that file.
Re-record with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from higgsbetti import cli
from higgsbetti.report import FORMATS
from higgsbetti.strata import default_truncation

DIGESTS = Path(__file__).with_name("cli_digests.json")


def requests():
    """g = 2..4, every degree and determinant, every subcommand and format,
    and -N at the default, at 3 and at twice the default; then ``betti`` and
    ``verify`` at g = 8 and 16, where many strata carry a correction, at the
    default -N in table format; then long orders of ``betti`` in table
    format: -N at six times the default (capped at 1024) for g = 2..4, and
    -N 1024 at g = 64."""
    for genus in (2, 3, 4):
        for degree in (0, 1):
            default = default_truncation(genus, degree)
            for determinant in ("fixed", "nonfixed"):
                for subcommand in ("betti", "verify", "strata"):
                    for fmt in FORMATS:
                        argv = [
                            subcommand, "-g", str(genus), "-d", str(degree),
                            "--determinant", determinant, "-f", fmt,
                        ]
                        for truncate in ((), ("-N", "3"), ("-N", str(2 * default))):
                            yield argv + list(truncate)
    for genus in (8, 16):
        for degree in (0, 1):
            for determinant in ("fixed", "nonfixed"):
                for subcommand in ("betti", "verify"):
                    yield [
                        subcommand, "-g", str(genus), "-d", str(degree),
                        "--determinant", determinant, "-f", "table",
                    ]
    for genus in (2, 3, 4, 64):
        for degree in (0, 1):
            order = 1024 if genus == 64 else min(6 * default_truncation(genus, degree), 1024)
            for determinant in ("fixed", "nonfixed"):
                yield [
                    "betti", "-g", str(genus), "-d", str(degree),
                    "--determinant", determinant, "-f", "table", "-N", str(order),
                ]


def digest(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()[:16]]


def record():
    return {" ".join(argv): digest(argv) for argv in requests()}


def test_cli_output_matches_recorded_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = record()
    assert actual.keys() == expected.keys()
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"{len(changed)} CLI outputs changed, e.g. {changed[:3]}"


if __name__ == "__main__":
    # one request per line, so a re-recording diffs line by line
    lines = (f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in record().items())
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
