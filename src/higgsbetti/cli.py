"""Command-line front end.

Subcommands: ``betti`` (coefficient table), ``verify`` (cross-route check
suite), ``strata`` (series of every stratum space).  Exit codes: 0 success,
1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .report import FORMATS, BettiReport, render
from .spaces import Determinant, bg_series
from .strata import ModuliSpec, default_truncation, max_stratum, moduli_series, stratum_space_series
from .verify import run_checks

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="higgsbetti", description=__doc__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("betti", "print the Betti coefficient table"),
        ("verify", "run the cross-route verification suite"),
        ("strata", "print the series of every stratum space"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("-g", "--genus", type=int, required=True, help="curve genus, >= 2")
        sub.add_argument(
            "-d", "--degree", type=int, choices=(0, 1), required=True, help="bundle degree"
        )
        sub.add_argument(
            "--determinant",
            choices=[det.value for det in Determinant],
            required=True,
            help="fixed or nonfixed determinant",
        )
        sub.add_argument(
            "-N",
            "--truncate",
            type=int,
            default=None,
            help="series truncation order (default depends on genus and degree)",
        )
        sub.add_argument("-f", "--format", choices=FORMATS, default="table")
        sub.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    return parser


def _route(spec: ModuliSpec) -> str:
    return "equivariant" if spec.degree == 0 else "moduli"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _main(argv)
    except SystemExit as exc:  # argparse exits; keep main() returning an int
        return exc.code if isinstance(exc.code, int) else 1


def _main(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    truncation = args.truncate
    if truncation is None:
        truncation = default_truncation(args.genus, args.degree)
    try:
        spec = ModuliSpec(args.genus, args.degree, Determinant(args.determinant), truncation)
    except ValueError as exc:
        parser.error(str(exc))

    code = 0
    if args.subcommand == "betti":
        report = BettiReport(spec, _route(spec), moduli_series(spec))
    elif args.subcommand == "verify":
        checks = tuple(run_checks(spec))
        report = BettiReport(spec, _route(spec), moduli_series(spec), checks=checks)
        code = 0 if all(c.passed for c in checks) else 2
    else:
        rows = [
            (str(d), stratum_space_series(spec, d)) for d in range(max_stratum(spec) + 1)
        ]
        rows.append(("bg", bg_series(spec.surface, spec.determinant, spec.truncation)))
        report = BettiReport(
            spec, "stratified", stratum_space_series(spec, 0), strata=tuple(rows)
        )
    text = render(report, args.format)
    if args.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        parser.error(f"cannot write {args.output}: {exc.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
