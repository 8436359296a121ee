"""Command-line front end.

Subcommands: ``betti`` (coefficient table), ``verify`` (cross-route check
suite), ``strata`` (series of every stratum space).  Exit codes: 0 success,
1 usage error, 2 verification failure or internal error.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Callable, NamedTuple, Sequence

from .report import FORMATS, BettiReport, render
from .spaces import Determinant, bg_series
from .strata import (
    ModuliSpec,
    NegativeBettiError,
    default_truncation,
    max_stratum,
    moduli_series,
    stratum_space_series,
)
from .verify import run_checks

__all__ = ["main"]

# the CLI refuses larger inputs before computing anything; the library does not
MAX_GENUS = 64
MAX_TRUNCATION = 1024

PROG = "higgsbetti"
# the determinant by its value: a dict lookup, where Determinant(value) runs
# the Enum machinery in Python
_DETERMINANTS = {det._value_: det for det in Determinant}


class _Option(NamedTuple):
    """One command-line option: its flags, where its value goes, how the
    value is read and checked, and its help line."""

    flags: tuple[str, ...]
    dest: str
    help: str
    convert: Callable[[str], object] | None = None
    choices: tuple[object, ...] = ()
    required: bool = False
    default: object = None

    @property
    def name(self) -> str:
        return "/".join(self.flags)

    @property
    def metavar(self) -> str:
        if self.choices:
            return "{" + ",".join(map(str, self.choices)) + "}"
        return self.dest.upper()


_SUBCOMMANDS = {
    "betti": "print the Betti coefficient table",
    "verify": "run the cross-route verification suite",
    "strata": "print the series of every stratum space",
}
_OPTIONS = (
    _Option(("-g", "--genus"), "genus", "curve genus, >= 2", int, required=True),
    _Option(("-d", "--degree"), "degree", "bundle degree", int, (0, 1), required=True),
    _Option(
        ("--determinant",),
        "determinant",
        "fixed or nonfixed determinant",
        choices=tuple(_DETERMINANTS),
        required=True,
    ),
    _Option(
        ("-N", "--truncate"),
        "truncate",
        "series truncation order (default depends on genus and degree)",
        int,
    ),
    _Option(("-f", "--format"), "format", "", choices=FORMATS, default="table"),
    _Option(("-o", "--output"), "output", "write to a file instead of stdout"),
)
# -h is accepted before the subcommand and after it
_HELP = _Option(("-h", "--help"), "help", "show this help message and exit")
_TOP_FLAGS = {flag: _HELP for flag in _HELP.flags}
_SUB_FLAGS = {flag: opt for opt in (_HELP, *_OPTIONS) for flag in opt.flags}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _UsageError(Exception):
    """A bad command line: ``main`` prints the usage line and
    ``<prog>: error: <message>`` and returns 1."""

    def __init__(self, message: str, subcommand: str | None = None) -> None:
        super().__init__(message)
        self.subcommand = subcommand
        self.prog = PROG if subcommand is None else f"{PROG} {subcommand}"


def _choose(choices) -> str:
    return ", ".join(map(repr, choices))


def _usage(subcommand: str | None) -> str:
    if subcommand is None:
        return f"usage: {PROG} [-h] {{{','.join(_SUBCOMMANDS)}}} ...\n"
    parts = ["[-h]"]
    for opt in _OPTIONS:
        part = f"{opt.flags[0]} {opt.metavar}"
        parts.append(part if opt.required else f"[{part}]")
    return f"usage: {PROG} {subcommand} {' '.join(parts)}\n"


def _help(subcommand: str | None) -> str:
    def rows(pairs):
        width = max(len(left) for left, _ in pairs) + 2
        return "".join(f"  {left:<{width}}{text}".rstrip() + "\n" for left, text in pairs)

    options = [(", ".join(_HELP.flags), _HELP.help)]
    if subcommand is None:
        about = f"{(__doc__ or '').strip()}\n\nsubcommands:\n{rows(list(_SUBCOMMANDS.items()))}"
    else:
        about = f"{_SUBCOMMANDS[subcommand]}\n"
        options += [(f"{', '.join(opt.flags)} {opt.metavar}", opt.help) for opt in _OPTIONS]
    return f"{_usage(subcommand)}\n{about}\noptions:\n{rows(options)}"


def _option(arg: str, flags: dict[str, _Option], subcommand: str | None):
    """What ``arg`` is among ``flags``: ``None`` for a plain argument, else
    ``(option, flag, attached value or None)``, the option ``None`` when no
    flag matches.  Long flags match by unique prefix and take ``=value``;
    short flags take ``=value`` or a value glued on (``-g5``).  A negative
    number or a string with a space is a plain argument."""
    if not arg or arg[0] != "-":
        return None
    if arg in flags:
        return flags[arg], arg, None
    if len(arg) == 1:
        return None
    flag, eq, value = arg.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, value
    if arg[1] == "-":
        matches = [(opt, f, value if eq else None) for f, opt in flags.items() if f.startswith(flag)]
    else:
        matches = [
            (opt, f, arg[2:] if f == arg[:2] else None)
            for f, opt in flags.items()
            if f == arg[:2] or f.startswith(arg)
        ]
    if len(matches) > 1:
        names = ", ".join(f for _, f, _ in matches)
        raise _UsageError(f"ambiguous option: {arg} could match {names}", subcommand)
    if matches:
        return matches[0]
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, arg, None


def _kinds(args: list[str], flags: dict[str, _Option], subcommand: str | None) -> list:
    """``_option`` of each argument; the first ``--`` stays the marker
    ``"--"`` and every argument after it is plain.  Before the subcommand
    (``subcommand`` is ``None``) the list stops at the first plain
    argument, the subcommand itself: what follows it is read with the
    subcommand's flags."""
    kinds: list = []
    for k, arg in enumerate(args):
        if arg == "--":
            return kinds + ["--"] + [None] * (len(args) - k - 1)
        kind = _option(arg, flags, subcommand)
        kinds.append(kind)
        if kind is None and subcommand is None:
            break
    return kinds


def _convert(opt: _Option, text: str, subcommand: str) -> object:
    value: object = text
    if opt.convert is not None:
        try:
            value = opt.convert(text)
        except ValueError:
            raise _UsageError(
                f"argument {opt.name}: invalid {opt.convert.__name__} value: {text!r}", subcommand
            ) from None
    if opt.choices and value not in opt.choices:
        raise _UsageError(
            f"argument {opt.name}: invalid choice: {value!r} (choose from {_choose(opt.choices)})",
            subcommand,
        )
    return value


def _parse(argv: list[str]) -> dict[str, object] | None:
    """The option values of a command line, with ``subcommand``; ``None``
    after writing the help text.  Raises ``_UsageError``.

    This reads a command line the way the argparse front end before it did,
    errors and their order included: options before the subcommand are
    unrecognized, an option's value is the next plain argument, the last of
    a repeated option wins, and ``--`` makes every later argument plain
    (and unrecognized).
    """
    subcommand: str | None = None
    values: dict[str, object] = {opt.dest: opt.default for opt in _OPTIONS}
    extras = []
    flags = _TOP_FLAGS
    kinds = _kinds(argv, flags, None)
    help_pending = False
    i = 0
    while i < len(argv):
        kind = kinds[i]
        # the first plain argument is the subcommand, and so is a "--" that
        # has arguments after it
        if subcommand is None and (kind is None or kind == "--" and i + 1 < len(argv)):
            subcommand = argv[i]
            if subcommand not in _SUBCOMMANDS:
                raise _UsageError(
                    f"argument subcommand: invalid choice: {subcommand!r} "
                    f"(choose from {_choose(_SUBCOMMANDS)})"
                )
            flags = _SUB_FLAGS
            kinds[i + 1 :] = _kinds(argv[i + 1 :], flags, subcommand)
            i += 1
            continue
        if kind is None or kind == "--" or kind[0] is None:
            extras.append(argv[i])
            i += 1
            continue
        opt, flag, value = kind
        if opt is _HELP:
            glued = "-" + value[0] if value and flag[1] != "-" else None
            if glued in flags:  # -hg5 is -h -g5: help, once -g has its value
                help_pending = True
                kinds[i] = flags[glued], glued, value[1:] or None
                continue
            if value is not None:
                raise _UsageError(
                    f"argument {opt.name}: ignored explicit argument {value!r}", subcommand
                )
            help_pending = True
        elif value is None:
            if i + 1 == len(argv) or kinds[i + 1] is not None:
                raise _UsageError(f"argument {opt.name}: expected one argument", subcommand)
            i += 1
            value = argv[i]
        if help_pending:
            sys.stdout.write(_help(subcommand))
            return None
        values[opt.dest] = _convert(opt, value, subcommand)
        i += 1
    if subcommand is None:
        raise _UsageError("the following arguments are required: subcommand")
    # a required option has no default, and a given value is never None
    missing = [opt.name for opt in _OPTIONS if opt.required and values[opt.dest] is None]
    if missing:
        raise _UsageError(
            f"the following arguments are required: {', '.join(missing)}", subcommand
        )
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    values["subcommand"] = subcommand
    return values


def _route(spec: ModuliSpec) -> str:
    return "equivariant" if spec.degree == 0 else "moduli"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _main(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{_usage(exc.subcommand)}{exc.prog}: error: {exc}\n")
        return 1
    except NegativeBettiError as exc:  # a bug, not bad input: no traceback
        sys.stderr.write(f"higgsbetti: error: {exc}\n")
        return 2


def _main(argv: Sequence[str] | None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args is None:
        return 0
    genus, degree, truncation = args["genus"], args["degree"], args["truncate"]
    if genus > MAX_GENUS:
        raise _UsageError(f"genus must be at most {MAX_GENUS}")
    if truncation is not None and truncation > MAX_TRUNCATION:
        raise _UsageError(f"truncation must be at most {MAX_TRUNCATION}")

    if truncation is None:
        truncation = default_truncation(genus, degree)
    try:
        spec = ModuliSpec(genus, degree, _DETERMINANTS[args["determinant"]], truncation)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    code = 0
    if args["subcommand"] == "betti":
        report = BettiReport(spec, _route(spec), moduli_series(spec))
    elif args["subcommand"] == "verify":
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
    text = render(report, args["format"])
    output = args["output"]
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        if output is None:  # what stays buffered would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            output = "stdout"
        raise _UsageError(f"cannot write {output}: {exc.strerror}") from None
    return code


if __name__ == "__main__":
    sys.exit(main())
