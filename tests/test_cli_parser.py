"""The table-driven command-line parser against the argparse front end it
replaced.

``reference_parser`` is that front end, kept here as the oracle: it shares
no code with ``higgsbetti.cli``.  Both must accept the same command lines
with the same values and reject the same ones with the same last stderr
line.  The error pins were recorded with the argparse front end.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsbetti import cli


class _ReferenceParser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def reference_parser():
    parser = _ReferenceParser(prog="higgsbetti")
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
            choices=["fixed", "nonfixed"],
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
        sub.add_argument("-f", "--format", choices=("table", "json", "csv"), default="table")
        sub.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    return parser


def reference_outcome(argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            namespace = reference_parser().parse_args(argv)
    except SystemExit as exc:
        lines = err.getvalue().splitlines()
        return "exit", exc.code, lines[-1] if exc.code else None
    return "ok", vars(namespace)


def table_outcome(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            values = cli._parse(list(argv))
    except cli._UsageError as exc:
        return "exit", 1, f"{exc.prog}: error: {exc}"
    if values is None:  # help
        return "exit", 0, None
    return "ok", values


REQUIRED = ["-g", "3", "-d", "1", "--determinant", "fixed"]
PARITY_FORMS = [
    ["betti", "-g", "5", "-d", "0", "--determinant", "fixed"],
    ["betti", "-g5", "-d0", "--determinant", "fixed"],
    ["verify", "--genus", "5", "--degree", "0", "--determinant", "nonfixed"],
    ["verify", "--genus=5", "--degree=1", "--determinant=nonfixed", "--format=json"],
    ["strata", "--gen", "2", "--deg", "1", "--det", "fixed", "--trunc", "7", "--out", "x"],
    ["strata", "-g=4", "-d=0", "--det=fixed", "-N=9", "-f=csv", "-o=report.txt"],
    ["betti", "--determinant", "fixed", "-N", "12", "-d", "1", "-g", "2", "-f", "csv"],
    ["betti", *REQUIRED, "-g", "4", "-g", "6", "-f", "csv", "-f", "json"],
    ["betti", "-g", "-1", "-d", "0", "--determinant", "fixed", "-N", "-3"],
    ["betti", "-g", " 7", "-d", "-0", "--determinant", "fixed", "-N-2", "-o", "-1"],
    ["betti", "-o", "a b", "-o", "-.5", *REQUIRED],
]


@pytest.mark.parametrize("argv", PARITY_FORMS, ids=" ".join)
def test_flag_forms_parse_as_argparse_did(argv):
    outcome = table_outcome(argv)
    assert outcome[0] == "ok"
    assert outcome == reference_outcome(argv)


SUBCOMMANDS = ["betti", "verify", "strata"]
GARBAGE = ["nonsense", "bett", "Betti", "", "-x", "--bogus", "5", "-1", "--", "--d", "a b"]
# each option's flag forms, and values it accepts
OPTIONS = [
    (["-g", "--genus", "--gen", "--g"], ["2", "5", "64", "-1"]),
    (["-d", "--degree", "--deg"], ["0", "1", "-0"]),
    (["--determinant", "--det", "--determ"], ["fixed", "nonfixed"]),
    (["-N", "--truncate", "--trunc"], ["1", "30", "-3"]),
    (["-f", "--format", "--f"], ["table", "json", "csv"]),
    (["-o", "--output", "--out"], ["report.txt", "-1", "a b"]),
]
FLAGS = [flag for flags, _ in OPTIONS for flag in flags]
FLAGS += ["--d", "--de", "--determinantx", "-x", "--bogus", "--", "-"]
VALUES = [value for _, values in OPTIONS for value in values]
VALUES += ["65", "1025", "x", "", "1.5", "-.5", " 3", "3 ", "free", "xml", "-x", "--bogus", "-"]


def forms(flag, value):
    return st.sampled_from([[flag, value], [f"{flag}={value}"], [flag + value]])


def any_form(flags, values):
    return st.tuples(st.sampled_from(flags), st.sampled_from(values)).flatmap(lambda fv: forms(*fv))


# good: a known option with a value it accepts, in any form (-g 5, --genus=5,
# -g5); bad: any flag with any value, a flag with its value missing, a stray value
good = st.one_of([any_form(flags, values) for flags, values in OPTIONS])
bad = st.one_of(
    any_form(FLAGS, VALUES),
    st.sampled_from(FLAGS).map(lambda f: [f]),
    st.sampled_from(VALUES).map(lambda v: [v]),
)
required = st.permutations([["-g", "3"], ["-d", "1"], ["--determinant", "nonfixed"]])
command_line = st.tuples(
    st.one_of(st.just([]), st.lists(st.sampled_from(FLAGS).map(lambda f: [f]), max_size=2)),
    st.sampled_from(SUBCOMMANDS * 6 + GARBAGE).map(lambda s: [[s]]),
    st.one_of(required, st.just([])),
    st.lists(st.one_of(good, good, good, bad), max_size=4),
    st.booleans(),
).map(
    # tokens before the subcommand, the subcommand, then the required options
    # and more tokens, in either order
    lambda p: [a for group in (p[0], p[1], *((p[3], p[2]) if p[4] else (p[2], p[3])))
               for tok in group for a in tok]
)


@settings(max_examples=600, deadline=None)
@given(command_line)
def test_parser_agrees_with_argparse(argv):
    assert table_outcome(argv) == reference_outcome(argv), argv


# (argv, last stderr line), every one exit 1 with nothing on stdout
ERROR_PINS = [
    ([], "higgsbetti: error: the following arguments are required: subcommand"),
    (["nonsense"], "higgsbetti: error: argument subcommand: invalid choice: 'nonsense' (choose from 'betti', 'verify', 'strata')"),
    (["betti"], "higgsbetti betti: error: the following arguments are required: -g/--genus, -d/--degree, --determinant"),
    (["betti", "-d", "0", "--determinant", "fixed"], "higgsbetti betti: error: the following arguments are required: -g/--genus"),
    (["verify", "-g", "2", "--determinant", "fixed"], "higgsbetti verify: error: the following arguments are required: -d/--degree"),
    (["strata", "-g", "2", "-d", "0"], "higgsbetti strata: error: the following arguments are required: --determinant"),
    (["betti", "-g", "two", "-d", "0", "--determinant", "fixed"], "higgsbetti betti: error: argument -g/--genus: invalid int value: 'two'"),
    (["strata", "--genus=x", "-d", "0", "--determinant", "fixed"], "higgsbetti strata: error: argument -g/--genus: invalid int value: 'x'"),
    (["betti", "-g", "2", "-d", "2", "--determinant", "fixed"], "higgsbetti betti: error: argument -d/--degree: invalid choice: 2 (choose from 0, 1)"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "free"], "higgsbetti betti: error: argument --determinant: invalid choice: 'free' (choose from 'fixed', 'nonfixed')"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "-f", "xml"], "higgsbetti betti: error: argument -f/--format: invalid choice: 'xml' (choose from 'table', 'json', 'csv')"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "--colour"], "higgsbetti: error: unrecognized arguments: --colour"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "stray"], "higgsbetti: error: unrecognized arguments: stray"),
    (["verify", "-g", "2", "-d", "1", "--determinant", "fixed", "--", "-N", "5"], "higgsbetti: error: unrecognized arguments: -- -N 5"),
    (["betti", "-g", "2", "--d", "0", "--determinant", "fixed"], "higgsbetti betti: error: ambiguous option: --d could match --degree, --determinant"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "-N"], "higgsbetti betti: error: argument -N/--truncate: expected one argument"),
    (["betti", "-g", "2", "-d", "0", "--det"], "higgsbetti betti: error: argument --determinant: expected one argument"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "--truncate=x"], "higgsbetti betti: error: argument -N/--truncate: invalid int value: 'x'"),
    (["betti", "-g", "1", "-d", "0", "--determinant", "fixed"], "higgsbetti: error: genus must be at least 2"),
    (["betti", "-g", "-1", "-d", "0", "--determinant", "fixed"], "higgsbetti: error: genus must be at least 2"),
    (["verify", "-g", "65", "-d", "0", "--determinant", "nonfixed"], "higgsbetti: error: genus must be at most 64"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "-N", "0"], "higgsbetti: error: truncation must be at least 1"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "-N", "1025"], "higgsbetti: error: truncation must be at most 1024"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "-o", "{missing}"], "higgsbetti: error: cannot write {missing}: No such file or directory"),
]  # fmt: skip

# An attached "--" (-g--, --genus=--) is a literal value.  The argparse
# front end dropped it as an end-of-options marker and stored an empty
# list, which crashed with a traceback for -g, -N, -f and -o.
ATTACHED_MARKER_PINS = [
    (["betti", "--genus=--", "-d", "0", "--determinant", "fixed"], "higgsbetti betti: error: argument -g/--genus: invalid int value: '--'"),
    (["betti", "-g", "2", "-d--", "--determinant", "fixed"], "higgsbetti betti: error: argument -d/--degree: invalid int value: '--'"),
    (["betti", "-g", "2", "-d", "0", "--determinant=--"], "higgsbetti betti: error: argument --determinant: invalid choice: '--' (choose from 'fixed', 'nonfixed')"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "-N--"], "higgsbetti betti: error: argument -N/--truncate: invalid int value: '--'"),
    (["betti", "-g", "2", "-d", "0", "--determinant", "fixed", "-f--"], "higgsbetti betti: error: argument -f/--format: invalid choice: '--' (choose from 'table', 'json', 'csv')"),
]  # fmt: skip


@pytest.mark.parametrize("argv, last_line", ERROR_PINS + ATTACHED_MARKER_PINS)
def test_bad_command_line_exits_one_with_the_pinned_message(argv, last_line, tmp_path, capsys):
    missing = str(tmp_path / "missing" / "report.txt")
    argv = [a.format(missing=missing) for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.splitlines()[-1] == last_line.format(missing=missing)
    assert captured.err.startswith("usage: higgsbetti")
    assert "Traceback" not in captured.err


HELP_FORMS = [
    ["-h"], ["--he"], ["-h", "nonsense"], ["-x", "-h"], ["betti", "--hel"], ["betti", "-h", "-g", "x"],
    ["betti", "-hh"], ["betti", "-hg5"], ["betti", "-hgx"], ["betti", "-hg", "5"],
    ["betti", "-g", "x", "-h"], ["betti", "--d", "-h"], ["betti", "-hg"], ["betti", "-hg", "-x"],
    ["betti", "-hx"], ["betti", "-h="], ["-hx"], ["--help=1"], ["--=x"], ["betti", "--help="],
]  # fmt: skip


@pytest.mark.parametrize("argv", HELP_FORMS, ids=" ".join)
def test_help_forms_are_taken_or_refused_as_argparse_did(argv):
    assert table_outcome(argv) == reference_outcome(argv)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["betti", "-h"], ["strata", *REQUIRED, "--help"]])
def test_help_lists_every_subcommand_and_option(argv, capsys, monkeypatch):
    texts = []
    for columns in ("20", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        texts.append(captured.out)
    assert texts[0] == texts[1]  # no terminal-width dependence
    help_text = texts[0]
    reference = reference_parser()
    sub_help = reference._subparsers._group_actions[0]
    if argv[0].startswith("-"):
        for action in sub_help._choices_actions:
            assert f"{action.dest}  " in help_text and action.help in help_text
    else:
        for action in sub_help.choices[argv[0]]._actions:
            assert all(flag in help_text for flag in action.option_strings)
            assert (action.help or "") in help_text


def import_cli_in_subprocess(modules, *flags):
    # a subprocess: pytest itself has imported these modules here
    probe = f"import sys, higgsbetti.cli; print(sorted({set(modules)!r} & set(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *flags, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_importing_the_cli_loads_no_argparse():
    assert import_cli_in_subprocess({"argparse", "gettext"}).stdout == "[]\n"


def test_importing_the_cli_loads_no_dataclasses():
    # the records are NamedTuples; dataclasses would pull in inspect, ast,
    # dis and tokenize on every cold start
    result = import_cli_in_subprocess({"dataclasses", "inspect"}, "-X", "importtime")
    assert result.stdout == "[]\n"
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "higgsbetti.cli" in imported
    assert not imported & {"dataclasses", "inspect"}
