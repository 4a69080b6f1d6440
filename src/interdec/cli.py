"""Batch front door: check, decompose, interactions.

Exit codes: 0 verdict true / success, 1 verdict false, 2 input error,
3 size or enumeration cap exceeded, 4 internal contradiction (a proven
impossibility happened; that is a bug, not a data condition).  A usage
error (an unknown option or command, a missing or invalid argument) also
exits 2, with argparse's usage message on stderr.

Output is a single JSON document, compact unless --pretty, written to
stdout or to --output.  Identical invocations produce identical bytes.

The command line is read in one pass, `_read_words`, driven by one option
table per command (`_COMMANDS`, and `_TOP` for the options before the
command).  `_canonical_words` first rewrites the words so that an option
takes the next word as its value even when that word starts with '-'.
The pass accepts exactly the lines that the standard library's argparse
accepts, and sets the same attributes.  Only when it refuses a line is
argparse imported and its parser built from the same tables, so help and
usage errors are argparse's text.  No option is abbreviated, so `--prop`
is an unknown option, not `--property`.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from contextlib import contextmanager
from functools import cache
from types import SimpleNamespace

from .arrangements import (
    Witness,
    check_condition_C,
    check_intersection_bruteforce,
    check_strong_intersection,
    decompose,
)
from .errors import CapExceeded, InputError, InternalContradiction
from .fileio import (
    arrangement_from_doc,
    arrangement_to_doc,
    decomposition_to_doc,
    dump_json,
    field_from_flag,
    load_json,
    model_from_doc,
    model_to_doc,
    report_to_doc,
    witness_to_doc,
)
from .interactions import build_factor_arrangement, interaction_dimensions
from .linalg import QQ, _read_number
from .posets import LOWER_SET_CAP

EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_BUG = 4


def _write(path, text):
    """Write an output file; an unwritable path is an input error, not a
    traceback whose exit code 1 would read as a false verdict."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"{path}: cannot write ({exc.strerror})", EXIT_INPUT)


def _refuse_unwritable(path):
    """Refuse an output path that exists but cannot be written, before any
    work is done, so that the refusal is the outcome whatever the command
    would have found."""
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif os.path.exists(path) and not os.access(path, os.W_OK):
        reason = errno.EACCES
    else:
        return
    _fail(f"{path}: cannot write ({os.strerror(reason)})", EXIT_INPUT)


def _fail(message, code):
    # control characters (Unicode category Cc) print as their repr escapes,
    # so that a path or label holding one still makes one error line
    message = re.sub("[\x00-\x1f\x7f-\x9f]", lambda m: repr(m[0])[1:-1], str(message))
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


@contextmanager
def _exit_codes():
    """Turn the library's errors into one `error:` line and their exit code."""
    try:
        yield
    except InputError as exc:
        _fail(exc, EXIT_INPUT)
    except CapExceeded as exc:
        _fail(exc, EXIT_CAP)
    except InternalContradiction as exc:
        _fail(exc, EXIT_BUG)


def _field_override(opts):
    return field_from_flag(opts.field) if opts.field is not None else None


def _load_arrangement(opts):
    path = opts.arrangement_file
    return arrangement_from_doc(
        load_json(path), field_override=_field_override(opts), location=path
    )


def check(opts):
    """Decide a property of an arrangement and report a witness on failure."""
    arrangement = _load_arrangement(opts)
    if opts.prop == "C":
        report = check_condition_C(arrangement)
    elif opts.prop == "I":
        report = check_intersection_bruteforce(arrangement, opts.cap)
    else:
        report = check_strong_intersection(arrangement, opts.cap)
    return report_to_doc(report, arrangement.field), 0 if report.verdict else EXIT_FALSE


def decompose_cmd(opts):
    """Decompose an arrangement, or report the witness refuting condition C."""
    arrangement = _load_arrangement(opts)
    outcome = decompose(arrangement, seed=opts.seed)
    if isinstance(outcome, Witness):
        doc = {"certified": False, "witness": witness_to_doc(outcome, arrangement.field)}
        return doc, EXIT_FALSE
    return decomposition_to_doc(outcome, arrangement.poset), 0


def interactions(opts):
    """Interaction dimensions of the factor arrangement of finite variables."""
    # the flag is read after the JSON parse and before the model, as in check
    doc, field = load_json(opts.model_file), _field_override(opts) or QQ
    product = model_from_doc(doc, opts.model_file)
    factor = build_factor_arrangement(product, field)
    # an export over the size cap is refused before any row is built
    exported = factor.arrangement if opts.export_arrangement is not None else None
    doc = model_to_doc(product.labels, product.cardinalities)
    doc["total_points"] = product.total_points
    doc["dimensions"] = interaction_dimensions(factor)
    if opts.emit_bases:
        decomposition = decomposition_to_doc(factor.decomposition(), factor.poset)
        doc["components"] = decomposition["components"]
    if exported is not None:
        text = dump_json(arrangement_to_doc(exported), pretty=opts.pretty)
        _write(opts.export_arrangement, text)
    return doc, 0


def _cap(text):
    try:
        value = _read_number(text, int)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"expected an integer of at least 1, got {text!r}")
    return value


def _seed(text):
    try:
        return _read_number(text, int)
    except ValueError:
        # the words argparse uses for type=int
        raise ValueError(f"invalid int value: {text!r}") from None


# An option table maps each option to (dest, default, check, metavar, help).
# A flag's default is False.  A value option's check is None (any text), a
# function raising ValueError, or a tuple of choices, which also makes the
# option required.
_TOP = {
    "--field": ("field", None, None, "FIELD",
                "Coefficient field: 'rational' or 'mod:p'. Overrides the file's field."),
    "--pretty": ("pretty", False, None, None, "Indent the JSON output."),
    "--output": ("output", None, None, "PATH",
                 "Write the output document to PATH instead of stdout."),
}

# command -> (run, dest and metavar of its one argument, option table)
_COMMANDS = {
    "check": (check, "arrangement_file", "ARRANGEMENT", {
        "--property": ("prop", None, ("C", "I", "sI"), None,
                       "Which intersection property to decide."),
        "--cap": ("cap", LOWER_SET_CAP, _cap, "N",
                  "Abort if the poset has more lower sets than this (default: %(default)s)."),
    }),
    "decompose": (decompose_cmd, "arrangement_file", "ARRANGEMENT", {
        "--seed": ("seed", None, _seed, None, "Randomize the section choice."),
    }),
    "interactions": (interactions, "model_file", "MODEL", {
        "--emit-bases": ("emit_bases", False, None, None,
                         "Include component bases in the output."),
        "--export-arrangement": ("export_arrangement", None, None, "PATH", "Also write the "
                                 "factor arrangement as a checkable arrangement file."),
    }),
}

_TAKES_VALUE = frozenset(
    option
    for table in (_TOP, *(entry[3] for entry in _COMMANDS.values()))
    for option, spec in table.items()
    if spec[1] is not False
)

# argparse's test for a negative number; its `$` also matches before a
# final newline, so only .fullmatch is the word rule's test
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _canonical_words(args):
    """ARGS rewritten so that argparse, and the one pass of _read_words,
    read them by this command line's word rules, which argparse alone does
    not follow:

    - An option that takes a value takes the next word whatever it looks
      like; it is glued on as `--option=value`, since argparse refuses a
      value such as "-x.json".  Only the last value of a repeated option
      counts, and only that one is checked.  argparse drops a value of
      exactly '--' (leaving an empty list), so that one is refused.
    - A word such as "-5" is an unknown option, not an argument.
    - A '--' before the command makes the next word the command's name;
      after the command it makes every later word an argument, and as the
      last word it means nothing.
    """
    words = []
    latest = {}
    command = False
    rest = iter(args)
    for word in rest:
        if word == "--":
            if command:
                tail = list(rest)
                words += ["--", *tail] if tail else []
                break
            word = next(rest, None)
            if word is None:
                break
            if word.startswith("-"):
                _parser().error(f"argument COMMAND: invalid choice: {word!r}")
        option, eq, value = word.partition("=")
        if option in _TAKES_VALUE:
            if not eq:
                value = next(rest, None)
            if value is not None:
                if (command, option) in latest:
                    words[latest[command, option]] = None
                latest[command, option] = len(words)
                word = f"{option}={value}"
        elif _NEGATIVE.fullmatch(word):
            _parser().error(f"unrecognized arguments: {word}")
        elif not word.startswith("-") or word == "-":
            command = True
        words.append(word)
    for k in latest.values():
        option, _, value = words[k].partition("=")
        if value == "--":
            _parser().error(f"argument {option}: '--' is not accepted as a value")
    return [word for word in words if word is not None]


def _read_words(words):
    """The options argparse's parser reads from canonical WORDS, as a
    namespace with the same attributes, or None for a line on which that
    parser prints help or a usage error.

    Each word is classified as argparse classifies it: an option of the
    current table or --help, alone or as `--option=value`; else an
    argument when it does not start with '-', is '-', holds a space or
    reads as a negative number; else an unknown option.  The first
    argument names the command, whose table then replaces the top one.
    After the command a '--' makes every later word an argument, and the
    command takes exactly one argument.
    """
    options = _TOP
    opts = {spec[0]: spec[1] for spec in _TOP.values()}
    opts["command"] = None
    free = []
    rest = iter(words)
    for word in rest:
        option, eq, value = word.partition("=")
        known = option in options or option == "--help"
        if word == "--" and options is not _TOP:
            free += rest
            break
        elif not word.startswith("-") or word == "-" or not known and (
            " " in word or _NEGATIVE.match(word)
        ):
            if options is not _TOP:
                free.append(word)
            elif word in _COMMANDS:
                run, argument, _, options = _COMMANDS[word]
                opts.update(command=word, run=run)
                opts.update(spec[:2] for spec in options.values())
            else:
                return None
        elif option not in options:
            # an unknown option, or --help
            return None
        else:
            dest, default, check, _, _ = options[option]
            if default is False:
                if eq:
                    return None
                value = True
            elif not eq:
                return None
            elif isinstance(check, tuple):
                if value not in check:
                    return None
            elif check is not None:
                try:
                    value = check(value)
                except ValueError:
                    return None
            opts[dest] = value
    if options is _TOP or len(free) != 1 or any(
        isinstance(spec[2], tuple) and opts[spec[0]] is None for spec in options.values()
    ):
        return None
    opts[argument] = free[0]
    return SimpleNamespace(**opts)


@cache
def _parser():
    """argparse's parser for the option tables, built at the first line
    that _read_words refuses, to print help or a usage error.  Help and
    usage text are formatted at the width argparse takes without a
    terminal, so they do not follow COLUMNS or the terminal."""
    import argparse

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=78)

    def typed(check):
        def read(text):
            try:
                return check(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return read

    def with_options(parser, options, *argument):
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        if argument:
            # before the options: argparse names missing arguments in this order
            parser.add_argument(argument[0], metavar=argument[1])
        for option, (dest, default, check, metavar, text) in options.items():
            if default is False:
                parser.add_argument(option, action="store_true", help=text)
            elif isinstance(check, tuple):
                parser.add_argument(option, dest=dest, choices=check, required=True, help=text)
            else:
                parser.add_argument(option, dest=dest, default=default, metavar=metavar,
                                    type=check and typed(check), help=text)
        return parser

    parser = with_options(argparse.ArgumentParser(
        prog="interdec", description=main.__doc__.partition("\n")[0],
        formatter_class=formatter, add_help=False, allow_abbrev=False,
    ), _TOP)
    commands = parser.add_subparsers(
        title="commands", dest="command", metavar="COMMAND", required=True
    )
    for name, (run, dest, metavar, options) in _COMMANDS.items():
        sub = with_options(commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, formatter_class=formatter,
            add_help=False, allow_abbrev=False,
        ), options, dest, metavar)
        sub.set_defaults(run=run)
    return parser


def main(args=None, prog_name="interdec"):
    """Exact checks and decompositions for poset-indexed subspace arrangements.

    Runs the command line ARGS (default: the process's arguments) and ends
    with SystemExit carrying the exit code.  prog_name is accepted for
    callers written against an earlier calling convention; usage messages
    always name the program `interdec`.
    """
    words = _canonical_words(sys.argv[1:] if args is None else args)
    opts = _read_words(words)
    if opts is None:
        with _exit_codes():
            _parser().parse_args(words)
            raise InternalContradiction(f"argparse accepts the refused command line {words!r}")
    for path in (opts.output, getattr(opts, "export_arrangement", None)):
        if path is not None:
            _refuse_unwritable(path)
    with _exit_codes():
        doc, code = opts.run(opts)
    text = dump_json(doc, pretty=opts.pretty)
    if opts.output is None:
        sys.stdout.write(text)
    else:
        _write(opts.output, text)
    sys.exit(code)


# bench/passrun.py calls main.main(args=argv, prog_name="interdec"), the
# calling convention of the command object that main used to be
main.main = main

if __name__ == "__main__":
    main()
