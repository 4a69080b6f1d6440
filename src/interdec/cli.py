"""Batch front door: check, decompose, interactions.

Exit codes: 0 verdict true / success, 1 verdict false, 2 input error,
3 size or enumeration cap exceeded, 4 internal contradiction (a proven
impossibility happened; that is a bug, not a data condition).  A usage
error (an unknown option or command, a missing or invalid argument) also
exits 2, with argparse's usage message on stderr.

Output is a single JSON document, compact unless --pretty, written to
stdout or to --output.  Identical invocations produce identical bytes.

The command line is parsed by the standard library's argparse, with one
parser built when the module is imported.  No parser abbreviates long
options, so `--prop` is an unknown option, not `--property`, and
`_canonical_words` first rewrites the words so that an option takes the
next word as its value even when that word starts with '-'.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from contextlib import contextmanager

from .arrangements import (
    Witness,
    check_condition_C,
    check_intersection_bruteforce,
    check_strong_intersection,
    decompose,
)
from .errors import (
    CapExceeded,
    InputError,
    InternalContradiction,
    SizeLimitExceeded,
)
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
    subspace_rows,
    witness_to_doc,
)
from .interactions import (
    build_factor_arrangement,
    build_product_space,
    interaction_dimensions,
)
from .linalg import QQ
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
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


@contextmanager
def _exit_codes():
    """Turn the library's errors into one `error:` line and their exit code."""
    try:
        yield
    except InputError as exc:
        _fail(exc, EXIT_INPUT)
    except (CapExceeded, SizeLimitExceeded) as exc:
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
    labels, cardinalities = model_from_doc(load_json(opts.model_file), opts.model_file)
    field = _field_override(opts) or QQ
    product = build_product_space(labels, cardinalities)
    factor = build_factor_arrangement(product, field)
    # an export over the size cap is refused before any row is built
    exported = factor.arrangement if opts.export_arrangement is not None else None
    doc = model_to_doc(labels, cardinalities)
    doc["total_points"] = product.total_points
    doc["dimensions"] = interaction_dimensions(factor)
    if opts.emit_bases:
        components = factor.decomposition().components
        doc["components"] = {
            lab: subspace_rows(components[lab]) for lab in factor.poset.labels
        }
    if exported is not None:
        text = dump_json(arrangement_to_doc(exported), pretty=opts.pretty)
        _write(opts.export_arrangement, text)
    return doc, 0


def _cap(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


_TAKES_VALUE = frozenset(
    ["--field", "--output", "--property", "--cap", "--seed", "--export-arrangement"]
)


def _canonical_words(args):
    """ARGS rewritten so that argparse reads them by this command line's
    word rules, which argparse alone does not follow:

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
                _PARSER.error(f"argument COMMAND: invalid choice: {word!r}")
        option, eq, value = word.partition("=")
        if option in _TAKES_VALUE:
            if not eq:
                value = next(rest, None)
            if value is not None:
                if (command, option) in latest:
                    words[latest[command, option]] = None
                latest[command, option] = len(words)
                word = f"{option}={value}"
        elif re.fullmatch(r"-\d+|-\d*\.\d+", word):
            _PARSER.error(f"unrecognized arguments: {word}")
        elif not word.startswith("-") or word == "-":
            command = True
        words.append(word)
    for k in latest.values():
        option, _, value = words[k].partition("=")
        if value == "--":
            _PARSER.error(f"argument {option}: '--' is not accepted as a value")
    return [word for word in words if word is not None]


def _parser():
    def with_help(parser):
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        return parser

    parser = with_help(argparse.ArgumentParser(
        prog="interdec",
        description=main.__doc__.partition("\n")[0],
        add_help=False,
        allow_abbrev=False,
    ))
    parser.add_argument(
        "--field",
        metavar="FIELD",
        help="Coefficient field: 'rational' or 'mod:p'. Overrides the file's field.",
    )
    parser.add_argument("--pretty", action="store_true", help="Indent the JSON output.")
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="Write the output document to PATH instead of stdout.",
    )
    commands = parser.add_subparsers(
        title="commands", dest="command", metavar="COMMAND", required=True
    )

    def command(name, run):
        sub = with_help(commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, add_help=False, allow_abbrev=False
        ))
        sub.set_defaults(run=run)
        return sub

    sub = command("check", check)
    sub.add_argument("arrangement_file", metavar="ARRANGEMENT")
    sub.add_argument(
        "--property",
        dest="prop",
        choices=("C", "I", "sI"),
        required=True,
        help="Which intersection property to decide.",
    )
    sub.add_argument(
        "--cap",
        type=_cap,
        default=LOWER_SET_CAP,
        metavar="N",
        help="Abort if the poset has more lower sets than this (default: %(default)s).",
    )

    sub = command("decompose", decompose_cmd)
    sub.add_argument("arrangement_file", metavar="ARRANGEMENT")
    sub.add_argument("--seed", type=int, help="Randomize the section choice.")

    sub = command("interactions", interactions)
    sub.add_argument("model_file", metavar="MODEL")
    sub.add_argument(
        "--emit-bases", action="store_true", help="Include component bases in the output."
    )
    sub.add_argument(
        "--export-arrangement",
        metavar="PATH",
        help="Also write the factor arrangement as a checkable arrangement file.",
    )
    return parser


def main(args=None, prog_name="interdec"):
    """Exact checks and decompositions for poset-indexed subspace arrangements.

    Runs the command line ARGS (default: the process's arguments) and ends
    with SystemExit carrying the exit code.  prog_name is accepted for
    callers written against an earlier calling convention; usage messages
    always name the program `interdec`.
    """
    opts = _PARSER.parse_args(_canonical_words(sys.argv[1:] if args is None else args))
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

_PARSER = _parser()

if __name__ == "__main__":
    main()
