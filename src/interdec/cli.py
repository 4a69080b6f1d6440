"""Batch front door: check, decompose, interactions.

Exit codes: 0 verdict true / success, 1 verdict false, 2 input error,
3 size or enumeration cap exceeded, 4 internal contradiction (a proven
impossibility happened; that is a bug, not a data condition).

Output is a single JSON document, compact unless --pretty, written to
stdout or to --output.  Identical invocations produce identical bytes.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import click

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


@click.group()
@click.option(
    "--field",
    "field_flag",
    default=None,
    metavar="FIELD",
    help="Coefficient field: 'rational' or 'mod:p'. Overrides the file's field.",
)
@click.option("--pretty", is_flag=True, help="Indent the JSON output.")
@click.option(
    "--output",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    metavar="PATH",
    help="Write the output document to PATH instead of stdout.",
)
@click.pass_context
def main(ctx, field_flag, pretty, output):
    """Exact checks and decompositions for poset-indexed subspace arrangements."""
    ctx.obj = {"field_flag": field_flag, "pretty": pretty, "output": output}


def _emit(ctx, doc, code):
    text = dump_json(doc, pretty=ctx.obj["pretty"])
    path = ctx.obj["output"]
    if path is None:
        sys.stdout.write(text)
    else:
        _write(ctx, path, text)
    ctx.exit(code)


def _write(ctx, path, text):
    """Write an output file; an unwritable path is an input error, not a
    traceback whose exit code 1 would read as a false verdict."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(ctx, f"{path}: cannot write ({exc.strerror})", EXIT_INPUT)


def _fail(ctx, message, code):
    click.echo(f"error: {message}", err=True)
    ctx.exit(code)


@contextmanager
def _exit_codes(ctx):
    """Turn the library's errors into one `error:` line and their exit code."""
    try:
        yield
    except InputError as exc:
        _fail(ctx, exc, EXIT_INPUT)
    except (CapExceeded, SizeLimitExceeded) as exc:
        _fail(ctx, exc, EXIT_CAP)
    except InternalContradiction as exc:
        _fail(ctx, exc, EXIT_BUG)


def _field_override(ctx):
    flag = ctx.obj["field_flag"]
    return field_from_flag(flag) if flag else None


def _load_arrangement(ctx, path):
    return arrangement_from_doc(
        load_json(path), field_override=_field_override(ctx), location=path
    )


@main.command("check")
@click.argument("arrangement_file", metavar="ARRANGEMENT")
@click.option(
    "--property",
    "prop",
    type=click.Choice(["C", "I", "sI"]),
    required=True,
    help="Which intersection property to decide.",
)
@click.option(
    "--cap",
    type=click.IntRange(min=1),
    default=LOWER_SET_CAP,
    show_default=True,
    help="Abort if the poset has more lower sets than this.",
)
@click.pass_context
def check(ctx, arrangement_file, prop, cap):
    """Decide a property of an arrangement and report a witness on failure."""
    with _exit_codes(ctx):
        arrangement = _load_arrangement(ctx, arrangement_file)
        if prop == "C":
            report = check_condition_C(arrangement)
        elif prop == "I":
            report = check_intersection_bruteforce(arrangement, cap)
        else:
            report = check_strong_intersection(arrangement, cap)
        doc = report_to_doc(report, arrangement.field)
    _emit(ctx, doc, 0 if report.verdict else EXIT_FALSE)


@main.command("decompose")
@click.argument("arrangement_file", metavar="ARRANGEMENT")
@click.option("--seed", type=int, default=None, help="Randomize the section choice.")
@click.pass_context
def decompose_cmd(ctx, arrangement_file, seed):
    """Decompose an arrangement, or report the witness refuting condition C."""
    with _exit_codes(ctx):
        arrangement = _load_arrangement(ctx, arrangement_file)
        outcome = decompose(arrangement, seed=seed)
        if isinstance(outcome, Witness):
            doc = {
                "certified": False,
                "witness": witness_to_doc(outcome, arrangement.field),
            }
            code = EXIT_FALSE
        else:
            doc = decomposition_to_doc(outcome, arrangement.poset)
            code = 0
    _emit(ctx, doc, code)


@main.command("interactions")
@click.argument("model_file", metavar="MODEL")
@click.option(
    "--emit-bases", is_flag=True, help="Include component bases in the output."
)
@click.option(
    "--export-arrangement",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    metavar="PATH",
    help="Also write the factor arrangement as a checkable arrangement file.",
)
@click.pass_context
def interactions(ctx, model_file, emit_bases, export_arrangement):
    """Interaction dimensions of the factor arrangement of finite variables."""
    with _exit_codes(ctx):
        labels, cardinalities = model_from_doc(load_json(model_file), model_file)
        field = _field_override(ctx) or QQ
        product = build_product_space(labels, cardinalities)
        factor = build_factor_arrangement(product, field)
        dims = interaction_dimensions(factor)
        doc = model_to_doc(labels, cardinalities)
        doc["total_points"] = product.total_points
        doc["dimensions"] = dims
        if emit_bases:
            components = factor.decomposition().components
            doc["components"] = {
                lab: subspace_rows(components[lab])
                for lab in factor.arrangement.poset.labels
            }
        if export_arrangement is not None:
            text = dump_json(
                arrangement_to_doc(factor.arrangement), pretty=ctx.obj["pretty"]
            )
            _write(ctx, export_arrangement, text)
    _emit(ctx, doc, 0)


if __name__ == "__main__":
    main()
