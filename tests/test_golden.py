"""Golden command-line output: exit code, stdout, stderr and written files.

Each invocation below runs the CLI in process on a fixed document: seeded
`randgen` arrangements over ℚ, GF(2) and GF(7), factor models up to
six binary variables and two eight-valued ones, the
three-lines counterexample, eight independent lines (256 lower sets), a
chain whose canonical rows have pivots other than one, a poset listed
against its order, seven lines whose only failing lower set
is the last one scanned, a non-monotone document and a cap overflow.
`golden_cli.json` holds what each run printed, with the temporary directory
replaced by `<tmp>`, so any change to a verdict, witness, work count or
output byte fails here.  After an intended output change, re-record with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from interdec.cli import main
from interdec.fileio import arrangement_to_doc
from interdec.linalg import GF, QQ

from randgen import random_decomposable_arrangement, random_monotone_arrangement

EXPECTED = Path(__file__).with_name("golden_cli.json")

FIELDS = {"qq": QQ, "gf2": GF(2), "gf7": GF(7)}

THREE_LINES = {
    "field": "rational",
    "ambient_dim": 2,
    "poset": {"elements": ["a1", "a2", "a3"], "relations": []},
    "spaces": {"a1": [[1, 0]], "a2": [[0, 1]], "a3": [[1, 1]]},
}

NOT_MONOTONE = {
    "field": "rational",
    "ambient_dim": 3,
    "poset": {"elements": ["u", "v"], "relations": [["u", "v"]]},
    "spaces": {"u": [[2, 1, "1/3"]], "v": [[1, 0, 0], [0, 0, 1]]},
}

# eight independent lines on an antichain: 256 lower sets, (I) and (sI) hold
INDEPENDENT_LINES = {
    "field": "rational",
    "ambient_dim": 8,
    "poset": {"elements": [f"l{i}" for i in range(8)], "relations": []},
    "spaces": {f"l{i}": [[1 if j in (i, i + 1) else 0 for j in range(8)]]
               for i in range(8)},
}

# a chain p < q < t and p < r < t, plus a separate line s, listed against
# that order; the components e0..e4 are independent, so (I) and (sI) hold
AGAINST_ORDER = {
    "field": "rational",
    "ambient_dim": 5,
    "poset": {"elements": ["t", "s", "r", "q", "p"],
              "relations": [["p", "q"], ["p", "r"], ["q", "t"], ["r", "t"]]},
    "spaces": {"p": [[1, 0, 0, 0, 0]],
               "q": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]],
               "r": [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]],
               "t": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
               "s": [[0, 0, 0, 0, 1]]},
}

# six coordinate lines and the all-ones line on an antichain: the only
# lower set that breaks the valuation identity is the last one, all seven
LATE_FAILURE = {
    "field": "rational",
    "ambient_dim": 6,
    "poset": {"elements": [f"l{i}" for i in range(7)], "relations": []},
    "spaces": {**{f"l{i}": [[int(j == i) for j in range(6)]] for i in range(6)},
               "l6": [[1] * 6]},
}

# a chain p < q < r over ℚ whose canonical rows have pivots 2 and 3: a
# seeded section mixes the pivot-one rows they span, so mixing the integer
# rows unscaled would pick other sections
NON_UNIT_PIVOTS = {
    "field": "rational",
    "ambient_dim": 4,
    "poset": {"elements": ["p", "q", "r"], "relations": [["p", "q"], ["q", "r"]]},
    "spaces": {"p": [[2, -3, 0, 0]],
               "q": [[2, 0, 1, 0], [0, 3, 1, 0]],
               "r": [[2, 0, 1, 0], [0, 3, 1, 0], [0, 0, 0, 1]]},
}

MODELS = {
    "m23": {"variables": [{"label": "x", "cardinality": 2},
                          {"label": "y", "cardinality": 3}]},
    "m222": {"variables": [{"label": f"x{i}", "cardinality": 2}
                           for i in range(3)]},
    "m2x6": {"variables": [{"label": f"x{i}", "cardinality": 2}
                           for i in range(6)]},
    "m88": {"variables": [{"label": "x", "cardinality": 8},
                          {"label": "y", "cardinality": 8}]},
}


def documents():
    """Document name -> JSON document, all built from fixed seeds."""
    docs = {"three_lines": THREE_LINES, "not_monotone": NOT_MONOTONE,
            "independent_lines": INDEPENDENT_LINES, "against_order": AGAINST_ORDER,
            "late_failure": LATE_FAILURE, "non_unit_pivots": NON_UNIT_PIVOTS,
            **MODELS}
    for name, field in FIELDS.items():
        arrangement = random_monotone_arrangement(random.Random(23), field)
        docs[f"{name}_monotone"] = arrangement_to_doc(arrangement)
        arrangement, _ = random_decomposable_arrangement(random.Random(2), field)
        docs[f"{name}_planted"] = arrangement_to_doc(arrangement)
    return docs


def invocations():
    """(id, argument list); `@name` stands for the path of document `name`,
    `>name` for a file the run writes."""
    runs = []
    for name in FIELDS:
        for doc in (f"{name}_monotone", f"{name}_planted"):
            for prop in ("C", "I", "sI"):
                runs.append((f"{doc}-check-{prop}", ["check", f"@{doc}", "--property", prop]))
            runs.append((f"{doc}-decompose", ["decompose", f"@{doc}"]))
            runs.append((f"{doc}-decompose-seed", ["decompose", f"@{doc}", "--seed", "3"]))
    for model, field in (("m23", "rational"), ("m222", "mod:7")):
        runs.append((f"{model}-interactions", [
            "--field", field, "interactions", f"@{model}",
            "--emit-bases", "--export-arrangement", f">{model}_export",
        ]))
        runs.append((f"{model}-export-check-C", ["check", f"@{model}_export", "--property", "C"]))
        runs.append((f"{model}-export-decompose", ["decompose", f"@{model}_export"]))
        runs.append((f"{model}-export-decompose-seed",
                     ["decompose", f"@{model}_export", "--seed", "3"]))
    # larger factor models: 64 elements of dim up to 64, and 64-dim spaces
    # on four elements
    for name, model, field in (("m2x6", "m2x6", "rational"),
                               ("m2x6_gf101", "m2x6", "mod:101"),
                               ("m88", "m88", "rational")):
        runs.append((f"{name}-interactions", [
            "--field", field, "interactions", f"@{model}",
            "--emit-bases", "--export-arrangement", f">{name}_export",
        ]))
    runs.append(("m88-export-decompose", ["decompose", "@m88_export"]))
    for prop in ("C", "I", "sI"):
        runs.append((f"three_lines-check-{prop}", ["check", "@three_lines", "--property", prop]))
    runs.append(("three_lines-decompose", ["decompose", "@three_lines"]))
    runs.append(("non_unit_pivots-decompose-seed",
                 ["decompose", "@non_unit_pivots", "--seed", "3"]))
    for doc in ("independent_lines", "against_order", "late_failure"):
        for prop in ("I", "sI"):
            runs.append((f"{doc}-check-{prop}", ["check", f"@{doc}", "--property", prop]))
    runs.append(("not_monotone-check-C", ["check", "@not_monotone", "--property", "C"]))
    runs.append(("cap-overflow", ["check", "@qq_monotone", "--property", "I", "--cap", "2"]))
    return runs


def run_all(directory):
    """Run every invocation in order; id -> recorded outcome."""
    for name, doc in documents().items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    tmp = str(directory)
    runner = CliRunner()
    outcomes = {}
    for run_id, args in invocations():
        written = [a[1:] for a in args if a.startswith(">")]
        argv = [
            str(directory / f"{a[1:]}.json") if a[0] in "@>" else a
            for a in args
        ]
        result = runner.invoke(main, argv)
        outcomes[run_id] = {
            "exit": result.exit_code,
            "stdout": result.stdout.replace(tmp, "<tmp>"),
            "stderr": result.stderr.replace(tmp, "<tmp>"),
            "files": {
                name: (directory / f"{name}.json").read_text() for name in written
            },
        }
    return outcomes


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("run_id", [run_id for run_id, _ in invocations()])
def test_cli_output_matches_golden(run_id, outcomes, expected):
    assert outcomes[run_id] == expected[run_id]


def test_golden_file_covers_exactly_the_invocations(expected):
    assert sorted(expected) == sorted(run_id for run_id, _ in invocations())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = run_all(Path(scratch))
    EXPECTED.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(recorded)} invocations in {EXPECTED}", file=sys.stderr)
