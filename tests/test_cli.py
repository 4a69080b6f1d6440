"""Command-line front door: exit codes, documents, determinism, round trips."""

import argparse
import copy
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from interdec import arrangements, cli, fileio, interactions, linalg

from clirun import invoke
from parse_reference import outcome, reference_arrangement_from_doc

THREE_LINES = {
    "field": "rational",
    "ambient_dim": 2,
    "poset": {"elements": ["a1", "a2", "a3"], "relations": []},
    "spaces": {"a1": [[1, 0]], "a2": [[0, 1]], "a3": [[1, 1]]},
}

CONSTANT_CHAIN = {
    "field": "rational",
    "ambient_dim": 2,
    "poset": {"elements": ["x", "y", "z"], "relations": [["x", "y"], ["y", "z"]]},
    "spaces": {
        "x": [[1, 0], [0, 1]],
        "y": [[1, 0], [0, 1]],
        "z": [[1, 0], [0, 1]],
    },
}

MODEL_22 = {"variables": [{"label": "x1", "cardinality": 2},
                          {"label": "x2", "cardinality": 2}]}
MODEL_23 = {"variables": [{"label": "x1", "cardinality": 2},
                          {"label": "x2", "cardinality": 3}]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_c_failing(tmp_path):
    path = write(tmp_path, "tl.json", THREE_LINES)
    result = invoke(["check", path, "--property", "C"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["verdict"] is False
    assert doc["witness"] == {"location": "a1", "vector": [1, 0]}


def test_check_i_and_si(tmp_path):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    cc = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    for prop in ("I", "sI"):
        assert invoke(["check", tl, "--property", prop]).exit_code == 1
        result = invoke(["check", cc, "--property", prop])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] is True


def test_check_witness_pair(tmp_path):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    result = invoke(["check", tl, "--property", "I"])
    doc = json.loads(result.output)
    assert doc["property"] == "I-bruteforce"
    assert doc["witness"]["location"] == [["a1"], ["a2", "a3"]]


def test_check_input_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    result = invoke(["check", missing, "--property", "C"])
    assert result.exit_code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert invoke(["check", str(bad), "--property", "C"]).exit_code == 2

    broken = dict(THREE_LINES, poset={"elements": ["a1"], "relations": [["a1", "zz"]]})
    path = write(tmp_path, "broken.json", broken)
    result = invoke(["check", path, "--property", "C"])
    assert result.exit_code == 2

    not_monotone = {
        "field": "rational",
        "ambient_dim": 2,
        "poset": {"elements": ["u", "v"], "relations": [["u", "v"]]},
        "spaces": {"u": [[1, 0], [0, 1]], "v": [[1, 0]]},
    }
    path = write(tmp_path, "nm.json", not_monotone)
    assert invoke(["check", path, "--property", "C"]).exit_code == 2


def test_not_monotone_message_prints_document_vector(tmp_path):
    doc = {
        "field": "rational",
        "ambient_dim": 2,
        "poset": {"elements": ["u", "v"], "relations": [["u", "v"]]},
        "spaces": {"u": [[2, 1]], "v": [[1, 0]]},
    }
    path = write(tmp_path, "nm.json", doc)
    result = invoke(["check", path, "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: not monotone:")
    assert line.endswith('witness vector [1, "1/2"]')


def test_unwritable_output_paths_are_input_errors(tmp_path):
    cc = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    m22 = write(tmp_path, "m22.json", MODEL_22)
    missing = str(tmp_path / "no" / "dir" / "out.json")
    directory = str(tmp_path)
    for path, args in (
        (missing, ["--output", missing, "check", cc, "--property", "C"]),
        (missing, ["--output", missing, "interactions", m22]),
        (missing, ["interactions", m22, "--export-arrangement", missing]),
        (directory, ["--output", directory, "check", cc, "--property", "C"]),
        (directory, ["interactions", m22, "--export-arrangement", directory]),
    ):
        result = invoke(args)
        assert result.exit_code == 2, args
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: {path}: cannot write"), line


def test_existing_unwritable_output_is_refused_before_any_work(tmp_path, monkeypatch):
    # the scan would exit 3 at the cap; an output path that exists but
    # cannot be written is refused first, whatever the command would find
    anti = {
        "field": "rational",
        "ambient_dim": 1,
        "poset": {"elements": [f"a{i}" for i in range(8)], "relations": []},
        "spaces": {f"a{i}": [] for i in range(8)},
    }
    path = write(tmp_path, "anti.json", anti)
    capped = ["check", path, "--property", "I", "--cap", "2"]
    assert invoke(capped).exit_code == 3
    result = invoke(["--output", str(tmp_path)] + capped)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {tmp_path}: cannot write (Is a directory)"]
    # a file whose mode forbids writing; os.access is stubbed because the
    # superuser may write any file
    out = tmp_path / "out.json"
    out.write_text("kept")
    monkeypatch.setattr("os.access", lambda path, mode: False)
    result = invoke(["--output", str(out)] + capped)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {out}: cannot write (Permission denied)"]
    assert out.read_text() == "kept"


def test_rational_exponent_entry_is_input_error(tmp_path):
    doc = dict(THREE_LINES, spaces={"a1": [["1e1000000000", 0]], "a2": [[0, 1]],
                                    "a3": [[1, 1]]})
    path = write(tmp_path, "exp.json", doc)
    result = invoke(["check", path, "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and "not a rational entry" in line


@pytest.mark.parametrize(
    "entry", ["[" * 900 + "1" + "]" * 900, json.dumps("7" * 10_000)], ids=["deep", "long"]
)
def test_a_deep_or_long_entry_is_shown_short(tmp_path, entry):
    # the error quotes the entry cut to a fixed length, not in full
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(THREE_LINES).replace("[[1, 0]]", f"[[{entry}, 0]]"))
    result = invoke(["check", str(path), "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}.spaces.a1[0]: not a rational entry: ")
    assert len(line) < len(str(path)) + 100


def test_overlong_integer_literal_is_input_error(tmp_path):
    # json.load refuses integer literals over the interpreter's 4,300-digit
    # conversion limit with a plain ValueError
    path = tmp_path / "long.json"
    path.write_text(json.dumps(THREE_LINES).replace("[[1, 0]]", "[[" + "7" * 5000 + ", 0]]"))
    result = invoke(["check", str(path), "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: not valid JSON (")


def test_overlong_output_entry_is_size_limit(tmp_path):
    # the canonical basis of a plane spanned by rows of 3,000-digit entries
    # has entries past the interpreter's 4,300-digit integer-to-text limit
    rng = random.Random(5)
    rows = [[rng.randrange(10**2999, 10**3000) for _ in range(3)] for _ in range(2)]
    doc = {
        "field": "rational",
        "ambient_dim": 3,
        "poset": {"elements": ["a"], "relations": []},
        "spaces": {"a": rows},
    }
    path = write(tmp_path, "plane.json", doc)
    result = invoke(["decompose", path])
    assert result.exit_code == 3
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: an output entry has more than ")


def test_overlong_entry_of_a_pivot_one_row_is_size_limit(tmp_path):
    # the row (1/A, B, 0) is the kernel row (1, A·B, 0), whose pivot is one
    # and whose middle entry has 6,000 digits
    a, b = 10**2999 + 1, 7 * 10**2999
    doc = {
        "field": "rational",
        "ambient_dim": 3,
        "poset": {"elements": ["a"], "relations": []},
        "spaces": {"a": [[f"1/{a}", b, 0]]},
    }
    path = write(tmp_path, "line.json", doc)
    result = invoke(["decompose", path])
    assert result.exit_code == 3
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: an output entry has more than ")


def test_undecodable_bytes_are_input_error(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x00\x00garbage")
    result = invoke(["check", str(path), "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: not valid JSON (")


@pytest.mark.parametrize("depth", [990, 100_000])
@pytest.mark.parametrize("command", ["check", "interactions"])
def test_deeply_nested_json_is_input_error(tmp_path, command, depth):
    # json.load raises RecursionError past the interpreter's recursion
    # limit; nesting a row entry or a model's variable list 990 deep
    # already reaches it
    nested = "[" * depth + "1" + "]" * depth
    path = tmp_path / "deep.json"
    if command == "check":
        path.write_text(json.dumps(THREE_LINES).replace("[[1, 0]]", f"[[{nested}, 0]]"))
        argv = ["check", str(path), "--property", "C"]
    else:
        path.write_text('{"variables": ' + nested + "}")
        argv = ["interactions", str(path)]
    result = invoke(argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {path}: not valid JSON (nested too deeply)"]


def test_arrangement_unknown_top_level_key_is_input_error(tmp_path):
    path = write(tmp_path, "extra.json", dict(CONSTANT_CHAIN, extra=1))
    result = invoke(["check", path, "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {path}: unknown keys ['extra']"]


def test_check_cap(tmp_path):
    # an 8-element antichain has 256 lower sets
    anti = {
        "field": "rational",
        "ambient_dim": 1,
        "poset": {"elements": [f"a{i}" for i in range(8)], "relations": []},
        "spaces": {f"a{i}": [] for i in range(8)},
    }
    path = write(tmp_path, "anti.json", anti)
    result = invoke(["check", path, "--property", "I", "--cap", "100"])
    assert result.exit_code == 3
    assert invoke(["check", path, "--property", "I", "--cap", "256"]).exit_code == 0
    assert invoke(["check", path, "--property", "I", "--cap", "0"]).exit_code == 2


def test_scan_bug_exits_4_with_one_error_line(tmp_path, monkeypatch):
    # a certificate that fails on a decomposable arrangement
    monkeypatch.setattr(arrangements, "_certified_sections", lambda *args: None)
    path = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    messages = {
        "C": "the certificate failed but every element satisfies (C)",
        "I": "the certificate failed but no pair of lower sets fails",
        "sI": "the certificate failed but no pair of lower sets fails",
    }
    for prop, message in messages.items():
        result = invoke(["check", path, "--property", prop])
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]


def test_check_field_override(tmp_path):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    result = invoke(["--field", "mod:5", "check", tl, "--property", "C"])
    assert result.exit_code == 1
    assert invoke(["--field", "mod:6", "check", tl, "--property", "C"]).exit_code == 2


@pytest.mark.parametrize("spelling", [["--field", ""], ["--field="]])
def test_an_empty_field_is_refused_not_ignored(tmp_path, spelling):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    m22 = write(tmp_path, "m22.json", MODEL_22)
    for command in (["check", tl, "--property", "C"], ["interactions", m22]):
        result = invoke([*spelling, *command])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: --field: expected 'rational' or 'mod:p', got ''"
        ]


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_constant_chain(tmp_path):
    path = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    result = invoke(["decompose", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["certified"] is True
    assert doc["components"] == {"x": [[1, 0], [0, 1]], "y": [], "z": []}


def test_decompose_three_lines(tmp_path):
    path = write(tmp_path, "tl.json", THREE_LINES)
    result = invoke(["decompose", path])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["certified"] is False
    assert doc["witness"]["location"] == "a1"


def test_decompose_with_seed(tmp_path):
    path = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    a = invoke(["decompose", path, "--seed", "5"])
    b = invoke(["decompose", path, "--seed", "5"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    assert json.loads(a.output)["certified"] is True


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

def test_interactions_tables(tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    result = invoke(["interactions", m22])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["total_points"] == 4
    assert doc["dimensions"] == {"{}": 1, "{x1}": 1, "{x2}": 1, "{x1,x2}": 1}
    assert list(doc["dimensions"]) == ["{}", "{x1}", "{x2}", "{x1,x2}"]

    m23 = write(tmp_path, "m23.json", MODEL_23)
    doc = json.loads(invoke(["interactions", m23]).output)
    assert doc["dimensions"] == {"{}": 1, "{x1}": 1, "{x2}": 2, "{x1,x2}": 2}


def test_interactions_emit_bases(tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    doc = json.loads(invoke(["interactions", m22, "--emit-bases"]).output)
    assert set(doc["components"]) == {"{}", "{x1}", "{x2}", "{x1,x2}"}
    assert doc["components"]["{}"] == [[1, 1, 1, 1]]
    for name, dim in doc["dimensions"].items():
        assert len(doc["components"][name]) == dim


@pytest.mark.parametrize("flags", [[], ["--emit-bases", "--export-arrangement"]])
def test_interactions_eliminate_nothing(tmp_path, monkeypatch, flags):
    # the factor path is closed form: no row ever enters the kernel
    inserts = []
    original = linalg.IntEchelon.insert

    def counting(self, row):
        inserts.append(row)
        return original(self, row)

    monkeypatch.setattr(linalg.IntEchelon, "insert", counting)
    m23 = write(tmp_path, "m23.json", MODEL_23)
    if flags:
        flags = flags + [str(tmp_path / "export.json")]
    for field in ("rational", "mod:101"):
        result = invoke(["--field", field, "interactions", m23, *flags])
        assert result.exit_code == 0
    assert inserts == []


def test_interactions_bug_exits_4_with_one_error_line(tmp_path, monkeypatch):
    # a key rule that admits the last value of every variable
    monkeypatch.setattr(
        interactions, "_component_key", lambda point, tops: (tuple(range(len(point))), point)
    )
    m22 = write(tmp_path, "m22.json", MODEL_22)
    result = invoke(["interactions", m22, "--emit-bases"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: component dimension 0 at {} disagrees with the closed form 1"
    ]


def test_interactions_export_over_the_cell_cap_exits_3(tmp_path):
    # 65 · 65 rows of 4,096 entries, and 4,097 rows of 4,096: both over
    # POINT_LIMIT² = 16,777,216 entries
    for cards in ([64, 64], [4096]):
        model = {"variables": [{"label": f"x{i}", "cardinality": c}
                               for i, c in enumerate(cards)]}
        path = write(tmp_path, "big.json", model)
        exported = tmp_path / "export.json"
        result = invoke(["interactions", path, "--emit-bases",
                         "--export-arrangement", str(exported)])
        assert result.exit_code == 3
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: the factor arrangement has ")
        assert not exported.exists()


def test_interactions_size_limit(tmp_path):
    big = {"variables": [{"label": "a", "cardinality": 65},
                         {"label": "b", "cardinality": 64}]}
    path = write(tmp_path, "big.json", big)
    assert invoke(["interactions", path]).exit_code == 3

    boundary = {"variables": [{"label": "a", "cardinality": 64},
                              {"label": "b", "cardinality": 64}]}
    path = write(tmp_path, "boundary.json", boundary)
    # 4096 points exactly is allowed but the 4096-dim build is too slow to
    # run here, so only the refusal boundary is asserted
    bad_model = write(tmp_path, "badm.json", {"variables": "x"})
    assert invoke(["interactions", bad_model]).exit_code == 2


@pytest.mark.parametrize(
    "labels, cards, name",
    [
        (["a,b", "a", "b"], [1, 1, 1], "{a,b}"),
        (["a,b", "a", "b"], [2, 2, 2], "{a,b}"),
        (["", "a"], [1, 1], "{}"),
    ],
)
def test_interactions_rejects_colliding_subset_names(tmp_path, labels, cards, name):
    model = {"variables": [{"label": lab, "cardinality": c}
                           for lab, c in zip(labels, cards)]}
    path = write(tmp_path, "collide.json", model)
    result = invoke(["interactions", path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: duplicate element '{name}'"]


def test_interactions_unknown_model_key_is_input_error(tmp_path):
    path = write(tmp_path, "field.json", dict(MODEL_22, field={"mod": 3}))
    result = invoke(["interactions", path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {path}: unknown keys ['field']"]


def test_interactions_round_trip(tmp_path):
    m23 = write(tmp_path, "m23.json", MODEL_23)
    exported = str(tmp_path / "fa23.json")
    table = str(tmp_path / "table.json")
    result = invoke(
        ["--output", table, "interactions", m23, "--export-arrangement", exported]
    )
    assert result.exit_code == 0
    dims = json.loads(open(table).read())["dimensions"]

    check = invoke(["check", exported, "--property", "I"])
    assert check.exit_code == 0

    dec = invoke(["decompose", exported])
    assert dec.exit_code == 0
    components = json.loads(dec.output)["components"]
    assert {k: len(v) for k, v in components.items()} == dims
    assert sorted(dims.values()) == [1, 1, 2, 2]


def test_interactions_field_option(tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    result = invoke(["--field", "mod:3", "interactions", m22])
    assert result.exit_code == 0
    assert json.loads(result.output)["dimensions"]["{x1,x2}"] == 1


def test_interactions_over_a_large_prime_field(tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    result = invoke(["--field", "mod:2305843009213693951", "interactions", m22])
    assert result.exit_code == 0
    assert json.loads(result.output)["dimensions"]["{x1,x2}"] == 1
    # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
    result = invoke(["--field", "mod:3215031751", "interactions", m22])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["error: modulus must be prime, got 3215031751"]


# ---------------------------------------------------------------------------
# the command line itself
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "args",
    [
        ["check", "@tl", "--property", "X"],
        ["check", "@tl", "--property", "C", "--cap", "0"],
        ["check", "@tl", "--property", "C", "--cap", "x"],
        ["decompose", "@tl", "--seed", "x"],
        ["verify", "@tl"],
        ["check", "--property", "C"],
        ["decompose"],
        ["interactions"],
        ["check", "@tl", "--property", "C", "--pretty"],
        ["check", "@tl", "--prop", "C"],
        ["--pre", "decompose", "@tl"],
        ["-h"],
        [],
        ["--pretty"],
        ["check", "@tl"],
        ["check", "@tl", "@tl", "--property", "C"],
        ["check", "@tl", "--property"],
        ["decompose", "@tl", "--seed", "3", "--seed"],
        ["check", "@tl", "--property", "C", "--", "--cap"],
        ["interactions", "@m22", "--emit-bases=1"],
        ["--", "--pretty", "decompose", "@tl"],
        ["--", "-", "decompose", "@tl"],
        # "-5" names a file here, but reads as an unknown option
        ["check", "-5", "--property", "C"],
        ["decompose", "-1.5"],
    ],
    ids=lambda args: " ".join(args) or "no-arguments",
)
def test_usage_errors_exit_2_with_a_message(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    paths = {"@tl": write(tmp_path, "tl.json", THREE_LINES),
             "@m22": write(tmp_path, "m22.json", MODEL_22)}
    for name in ("-5", "-1.5"):
        write(tmp_path, name, THREE_LINES)
    result = invoke([paths.get(a, a) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr != ""


@pytest.mark.parametrize("args", [[], ["check"], ["decompose"], ["interactions"]])
def test_help_exits_0(args):
    result = invoke(args + ["--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(" ".join(["usage: interdec"] + args))
    assert result.stderr == ""


def test_command_line_word_rules(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "tl.json", THREE_LINES)
    expected = invoke(["check", "tl.json", "--property", "C"])
    assert expected.exit_code == 1
    for args in (
        ["--", "check", "tl.json", "--property", "C"],
        ["check", "tl.json", "--property", "C", "--"],
        ["check", "--property", "C", "--", "tl.json"],
        ["check", "tl.json", "--property=C"],
        ["--field=rational", "check", "tl.json", "--property", "C"],
        ["--field", "mod:2", "--field", "rational", "check", "tl.json", "--property", "C"],
        # only the last value of a repeated option is checked
        ["check", "tl.json", "--property", "X", "--property", "C"],
        ["check", "tl.json", "--cap", "0", "--property", "C", "--cap", "5"],
    ):
        assert invoke(args) == expected, args
    # an option takes the next word even when it starts with '-'
    result = invoke(["--output", "-x.json", "check", "tl.json", "--property", "C"])
    assert (result.exit_code, result.output) == (1, "")
    assert (tmp_path / "-x.json").read_text() == expected.stdout
    result = invoke(["--output", "--pretty", "check", "tl.json", "--property", "C"])
    assert (result.exit_code, result.output) == (1, "")
    assert (tmp_path / "--pretty").read_text() == expected.stdout
    assert invoke(["decompose", "tl.json", "--seed", "-3"]).exit_code == 1


def test_word_rules_know_every_option_that_takes_a_value():
    # an option missing from _TAKES_VALUE would again refuse values that
    # start with '-' and let argparse drop a value of '--'
    def options(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from options(sub)
            elif action.option_strings and action.nargs is None:
                yield from action.option_strings

    assert set(options(cli._PARSER)) == cli._TAKES_VALUE


def test_an_option_value_of_a_lone_double_dash_is_refused(tmp_path, monkeypatch):
    # argparse drops a value of exactly '--' and leaves an empty list, which
    # would reach the commands as a path, a field or a count
    monkeypatch.chdir(tmp_path)
    tl = write(tmp_path, "tl.json", THREE_LINES)
    m22 = write(tmp_path, "m22.json", MODEL_22)
    for args in (
        ["--output=--", "check", tl, "--property", "C"],
        ["--output", "--", "check", tl, "--property", "C"],
        ["--field", "--", "check", tl, "--property", "C"],
        ["check", tl, "--property", "C", "--cap=--"],
        ["decompose", tl, "--seed", "--"],
        ["interactions", m22, "--export-arrangement", "--"],
    ):
        result = invoke(args)
        assert result.exit_code == 2, args
        assert result.stdout == ""
        assert result.stderr != ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m22.json", "tl.json"]


# ---------------------------------------------------------------------------
# output discipline
# ---------------------------------------------------------------------------

def test_identical_invocations_are_byte_identical(tmp_path):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    outs = set()
    for _ in range(3):
        result = invoke(["check", tl, "--property", "sI"])
        outs.add(result.output)
    assert len(outs) == 1


def test_pretty_flag(tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    plain = invoke(["interactions", m22]).output
    pretty = invoke(["--pretty", "interactions", m22]).output
    assert json.loads(plain) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in plain


def test_output_file(tmp_path):
    cc = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    out = tmp_path / "report.json"
    result = invoke(["--output", str(out), "check", cc, "--property", "C"])
    assert result.exit_code == 0
    assert result.output == ""
    assert json.loads(out.read_text())["verdict"] is True


# ---------------------------------------------------------------------------
# fuzzing: mangled documents end in a documented exit, never a traceback
# ---------------------------------------------------------------------------

GF5_CHAIN = {
    "field": {"mod": 5},
    "ambient_dim": 3,
    "poset": {"elements": ["u", "v"], "relations": [["u", "v"]]},
    "spaces": {"u": [[1, 2, 0]], "v": [[1, 2, 0], [0, 0, 4]]},
}

KEYS = (
    "field", "ambient_dim", "poset", "spaces", "elements", "relations",
    "mod", "variables", "label", "cardinality", "a1", "x", "extra",
)

# json.dumps cannot write integers past the 4,300-digit conversion limit, so
# mangled() writes these placeholders as the literals they stand for
LONG_INTEGERS = {"<long-int>": "7" * 4301, "<long-negative-int>": "-" + "3" * 5000}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=6)
    | st.sampled_from([10**30, -(10**30), 2**61 - 1, 0.5])
    | st.sampled_from(sorted(LONG_INTEGERS))
    | st.sampled_from(["", "3/4", "1/0", "x", "a1", "rational", "mod:5"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _paths(value, prefix + (k,))


@st.composite
def mangled(draw, bases):
    """JSON text of a valid document with one to three random edits."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if not path:
            if action == "replace":
                doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(KEYS))] = draw(json_values)
        else:
            parent.insert(key, draw(json_values))
    text = json.dumps(doc)
    for placeholder, literal in LONG_INTEGERS.items():
        text = text.replace(json.dumps(placeholder), literal)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    return text


@settings(max_examples=300, deadline=None)
@given(mangled([THREE_LINES, CONSTANT_CHAIN, GF5_CHAIN]),
       st.sampled_from([None, linalg.QQ, linalg.GF(2), linalg.GF(7)]))
def test_mangled_documents_load_as_the_two_pass_reference(text, override):
    # equal spaces, or the same error first, as parsing every entry to a
    # field element before building any space
    try:
        doc = json.loads(text)
    except ValueError:
        reject()
    assert outcome(fileio.arrangement_from_doc, doc, override) == outcome(
        reference_arrangement_from_doc, doc, override
    )


FIELD_FLAGS = st.sampled_from([[], ["--field", "rational"], ["--field", "mod:2"],
                               ["--field", "mod:7"], ["--field", "mod:4"]])


@st.composite
def fuzz_invocations(draw):
    command = draw(st.sampled_from(["C", "I", "sI", "decompose", "seeded", "interactions"]))
    if command == "interactions":
        text = draw(mangled([MODEL_22, MODEL_23]))
        tail = ["interactions", draw(st.sampled_from(["--emit-bases", "--pretty"]))]
    else:
        text = draw(mangled([THREE_LINES, CONSTANT_CHAIN, GF5_CHAIN]))
        tail = {
            "decompose": ["decompose"],
            "seeded": ["decompose", "--seed", "3"],
        }.get(command, ["check", "--property", command])
    return text, draw(FIELD_FLAGS), tail


@settings(max_examples=300, deadline=None)
@given(fuzz_invocations())
def test_mangled_documents_exit_cleanly(invocation):
    text, flags, tail = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        if tail[-1] == "--pretty":
            args = flags + ["--pretty", tail[0], str(path)]
        else:
            args = flags + [tail[0], str(path)] + tail[1:]
        # any exception but SystemExit leaves invoke and fails the example
        result = invoke(args)
    assert result.exit_code in (0, 1, 2, 3), (result.exit_code, text)
    if result.exit_code in (0, 1):
        assert isinstance(json.loads(result.stdout), dict)
        assert result.stderr == ""
    else:
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: ")
        assert result.stdout == ""
