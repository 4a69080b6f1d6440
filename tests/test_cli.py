"""Command-line front door: exit codes, documents, determinism, round trips."""

import argparse
import io
import json
import random
import tempfile
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from interdec import arrangements, cli, errors, fileio, interactions, linalg

from clirun import invoke
from mangle import mangled
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


def test_numbers_in_documents_and_flags_keep_the_ascii_rule(tmp_path, monkeypatch):
    # int() and Fraction() alone also read '_' between digits, surrounding
    # whitespace and other scripts' digits; each such form is refused with
    # the message of a number refused for its form before
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "tl.json", THREE_LINES)
    refused = {}
    for k, entry in enumerate(["1_0", " 1/2 ", "\t2\n", "١/٢"]):
        doc = dict(THREE_LINES, spaces={**THREE_LINES["spaces"], "a1": [[entry, 0]]})
        write(tmp_path, f"e{k}.json", doc)
        refused["check", f"e{k}.json", "--property", "C"] = (
            f"error: e{k}.json.spaces.a1[0]: not a rational entry: {entry!r}"
        )
    for modulus in ("mod:7_1", "mod: 7", "mod:٧", "mod:14/2"):
        refused["--field", modulus, "check", "tl.json", "--property", "C"] = (
            f"error: --field: bad modulus in {modulus!r}"
        )
    for cap in ("1_0", "٣", "x", "4/2"):
        refused["check", "tl.json", "--property", "C", "--cap", cap] = (
            f"interdec check: error: argument --cap: expected an integer of at least 1, got {cap!r}"
        )
    for seed in (" 1_2 ", "x", "6/3"):
        refused["decompose", "tl.json", "--seed", seed] = (
            f"interdec decompose: error: argument --seed: invalid int value: {seed!r}"
        )
    for args, message in refused.items():
        result = invoke(args)
        assert (result.exit_code, result.stdout) == (2, ""), args
        assert result.stderr.splitlines()[-1] == message, args
    assert invoke(["decompose", "tl.json", "--seed", "+12"]).exit_code == 1


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


@pytest.mark.parametrize("command", ["check", "decompose", "interactions"])
def test_a_directory_as_input_is_input_error(tmp_path, command):
    # opening a directory raises an OSError that names no missing file
    argv = [command, str(tmp_path)] + (["--property", "C"] if command == "check" else [])
    result = invoke(argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {tmp_path}: ")


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


def test_every_command_reads_the_field_before_the_document(tmp_path):
    # each command reads --field right after the JSON parse, so a bad flag
    # is the fault reported first, before any fault of the document
    arr = write(tmp_path, "arr.json", dict(THREE_LINES, poset={"elements": ["a", "a"]}))
    model = write(tmp_path, "model.json", {"variables": [{"label": "x", "cardinality": 0}]})
    commands = (["check", arr, "--property", "C"], ["decompose", arr], ["interactions", model])
    for command in commands:
        assert invoke(command).exit_code == 2
        result = invoke(["--field", "mod:4", *command])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == ["error: modulus must be prime, got 4"]


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


CHECK_USAGE = "usage: interdec check [--help] --property {C,I,sI} [--cap N] ARRANGEMENT\n"


def test_help_and_usage_text_keep_the_tables_order():
    # the parser is built from the option tables, so their order, and the
    # argument's place before the options, is the order of this text
    assert invoke(["check", "--help"]).stdout == CHECK_USAGE + """
Decide a property of an arrangement and report a witness on failure.

positional arguments:
  ARRANGEMENT

options:
  --help               Show this message and exit.
  --property {C,I,sI}  Which intersection property to decide.
  --cap N              Abort if the poset has more lower sets than this
                       (default: 4096).
"""
    assert invoke(["check"]).stderr == CHECK_USAGE + (
        "interdec check: error: the following arguments are required: ARRANGEMENT, --property\n"
    )


@pytest.mark.parametrize(
    "args",
    [["--help"], ["check", "--help"], ["decompose", "--help"], ["interactions", "--help"],
     ["interactions"]],
    ids=" ".join,
)
def test_help_and_usage_text_ignore_the_terminal_width(monkeypatch, args):
    # argparse wraps to COLUMNS or the terminal; the CLI's text does not
    monkeypatch.delenv("COLUMNS", raising=False)
    unset = invoke(args)
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert invoke(args) == unset
    assert unset.output.startswith("usage: interdec")


@pytest.mark.parametrize(
    "error, code",
    [(errors.InputError, 2), (errors.CapExceeded, 3), (errors.InternalContradiction, 4)],
)
def test_each_error_class_has_one_exit_code_and_one_line(capsys, error, code):
    with pytest.raises(SystemExit) as ended, cli._exit_codes():
        raise error("the message")
    assert ended.value.code == code
    assert capsys.readouterr() == ("", "error: the message\n")


def test_a_control_character_in_a_path_or_label_stays_on_the_error_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    label = {
        "field": "rational",
        "ambient_dim": 2,
        "poset": {"elements": ["x\ny"], "relations": []},
        "spaces": {"x\ny": [[1]]},
    }
    bad = write(tmp_path, "badlabel.json", label)
    cc = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    for args, line in (
        (["check", "-5\n", "--property", "C"], "-5\\n: no such file"),
        (["check", bad, "--property", "C"],
         f"{bad}.spaces.x\\ny[0]: expected a row of 2 entries"),
        (["--output", "no/x\ny", "check", cc, "--property", "C"],
         "no/x\\ny: cannot write (No such file or directory)"),
        (["check", "\t\x1b[31m\x7f\x85\u2028", "--property", "C"],
         "\\t\\x1b[31m\\x7f\\x85\u2028: no such file"),
    ):
        result = invoke(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {line}\n"


def test_the_error_line_escapes_exactly_the_control_characters(capsys):
    # category Cc, and nothing else, prints as its repr escape; all 65 Cc
    # characters lie below U+3000
    assert sum(unicodedata.category(c) == "Cc" for c in map(chr, range(0x110000))) == 65
    text = "".join(map(chr, range(0x3000)))
    escaped = "".join(
        repr(c)[1:-1] if unicodedata.category(c) == "Cc" else c for c in text
    )
    with pytest.raises(SystemExit):
        cli._fail(text, 2)
    assert capsys.readouterr() == ("", f"error: {escaped}\n")


def test_a_lone_double_dash_leaves_the_command_missing():
    # '--' before the command makes the next word the command's name; with
    # no next word, the command is missing
    result = invoke(["--"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        "interdec: error: the following arguments are required: COMMAND"
    )


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
    # the parser is built from the reader's tables, so each level of it
    # names the same options; an option missing from _TAKES_VALUE would
    # again refuse values that start with '-' and let argparse drop a
    # value of '--'
    def levels(parser):
        yield parser, cli._TOP
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                assert list(action.choices) == list(cli._COMMANDS)
                for name, sub in action.choices.items():
                    yield sub, cli._COMMANDS[name][3]

    takes_value = set()
    for parser, table in levels(cli._parser()):
        options = [a for a in parser._actions if a.option_strings]
        assert {o for a in options for o in a.option_strings} == {"--help", *table}
        takes_value |= {o for a in options if a.nargs is None for o in a.option_strings}
    assert takes_value == cli._TAKES_VALUE


VALUE_WORDS = ["C", "I", "sI", "X", "3", "0", "-3", "x", "rational", "", "-x.json",
               "--", "-5", "-.5", "--help", "--pretty=", "a b"]
LONE_WORDS = ["check", "decompose", "interactions", "verify", "a.json", "-", "",
              "-x.json", "-a b", "--pretty", "--emit-bases", "--help", "--", "-5",
              "-.5", "-5\n", "--pretty=", "--emit-bases=1", "--help=x", "--help=a b",
              "--prop", "-h", "--foo=a b", *sorted(cli._TAKES_VALUE)]
OPTION_WORDS = st.tuples(
    st.sampled_from(sorted(cli._TAKES_VALUE)), st.sampled_from(VALUE_WORDS), st.booleans()
).map(lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])
WORDS = st.one_of(OPTION_WORDS, st.sampled_from(LONE_WORDS).map(lambda w: [w]))
TOP_WORDS = [("--pretty",), ("--pretty=",), ("--field", "-x"), ("--field=mod:7",),
             ("--output", "--pretty"), ("--output",)]
COMMAND_WORDS = {
    "check": [("--cap", "7"), ("--cap=-4",), ("--property", "I"), ("--property=X",),
              ("--property",)],
    "decompose": [("--seed", "-3"), ("--seed=5",), ("--seed", "x"), ("--seed",)],
    "interactions": [("--emit-bases",), ("--emit-bases=1",),
                     ("--export-arrangement", "-x.json"), ("--export-arrangement",)],
}
ARGUMENTS = ["a.json", "-", "", "-x.json", "-a b", "-5\n", "--help=a b", "--foo=a b"]


@st.composite
def command_lines(draw):
    """Lines of about the form the parser accepts: top options, a command,
    then its options, its argument and --property in any order, with the
    command, the argument or --property left out now and then, and up to
    two words of WORDS put in anywhere."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    needed = [(draw(st.sampled_from(ARGUMENTS)),), ("--property", "C")]
    needed = needed[: 2 if command == "check" else 1]
    line = draw(st.lists(st.sampled_from(TOP_WORDS), max_size=2))
    line += [(command,)] if draw(st.integers(0, 5)) else []
    line += draw(st.permutations(
        draw(st.lists(st.sampled_from(COMMAND_WORDS[command]), max_size=2))
        + draw(st.sampled_from([needed, needed[:-1]]))
    ))
    for _ in range(draw(st.integers(0, 2))):
        line.insert(draw(st.integers(0, len(line))), draw(WORDS))
    return [word for part in line for word in part]


@settings(max_examples=400)
@given(command_lines())
@example(["--pretty", "--field", "-x", "check", "-a b", "--property=sI", "--cap", "7"])
@example(["check", "--property", "C", "--", "--help"])
@example(["decompose", "--seed", "-3", "-5\n", "--seed=4"])
@example(["--pretty=", "decompose", "a.json"])
@example(["check", "--help=a b", "--property", "C"])
@example(["interactions", "a.json", "--export-arrangement"])
@example(["--output=--pretty", "interactions", "", "--emit-bases", "--emit-bases",
          "--export-arrangement", "-x.json"])
def test_the_one_pass_reads_every_line_as_argparse_does(args):
    # where argparse, on the same canonical words, accepts a line, the one
    # pass sets the same attributes to the same values; where it prints
    # help or a usage error, the one pass refuses the line
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            words = cli._canonical_words(args)
        except SystemExit:
            return
        try:
            expected = vars(cli._parser().parse_args(words))
        except SystemExit:
            expected = None
    read = cli._read_words(words)
    assert (read if read is None else vars(read)) == expected, words


def test_a_line_argparse_accepts_after_a_refusal_is_a_contradiction(tmp_path, monkeypatch):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    monkeypatch.setattr(cli, "_read_words", lambda words: None)
    result = invoke(["check", tl, "--property", "C"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.startswith("error: argparse accepts the refused command line [")
    assert result.stderr.count("\n") == 1


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
