"""Command-line front door: exit codes, documents, determinism, round trips."""

import copy
import json
import random
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from interdec import interactions
from interdec.arrangements import Witness
from interdec.cli import main

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


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_c_failing(runner, tmp_path):
    path = write(tmp_path, "tl.json", THREE_LINES)
    result = runner.invoke(main, ["check", path, "--property", "C"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["verdict"] is False
    assert doc["witness"] == {"location": "a1", "vector": [1, 0]}


def test_check_i_and_si(runner, tmp_path):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    cc = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    for prop in ("I", "sI"):
        assert runner.invoke(main, ["check", tl, "--property", prop]).exit_code == 1
        result = runner.invoke(main, ["check", cc, "--property", prop])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] is True


def test_check_witness_pair(runner, tmp_path):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    result = runner.invoke(main, ["check", tl, "--property", "I"])
    doc = json.loads(result.output)
    assert doc["property"] == "I-bruteforce"
    assert doc["witness"]["location"] == [["a1"], ["a2", "a3"]]


def test_check_input_errors(runner, tmp_path):
    missing = str(tmp_path / "nope.json")
    result = runner.invoke(main, ["check", missing, "--property", "C"])
    assert result.exit_code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert runner.invoke(main, ["check", str(bad), "--property", "C"]).exit_code == 2

    broken = dict(THREE_LINES, poset={"elements": ["a1"], "relations": [["a1", "zz"]]})
    path = write(tmp_path, "broken.json", broken)
    result = runner.invoke(main, ["check", path, "--property", "C"])
    assert result.exit_code == 2

    not_monotone = {
        "field": "rational",
        "ambient_dim": 2,
        "poset": {"elements": ["u", "v"], "relations": [["u", "v"]]},
        "spaces": {"u": [[1, 0], [0, 1]], "v": [[1, 0]]},
    }
    path = write(tmp_path, "nm.json", not_monotone)
    assert runner.invoke(main, ["check", path, "--property", "C"]).exit_code == 2


def test_not_monotone_message_prints_document_vector(runner, tmp_path):
    doc = {
        "field": "rational",
        "ambient_dim": 2,
        "poset": {"elements": ["u", "v"], "relations": [["u", "v"]]},
        "spaces": {"u": [[2, 1]], "v": [[1, 0]]},
    }
    path = write(tmp_path, "nm.json", doc)
    result = runner.invoke(main, ["check", path, "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: not monotone:")
    assert line.endswith('witness vector [1, "1/2"]')


def test_unwritable_output_paths_are_input_errors(runner, tmp_path):
    cc = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    m22 = write(tmp_path, "m22.json", MODEL_22)
    missing = str(tmp_path / "no" / "dir" / "out.json")
    for args in (
        ["--output", missing, "check", cc, "--property", "C"],
        ["--output", missing, "interactions", m22],
        ["interactions", m22, "--export-arrangement", missing],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: {missing}: cannot write"), line


def test_rational_exponent_entry_is_input_error(runner, tmp_path):
    doc = dict(THREE_LINES, spaces={"a1": [["1e1000000000", 0]], "a2": [[0, 1]],
                                    "a3": [[1, 1]]})
    path = write(tmp_path, "exp.json", doc)
    result = runner.invoke(main, ["check", path, "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and "not a rational entry" in line


def test_overlong_integer_literal_is_input_error(runner, tmp_path):
    # json.load refuses integer literals over the interpreter's 4,300-digit
    # conversion limit with a plain ValueError
    path = tmp_path / "long.json"
    path.write_text(json.dumps(THREE_LINES).replace("[[1, 0]]", "[[" + "7" * 5000 + ", 0]]"))
    result = runner.invoke(main, ["check", str(path), "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: not valid JSON (")


def test_overlong_output_entry_is_size_limit(runner, tmp_path):
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
    result = runner.invoke(main, ["decompose", path])
    assert result.exit_code == 3
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: an output entry has more than ")


def test_undecodable_bytes_are_input_error(runner, tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x00\x00garbage")
    result = runner.invoke(main, ["check", str(path), "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: not valid JSON (")


def test_arrangement_unknown_top_level_key_is_input_error(runner, tmp_path):
    path = write(tmp_path, "extra.json", dict(CONSTANT_CHAIN, extra=1))
    result = runner.invoke(main, ["check", path, "--property", "C"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {path}: unknown keys ['extra']"]


def test_check_cap(runner, tmp_path):
    # an 8-element antichain has 256 lower sets
    anti = {
        "field": "rational",
        "ambient_dim": 1,
        "poset": {"elements": [f"a{i}" for i in range(8)], "relations": []},
        "spaces": {f"a{i}": [] for i in range(8)},
    }
    path = write(tmp_path, "anti.json", anti)
    result = runner.invoke(main, ["check", path, "--property", "I", "--cap", "100"])
    assert result.exit_code == 3
    assert runner.invoke(
        main, ["check", path, "--property", "I", "--cap", "256"]
    ).exit_code == 0
    assert runner.invoke(
        main, ["check", path, "--property", "I", "--cap", "0"]
    ).exit_code == 2


def test_check_field_override(runner, tmp_path):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    result = runner.invoke(main, ["--field", "mod:5", "check", tl, "--property", "C"])
    assert result.exit_code == 1
    assert runner.invoke(
        main, ["--field", "mod:6", "check", tl, "--property", "C"]
    ).exit_code == 2


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_constant_chain(runner, tmp_path):
    path = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    result = runner.invoke(main, ["decompose", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["certified"] is True
    assert doc["components"] == {"x": [[1, 0], [0, 1]], "y": [], "z": []}


def test_decompose_three_lines(runner, tmp_path):
    path = write(tmp_path, "tl.json", THREE_LINES)
    result = runner.invoke(main, ["decompose", path])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["certified"] is False
    assert doc["witness"]["location"] == "a1"


def test_decompose_with_seed(runner, tmp_path):
    path = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    a = runner.invoke(main, ["decompose", path, "--seed", "5"])
    b = runner.invoke(main, ["decompose", path, "--seed", "5"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    assert json.loads(a.output)["certified"] is True


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

def test_interactions_tables(runner, tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    result = runner.invoke(main, ["interactions", m22])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["total_points"] == 4
    assert doc["dimensions"] == {"{}": 1, "{x1}": 1, "{x2}": 1, "{x1,x2}": 1}
    assert list(doc["dimensions"]) == ["{}", "{x1}", "{x2}", "{x1,x2}"]

    m23 = write(tmp_path, "m23.json", MODEL_23)
    doc = json.loads(runner.invoke(main, ["interactions", m23]).output)
    assert doc["dimensions"] == {"{}": 1, "{x1}": 1, "{x2}": 2, "{x1,x2}": 2}


def test_interactions_emit_bases(runner, tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    doc = json.loads(
        runner.invoke(main, ["interactions", m22, "--emit-bases"]).output
    )
    assert set(doc["components"]) == {"{}", "{x1}", "{x2}", "{x1,x2}"}
    assert doc["components"]["{}"] == [[1, 1, 1, 1]]
    for name, dim in doc["dimensions"].items():
        assert len(doc["components"][name]) == dim


def test_interactions_emit_bases_decomposes_once(runner, tmp_path, monkeypatch):
    calls = []
    original = interactions.decompose

    def counting(arrangement, seed=None):
        calls.append(seed)
        return original(arrangement, seed=seed)

    monkeypatch.setattr(interactions, "decompose", counting)
    monkeypatch.setattr("interdec.cli.decompose", counting)
    m23 = write(tmp_path, "m23.json", MODEL_23)
    result = runner.invoke(main, ["interactions", m23, "--emit-bases"])
    assert result.exit_code == 0
    assert calls == [None]


def test_interactions_bug_prints_the_witness_in_document_format(
    runner, tmp_path, monkeypatch
):
    def failing(arrangement, seed=None):
        space = arrangement.spaces["{x1}"]
        half = (Fraction(1, 2),) + (Fraction(0),) * (arrangement.ambient_dim - 1)
        return Witness("{x1}", half, space, space)

    monkeypatch.setattr(interactions, "decompose", failing)
    m22 = write(tmp_path, "m22.json", MODEL_22)
    result = runner.invoke(main, ["interactions", m22])
    assert result.exit_code == 4
    [line] = result.stderr.splitlines()
    assert line.startswith("error: a factor arrangement failed to decompose")
    assert "'{x1}'" in line and '["1/2", 0, 0, 0]' in line
    assert "Fraction(" not in line


def test_interactions_size_limit(runner, tmp_path):
    big = {"variables": [{"label": "a", "cardinality": 65},
                         {"label": "b", "cardinality": 64}]}
    path = write(tmp_path, "big.json", big)
    assert runner.invoke(main, ["interactions", path]).exit_code == 3

    boundary = {"variables": [{"label": "a", "cardinality": 64},
                              {"label": "b", "cardinality": 64}]}
    path = write(tmp_path, "boundary.json", boundary)
    # 4096 points exactly is allowed but the 4096-dim build is too slow to
    # run here, so only the refusal boundary is asserted
    bad_model = write(tmp_path, "badm.json", {"variables": "x"})
    assert runner.invoke(main, ["interactions", bad_model]).exit_code == 2


@pytest.mark.parametrize(
    "labels, cards, name",
    [
        (["a,b", "a", "b"], [1, 1, 1], "{a,b}"),
        (["a,b", "a", "b"], [2, 2, 2], "{a,b}"),
        (["", "a"], [1, 1], "{}"),
    ],
)
def test_interactions_rejects_colliding_subset_names(runner, tmp_path, labels, cards, name):
    model = {"variables": [{"label": lab, "cardinality": c}
                           for lab, c in zip(labels, cards)]}
    path = write(tmp_path, "collide.json", model)
    result = runner.invoke(main, ["interactions", path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: duplicate element '{name}'"]


def test_interactions_unknown_model_key_is_input_error(runner, tmp_path):
    path = write(tmp_path, "field.json", dict(MODEL_22, field={"mod": 3}))
    result = runner.invoke(main, ["interactions", path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {path}: unknown keys ['field']"]


def test_interactions_round_trip(runner, tmp_path):
    m23 = write(tmp_path, "m23.json", MODEL_23)
    exported = str(tmp_path / "fa23.json")
    table = str(tmp_path / "table.json")
    result = runner.invoke(
        main,
        ["--output", table, "interactions", m23, "--export-arrangement", exported],
    )
    assert result.exit_code == 0
    dims = json.loads(open(table).read())["dimensions"]

    check = runner.invoke(main, ["check", exported, "--property", "I"])
    assert check.exit_code == 0

    dec = runner.invoke(main, ["decompose", exported])
    assert dec.exit_code == 0
    components = json.loads(dec.output)["components"]
    assert {k: len(v) for k, v in components.items()} == dims
    assert sorted(dims.values()) == [1, 1, 2, 2]


def test_interactions_field_option(runner, tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    result = runner.invoke(main, ["--field", "mod:3", "interactions", m22])
    assert result.exit_code == 0
    assert json.loads(result.output)["dimensions"]["{x1,x2}"] == 1


def test_interactions_over_a_large_prime_field(runner, tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    result = runner.invoke(main, ["--field", "mod:2305843009213693951", "interactions", m22])
    assert result.exit_code == 0
    assert json.loads(result.output)["dimensions"]["{x1,x2}"] == 1
    # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
    result = runner.invoke(main, ["--field", "mod:3215031751", "interactions", m22])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["error: modulus must be prime, got 3215031751"]


# ---------------------------------------------------------------------------
# output discipline
# ---------------------------------------------------------------------------

def test_identical_invocations_are_byte_identical(runner, tmp_path):
    tl = write(tmp_path, "tl.json", THREE_LINES)
    outs = set()
    for _ in range(3):
        result = runner.invoke(main, ["check", tl, "--property", "sI"])
        outs.add(result.output)
    assert len(outs) == 1


def test_pretty_flag(runner, tmp_path):
    m22 = write(tmp_path, "m22.json", MODEL_22)
    plain = runner.invoke(main, ["interactions", m22]).output
    pretty = runner.invoke(main, ["--pretty", "interactions", m22]).output
    assert json.loads(plain) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in plain


def test_output_file(runner, tmp_path):
    cc = write(tmp_path, "cc.json", CONSTANT_CHAIN)
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["--output", str(out), "check", cc, "--property", "C"])
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
        result = CliRunner().invoke(main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise AssertionError(
            "".join(traceback.format_exception(*result.exc_info)) + f"\ninput: {text}"
        )
    assert result.exit_code in (0, 1, 2, 3), (result.exit_code, text)
    if result.exit_code in (0, 1):
        assert isinstance(json.loads(result.stdout), dict)
        assert result.stderr == ""
    else:
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: ")
        assert result.stdout == ""
