"""JSON document loaders and writers."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from interdec.arrangements import check_condition_C, decompose, new_arrangement
from interdec.errors import InputError, InterdecError
from interdec.fileio import (
    arrangement_from_doc,
    arrangement_to_doc,
    decomposition_to_doc,
    dump_json,
    field_from_doc,
    field_from_flag,
    field_to_doc,
    load_json,
    model_from_doc,
    model_to_doc,
    poset_from_doc,
    poset_to_doc,
    render_vector,
    report_to_doc,
    subspace_rows,
)
from interdec.interactions import ProductSpace
from interdec.linalg import GF, QQ, subspace_from_generators
from interdec.posets import build_poset

from mangle import mangled
from parse_reference import (
    outcome,
    reference_arrangement_from_doc,
    reference_model_from_doc,
    reference_poset_from_doc,
)
from randgen import random_monotone_arrangement, random_rows


def test_field_docs():
    assert field_from_doc("rational") is QQ
    assert field_from_doc({"mod": 5}) == GF(5)
    assert field_to_doc(QQ) == "rational"
    assert field_to_doc(GF(7)) == {"mod": 7}
    with pytest.raises(InputError):
        field_from_doc("real")
    with pytest.raises(InputError):
        field_from_doc({"mod": "5"})


def test_field_flag():
    assert field_from_flag("rational") is QQ
    assert field_from_flag("mod:3") == GF(3)
    with pytest.raises(InputError):
        field_from_flag("mod:x")
    with pytest.raises(InputError):
        field_from_flag("float")
    # int() alone would read these as 71, 7, 7 and 7
    for text in ("mod:7_1", "mod: 7", "mod:٧", "mod:7\n"):
        with pytest.raises(InputError, match="bad modulus"):
            field_from_flag(text)


def test_poset_doc_round_trip():
    doc = {
        "elements": ["e", "p", "q", "t"],
        "relations": [["e", "p"], ["e", "q"], ["p", "t"], ["q", "t"]],
    }
    poset = poset_from_doc(doc)
    assert poset.leq("e", "t")
    # serialization keeps only cover pairs, in element order
    assert poset_to_doc(poset) == doc

    chain = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assert poset_to_doc(chain)["relations"] == [["x", "y"], ["y", "z"]]


def test_poset_doc_validation():
    with pytest.raises(InputError, match="elements"):
        poset_from_doc({"elements": "abc"})
    with pytest.raises(InputError, match=r"relations\[0\]"):
        poset_from_doc({"elements": ["a"], "relations": [["a"]]})
    with pytest.raises(InputError, match="unknown keys"):
        poset_from_doc({"elements": [], "relations": [], "covers": []})


def test_arrangement_doc_round_trip():
    doc = {
        "field": "rational",
        "ambient_dim": 2,
        "poset": {"elements": ["u", "v"], "relations": [["u", "v"]]},
        "spaces": {"u": [["1/2", 0]], "v": [[1, 0], [0, 1]]},
    }
    arr = arrangement_from_doc(doc)
    assert arr.spaces["u"].basis == ((Fraction(1), Fraction(0)),)
    out = arrangement_to_doc(arr)
    assert json.loads(dump_json(out))["spaces"]["u"] == [[1, 0]]
    # the in-memory document reloads as written, tuple rows included
    assert arrangement_from_doc(out).spaces == arr.spaces
    assert arrangement_from_doc(json.loads(dump_json(out))).spaces == arr.spaces


def test_arrangement_doc_field_override():
    doc = {
        "field": "rational",
        "ambient_dim": 1,
        "poset": {"elements": ["a"], "relations": []},
        "spaces": {"a": [[3]]},
    }
    arr = arrangement_from_doc(doc, field_override=GF(2))
    assert arr.field == GF(2)
    assert arr.spaces["a"].basis == ((1,),)


def test_arrangement_doc_validation():
    base = {
        "field": "rational",
        "ambient_dim": 2,
        "poset": {"elements": ["a"], "relations": []},
        "spaces": {"a": [[1, 0]]},
    }
    for key in base:
        broken = {k: v for k, v in base.items() if k != key}
        with pytest.raises(InputError, match="missing key"):
            arrangement_from_doc(broken)
    with pytest.raises(InputError, match=r"spaces\.a\[0\]"):
        arrangement_from_doc({**base, "spaces": {"a": [[1]]}})
    with pytest.raises(InputError, match="no entry"):
        arrangement_from_doc({**base, "spaces": {}})
    with pytest.raises(InputError, match="unknown element"):
        arrangement_from_doc({**base, "spaces": {"a": [], "b": []}})
    with pytest.raises(InputError, match="not a rational entry"):
        arrangement_from_doc({**base, "spaces": {"a": [[1, "x"]]}})
    with pytest.raises(InputError, match=r"^arrangement: unknown keys \['extra'\]$"):
        arrangement_from_doc({**base, "extra": 1})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(7), GF(101)]), st.randoms(use_true_random=False),
       st.booleans())
def test_loading_matches_the_two_pass_reference(field, rng, raw):
    # randgen documents, as written or with random generator rows in place
    # of each space: non-canonical, with "p/q" strings over ℚ and
    # unreduced integers over GF(p), and often not monotone
    doc = arrangement_to_doc(random_monotone_arrangement(rng, field))
    if raw:
        for lab in doc["spaces"]:
            rows = random_rows(rng, doc["ambient_dim"], field, rng.randint(0, 3))
            if field is QQ:
                scale = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                rows = [render_vector(field, [scale * e for e in r]) for r in rows]
            else:
                rows = [[e + field.p * rng.randint(-3, 3) for e in r] for r in rows]
            doc["spaces"][lab] = rows
    loaded = outcome(arrangement_from_doc, doc)
    assert loaded == outcome(reference_arrangement_from_doc, doc)
    if not raw:
        # a written document is monotone by construction, so it must load
        assert loaded[0] == "ok"


def test_the_first_bad_entry_in_document_order_is_reported():
    poset = {"elements": ["a", "b"], "relations": []}
    cases = [
        ("rational", {"a": [[True, 0], [1]], "b": []}, "a[0]: not a rational entry: True"),
        ("rational", {"a": [[1], [True, 0]], "b": []}, "a[0]: expected a row of 2 entries"),
        ("rational", {"a": [[0, 1], [1, "1e3"]], "b": [[None, 0]]},
         "a[1]: not a rational entry: '1e3'"),
        # document order, not the poset's
        ("rational", {"b": [[0, "x"]], "a": [[1.5, 0]]}, "b[0]: not a rational entry: 'x'"),
        ("rational", {"b": [[0, 1]], "a": [[1, 0], ["1/2", [1]]]},
         "a[1]: not a rational entry: [1]"),
        ({"mod": 7}, {"b": [[8, "1/2"]], "a": [[1, 0]]}, "b[0]: not a mod-7 entry: '1/2'"),
    ]
    for field, spaces, message in cases:
        doc = {"field": field, "ambient_dim": 2, "poset": poset, "spaces": spaces}
        expected = ("InputError", f"arrangement.spaces.{message}")
        assert outcome(arrangement_from_doc, doc) == expected
        assert outcome(reference_arrangement_from_doc, doc) == expected


# entries: well-formed rows (most often), rows of mixed entries, and
# values that are not rows
WELL_FORMED_ROWS = st.sampled_from([[], [[1, 0]], [[2, "1/2"]], [(0, 1)], [[1, 0], [0, 1]]])
TABLE_ENTRIES = st.one_of(
    WELL_FORMED_ROWS,
    WELL_FORMED_ROWS,
    WELL_FORMED_ROWS,
    st.lists(st.lists(st.sampled_from([0, 1, -1, 8, "1/2", "x", True, None, 1.5]),
                      min_size=1, max_size=3), max_size=3),
    st.sampled_from([5, None, "rows", {"a": 1}, [5], [[1, 0], [1]], ([1, 0],)]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(7)]),
    st.booleans(),
    st.fixed_dictionaries({lab: TABLE_ENTRIES for lab in ("a", "b", "c", "ghost")}),
    st.sampled_from([{"ghost"}] * 4 + [set(), {"a", "ghost"}, {"c"}]),
    st.randoms(use_true_random=False),
)
def test_a_raw_table_loads_as_its_document(field, chain, table, dropped, rng):
    # new_arrangement on the table and arrangement_from_doc on the same
    # table in a document give equal spaces or the same error, whose
    # message differs only by the document's location prefix
    elements = ["a", "b", "c"]
    relations = [["a", "b"], ["b", "c"]] if chain else []
    items = [(lab, entry) for lab, entry in table.items() if lab not in dropped]
    rng.shuffle(items)
    table = dict(items)
    doc = {
        "field": field_to_doc(field),
        "ambient_dim": 2,
        "poset": {"elements": elements, "relations": relations},
        "spaces": table,
    }
    raw = outcome(new_arrangement, build_poset(elements, relations), 2, field, table)
    loaded = outcome(arrangement_from_doc, doc, None, "doc")
    if raw[0] == "ok" or not raw[1].startswith("spaces"):
        assert loaded == raw
    else:
        assert loaded == (raw[0], "doc." + raw[1])


def json_load_route(path):
    """load_json as it read a file through json.load, with its error mapping."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except ValueError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise InputError(f"{path}: not valid JSON (nested too deeply)") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_outcome(load, path):
    try:
        return "ok", load(path)
    except InputError as exc:
        return "InputError", str(exc)


@pytest.mark.parametrize("content, loads", [
    (None, False),
    ("directory", False),
    (b"\xff\xfe\x00\x00garbage", False),
    (b'{"field": "rational", "ambient_dim": 2, "poset": {"elements": ["a"', False),
    (b"[" * 100_000 + b"1" + b"]" * 100_000, False),
    (b"7" * 5000, False),
    (b'{"spaces": {"a": [["1/2", 3]]}, "n": 12345678901234567890}', True),
], ids=["missing", "directory", "invalid-utf8", "truncated", "deep", "long-int", "valid"])
def test_load_json_reads_as_json_load(tmp_path, content, loads):
    # one unbuffered read and json.loads give json.load's document, or the
    # message its route gave
    path = tmp_path / "doc.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    expected = load_outcome(json_load_route, str(path))
    assert load_outcome(load_json, str(path)) == expected
    assert (expected[0] == "ok") == loads


def test_render_vector():
    assert render_vector(QQ, (Fraction(1, 2), Fraction(3))) == ["1/2", 3]
    assert render_vector(GF(5), (7, 3)) == [2, 3]


@given(st.sampled_from([QQ, GF(2), GF(101)]), st.integers(min_value=0, max_value=4), st.data())
def test_subspace_rows_render_the_pivot_one_basis(field, ambient, data):
    # rows are written from the kernel integers; the bytes are those of
    # formatting each entry of the pivot-one basis
    if field is QQ:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        entry = st.integers(min_value=-300, max_value=300)
    rows = data.draw(st.lists(st.lists(entry, min_size=ambient, max_size=ambient), max_size=4))
    space = subspace_from_generators(ambient, rows, field)
    expected = [render_vector(field, row) for row in space.basis]
    assert json.dumps(subspace_rows(space)) == json.dumps(expected)


def test_report_and_decomposition_docs():
    poset = build_poset(["a1", "a2", "a3"], [])
    arr = new_arrangement(
        poset, 2, QQ, {"a1": [[1, 0]], "a2": [[0, 1]], "a3": [[1, 1]]}
    )
    report = check_condition_C(arr)
    doc = json.loads(dump_json(report_to_doc(report, arr.field)))
    assert doc["property"] == "C"
    assert doc["verdict"] is False
    assert doc["witness"] == {"location": "a1", "vector": [1, 0]}
    assert doc["work"]["pairs_checked"] == 1

    chain = build_poset(["x", "y"], [("x", "y")])
    carr = new_arrangement(chain, 1, QQ, {"x": [[1]], "y": [[1]]})
    dec = decompose(carr)
    ddoc = json.loads(dump_json(decomposition_to_doc(dec, chain)))
    assert ddoc == {"certified": True, "components": {"x": [[1]], "y": []}}


# the leaves of output documents: ints beyond 2**64, text with non-ASCII
# and control characters, None and booleans
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.text(st.characters(codec="utf-8"), max_size=8)
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_DOCS)
def test_dump_json_writes_what_json_dumps_writes(doc):
    # dump_json keeps one encoder per layout; its text is json.dumps's
    assert dump_json(doc) == json.dumps(doc, separators=(",", ":")) + "\n"
    assert dump_json(doc, pretty=True) == json.dumps(doc, indent=2) + "\n"


def test_model_docs():
    doc = {"variables": [{"label": "a", "cardinality": 2}]}
    product = model_from_doc(doc)
    assert (product.labels, product.cardinalities) == (("a",), (2,))
    assert model_to_doc(["a"], [2]) == doc
    with pytest.raises(
        InputError, match=r"^model\.variables\[0\]\.cardinality: expected an integer$"
    ):
        model_from_doc({"variables": [{"label": "a", "cardinality": "2"}]})
    with pytest.raises(InputError, match="variables"):
        model_from_doc({})
    with pytest.raises(InputError, match=r"^model: unknown keys \['field'\]$"):
        model_from_doc(dict(doc, field={"mod": 3}))
    with pytest.raises(
        InputError, match=r"^model\.variables\[0\]: unknown keys \['size'\]$"
    ):
        model_from_doc({"variables": [{"label": "a", "cardinality": 2, "size": 2}]})


# ---------------------------------------------------------------------------
# the readers check objects and keys; build_poset and ProductSpace the values
# ---------------------------------------------------------------------------

# "x" and "a1" are among mangle's sampled strings, so an edit can repeat a
# label, name an unknown one or close a cycle
POSET_DOCS = [
    {"elements": ["x", "y", "a1"], "relations": [["x", "y"], ["y", "a1"]]},
    {"elements": ["a1", "a2"]},
]
MODEL_DOCS = [
    {"variables": [{"label": "x", "cardinality": 2}, {"label": "a1", "cardinality": 3}]},
    {"variables": [{"label": "a2", "cardinality": 1}]},
]


# Whether a document passes the readers' object and key checks, or fails
# one that its reference makes first as well.
def poset_keys_pass(doc):
    return not isinstance(doc, dict) or set(doc) <= {"elements", "relations"}


def model_keys_pass(doc):
    variables = doc.get("variables") if isinstance(doc, dict) else None
    return not isinstance(variables, list) or all(
        isinstance(entry, dict) and set(entry) <= {"label", "cardinality"}
        for entry in variables
    )


def read(reader, doc, location):
    """A reader's poset or product space as plain values, or the type name
    and message of the documented error it raised."""
    try:
        value = reader(doc, location)
    except InterdecError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, ProductSpace):
        return "ok", value.labels, value.cardinalities, value.points
    return "ok", value.labels, value._up, value._down


def json_doc(text):
    try:
        return json.loads(text)
    except ValueError:
        reject()


READERS = {
    "poset": (POSET_DOCS, poset_keys_pass, poset_from_doc, reference_poset_from_doc),
    "model": (MODEL_DOCS, model_keys_pass, model_from_doc, reference_model_from_doc),
}


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), location=st.sampled_from(["doc", "m.json"]))
def test_documents_past_the_key_checks_read_as_the_value_checking_reference(
    kind, data, location
):
    # the same poset or product space, or the same error, as the readers
    # that checked each value themselves
    bases, keys_pass, reader, reference = READERS[kind]
    doc = json_doc(data.draw(mangled(bases)))
    assume(keys_pass(doc))
    assert read(reader, doc, location) == read(reference, doc, location)


def variables_doc(*pairs):
    return {"variables": [{"label": lab, "cardinality": card} for lab, card in pairs]}


@pytest.mark.parametrize("kind, doc", [
    ("poset", {"elements": ["x", "x"]}),
    ("poset", {"elements": ["x"], "relations": [["x", "y"]]}),
    ("poset", {"elements": ["x", "y"], "relations": [["x", "y"], ["y", "x"]]}),
    ("poset", {"elements": ["x", 1], "relations": [["x"]]}),
    ("poset", {"elements": ["x"], "relations": [["x", "x"], ["x", 2]]}),
    ("poset", {"elements": ["x"], "relations": {"x": "x"}}),
    ("poset", {"elements": ["x"], "relations": None}),
    ("poset", {"relations": []}),
    # several faults in values: the first in the references' order
    ("poset", {"elements": ["x", "x"], "relations": [["x", "y"]]}),
    ("poset", {"elements": ["x", "y"], "relations": [["x", "y"], ["y", "x"], ["x", "z"]]}),
    ("poset", {"elements": ["x", "x"], "relations": [["x"]]}),
    ("model", {"variables": [{"label": "x", "cardinality": 2}, {"label": "x"}]}),
    ("model", {"variables": [{"label": "x", "cardinality": 2}, {"cardinality": 2}]}),
    ("model", variables_doc(("x", 2), ("x", 2))),
    ("model", variables_doc(("x", 0))),
    ("model", variables_doc(("x", 2**61 - 1))),
    ("model", variables_doc(("x", False))),
    ("model", variables_doc(("x", 2.0))),
    ("model", variables_doc()),
    ("model", variables_doc(("x", 0), ("x", 2))),
    ("model", variables_doc(("x", 2), ("x", "2"))),
    ("model", variables_doc(("x", 0), (1, 2))),
    ("model", variables_doc(("x", 4097), ("y", 0))),
])
def test_each_value_fault_reads_as_the_value_checking_reference(kind, doc):
    _, _, reader, reference = READERS[kind]
    assert read(reader, doc, kind) == read(reference, doc, kind)


def unknown_keys(location, doc, known):
    extra = sorted(set(doc) - known)
    return f"^{re.escape(f'{location}: unknown keys {extra}')}$"


@settings(max_examples=200, deadline=None)
@given(mangled(POSET_DOCS), mangled(MODEL_DOCS), st.integers(min_value=0, max_value=3))
@example(
    '{"elements": 5, "relations": [1]}',
    '{"variables": [{"label": 1, "cardinality": "2"}, {"label": "a", "cardinality": 2}]}',
    1,
).via("documents whose value faults come before the place of the unknown key")
def test_an_unknown_key_is_reported_before_any_fault_in_a_value(poset_text, model_text, pick):
    # the readers check every object's keys before build_poset and
    # ProductSpace see a value
    poset_doc, model_doc = json_doc(poset_text), json_doc(model_text)
    if isinstance(poset_doc, dict):
        poset_doc["covers"] = []
        with pytest.raises(
            InputError, match=unknown_keys("poset", poset_doc, {"elements", "relations"})
        ):
            poset_from_doc(poset_doc)
    if not isinstance(model_doc, dict) or "variables" not in model_doc:
        return
    variables = model_doc["variables"]
    known = {"label", "cardinality"}
    if (
        set(model_doc) == {"variables"}
        and isinstance(variables, list)
        and variables
        and all(isinstance(entry, dict) for entry in variables)
    ):
        # the first entry with an unknown key, the one made here or before
        variables[pick % len(variables)]["size"] = 2
        k, entry = next((k, entry) for k, entry in enumerate(variables) if set(entry) - known)
        with pytest.raises(
            InputError, match=unknown_keys(f"model.variables[{k}]", entry, known)
        ):
            model_from_doc(model_doc)
    model_doc["field"] = "rational"
    with pytest.raises(InputError, match=unknown_keys("model", model_doc, {"variables"})):
        model_from_doc(model_doc)


def test_a_variable_that_is_not_an_object_is_refused():
    for entry in (2, ["x1", 2], None):
        doc = {"variables": [{"label": "x1", "cardinality": 2}, entry]}
        with pytest.raises(InputError, match=r"^m\.json\.variables\[1\]: expected an object$"):
            model_from_doc(doc, "m.json")
