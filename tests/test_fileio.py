"""JSON document loaders and writers."""

from fractions import Fraction

import pytest

from interdec.arrangements import check_condition_C, decompose, new_arrangement
from interdec.errors import InputError
from interdec.fileio import (
    arrangement_from_doc,
    arrangement_to_doc,
    decomposition_to_doc,
    field_from_doc,
    field_from_flag,
    field_to_doc,
    model_from_doc,
    model_to_doc,
    poset_from_doc,
    poset_to_doc,
    render_vector,
    report_to_doc,
)
from interdec.linalg import GF, QQ
from interdec.posets import build_poset


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
    assert out["spaces"]["u"] == [[1, 0]]
    again = arrangement_from_doc(out)
    assert again.spaces == arr.spaces


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


def test_render_vector():
    assert render_vector(QQ, (Fraction(1, 2), Fraction(3))) == ["1/2", 3]
    assert render_vector(GF(5), (7, 3)) == [2, 3]


def test_report_and_decomposition_docs():
    poset = build_poset(["a1", "a2", "a3"], [])
    arr = new_arrangement(
        poset, 2, QQ, {"a1": [[1, 0]], "a2": [[0, 1]], "a3": [[1, 1]]}
    )
    report = check_condition_C(arr)
    doc = report_to_doc(report, arr.field)
    assert doc["property"] == "C"
    assert doc["verdict"] is False
    assert doc["witness"] == {"location": "a1", "vector": [1, 0]}
    assert doc["work"]["pairs_checked"] == 1

    chain = build_poset(["x", "y"], [("x", "y")])
    carr = new_arrangement(chain, 1, QQ, {"x": [[1]], "y": [[1]]})
    dec = decompose(carr)
    ddoc = decomposition_to_doc(dec, chain)
    assert ddoc == {"certified": True, "components": {"x": [[1]], "y": []}}


def test_model_docs():
    doc = {"variables": [{"label": "a", "cardinality": 2}]}
    assert model_from_doc(doc) == (["a"], [2])
    assert model_to_doc(["a"], [2]) == doc
    with pytest.raises(InputError, match=r"variables\[0\]\.cardinality"):
        model_from_doc({"variables": [{"label": "a", "cardinality": "2"}]})
    with pytest.raises(InputError, match="variables"):
        model_from_doc({})
    with pytest.raises(InputError, match=r"^model: unknown keys \['field'\]$"):
        model_from_doc(dict(doc, field={"mod": 3}))
    with pytest.raises(
        InputError, match=r"^model\.variables\[0\]: unknown keys \['size'\]$"
    ):
        model_from_doc({"variables": [{"label": "a", "cardinality": 2, "size": 2}]})
