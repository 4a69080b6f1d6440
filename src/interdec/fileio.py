"""JSON documents for posets, arrangements, models, reports, decompositions.

All documents are plain JSON.  Rational entries are integers or "p/q"
strings; entries over GF(p) are integers reduced mod p.  A poset document
lists elements and relation pairs [a, b] meaning a ≤ b; an arrangement
document embeds its poset and declares its field once.  The readers
check each JSON object and its keys, and the field and ambient dimension,
raising InputError with the offending location; every other value goes
to the library under the document's location, so build_poset checks the
labels and relations, ProductSpace the variables and new_arrangement the
spaces, as in a library call.
"""

from __future__ import annotations

import json

from .arrangements import new_arrangement
from .errors import InputError
from .interactions import ProductSpace
from .linalg import GF, QQ, _read_number
from .posets import build_poset


def load_json(path):
    """The JSON document in the file at path, read in one unbuffered read."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return json.loads(fh.read())
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except ValueError as exc:
        # JSONDecodeError, undecodable bytes, or an integer literal longer
        # than the interpreter converts (4,300 digits by default)
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise InputError(f"{path}: not valid JSON (nested too deeply)") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None


# json.dumps builds a new encoder whenever separators or indent is given
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_PRETTY = json.JSONEncoder(indent=2)


def dump_json(doc, pretty=False):
    """json.dumps's text of doc, compact or indented by two, and a newline."""
    return (_PRETTY if pretty else _COMPACT).encode(doc) + "\n"


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def field_from_doc(doc, location="field"):
    if doc == "rational":
        return QQ
    if isinstance(doc, dict) and set(doc) == {"mod"}:
        p = doc["mod"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise InputError(f"{location}: modulus must be an integer")
        return GF(p)
    raise InputError(f'{location}: expected "rational" or {{"mod": p}}')


def field_from_flag(text):
    """Parse the --field flag: 'rational' or 'mod:p'."""
    if text == "rational":
        return QQ
    if text.startswith("mod:"):
        try:
            p = _read_number(text[4:], int)
        except ValueError:
            raise InputError(f"--field: bad modulus in {text!r}") from None
        return GF(p)
    raise InputError(f"--field: expected 'rational' or 'mod:p', got {text!r}")


def field_to_doc(field):
    if field.kind == "rational":
        return "rational"
    return {"mod": field.p}


# ---------------------------------------------------------------------------
# posets
# ---------------------------------------------------------------------------

def poset_from_doc(doc, location="poset"):
    if not isinstance(doc, dict):
        raise InputError(f"{location}: expected an object")
    extra = set(doc) - {"elements", "relations"}
    if extra:
        raise InputError(f"{location}: unknown keys {sorted(extra)}")
    return build_poset(doc.get("elements"), doc.get("relations", []), location)


def poset_to_doc(poset):
    """Elements, and the cover pairs sorted by (lower, upper) element index."""
    labels = poset.labels
    relations = [[labels[i], labels[j]] for i, j in sorted(poset.covers())]
    return {"elements": list(labels), "relations": relations}


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

_ARRANGEMENT_KEYS = ("field", "ambient_dim", "poset", "spaces")


def arrangement_from_doc(doc, field_override=None, location="arrangement"):
    if not isinstance(doc, dict):
        raise InputError(f"{location}: expected an object")
    for key in _ARRANGEMENT_KEYS:
        if key not in doc:
            raise InputError(f"{location}: missing key {key!r}")
    extra = set(doc) - set(_ARRANGEMENT_KEYS)
    if extra:
        raise InputError(f"{location}: unknown keys {sorted(extra)}")
    field = field_override or field_from_doc(doc["field"], f"{location}.field")
    ambient = doc["ambient_dim"]
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 0:
        raise InputError(f"{location}.ambient_dim: expected a count")
    poset = poset_from_doc(doc["poset"], f"{location}.poset")
    return new_arrangement(poset, ambient, field, doc["spaces"], f"{location}.spaces")


def render_vector(field, vector):
    return [field.format(x) for x in vector]


def subspace_rows(space):
    """The canonical basis with pivots one, in document form, rendered from
    the stored kernel rows."""
    field = space.field
    return [
        field.format_row(row, row[pcol])
        for row, pcol in zip(space.exact_rows(), space.pivots)
    ]


def arrangement_to_doc(arrangement):
    return {
        "field": field_to_doc(arrangement.field),
        "ambient_dim": arrangement.ambient_dim,
        "poset": poset_to_doc(arrangement.poset),
        "spaces": {
            lab: subspace_rows(arrangement.spaces[lab])
            for lab in arrangement.poset.labels
        },
    }


# ---------------------------------------------------------------------------
# reports, witnesses, decompositions
# ---------------------------------------------------------------------------

def witness_to_doc(witness, field):
    location = witness.location
    if isinstance(location, tuple):
        location = [list(part) for part in location]
    return {"location": location, "vector": render_vector(field, witness.vector)}


def report_to_doc(report, field):
    return {
        "property": report.property,
        "verdict": report.verdict,
        "witness": witness_to_doc(report.witness, field) if report.witness else None,
        "work": dict(report.work),
    }


def decomposition_to_doc(decomposition, poset):
    return {
        "certified": decomposition.certified,
        "components": {
            lab: subspace_rows(decomposition.components[lab])
            for lab in poset.labels
        },
    }


# ---------------------------------------------------------------------------
# models (variables for factor arrangements)
# ---------------------------------------------------------------------------

def model_from_doc(doc, location="model"):
    """The ProductSpace of a model document's variables."""
    if not isinstance(doc, dict) or "variables" not in doc:
        raise InputError(f'{location}: expected an object with "variables"')
    extra = set(doc) - {"variables"}
    if extra:
        raise InputError(f"{location}: unknown keys {sorted(extra)}")
    variables = doc["variables"]
    if not isinstance(variables, list):
        raise InputError(f"{location}.variables: expected a list")
    for k, entry in enumerate(variables):
        where = f"{location}.variables[{k}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: expected an object")
        extra = set(entry) - {"label", "cardinality"}
        if extra:
            raise InputError(f"{where}: unknown keys {sorted(extra)}")
    return ProductSpace(
        [entry.get("label") for entry in variables],
        [entry.get("cardinality") for entry in variables],
        f"{location}.variables",
    )


def model_to_doc(labels, cardinalities):
    return {
        "variables": [
            {"label": lab, "cardinality": card}
            for lab, card in zip(labels, cardinalities)
        ]
    }
