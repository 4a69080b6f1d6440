"""JSON documents for posets, arrangements, models, reports, decompositions.

All documents are plain JSON.  Rational entries are integers or "p/q"
strings; entries over GF(p) are integers reduced mod p.  A poset document
lists elements and relation pairs [a, b] meaning a ≤ b; an arrangement
document embeds its poset and declares its field once.  Loaders validate
shape eagerly and raise InputError with the offending location in the
message.
"""

from __future__ import annotations

import json

from .arrangements import new_arrangement
from .errors import InputError
from .linalg import GF, QQ
from .posets import build_poset


def load_json(path):
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except ValueError as exc:
        # JSONDecodeError, undecodable bytes, or an integer literal longer
        # than the interpreter converts (4,300 digits by default)
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None


def dump_json(doc, pretty=False):
    if pretty:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps(doc, separators=(",", ":")) + "\n"


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
            p = int(text[4:])
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
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(
        isinstance(e, str) for e in elements
    ):
        raise InputError(f"{location}.elements: expected a list of strings")
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise InputError(f"{location}.relations: expected a list of pairs")
    pairs = []
    for k, rel in enumerate(relations):
        if (
            not isinstance(rel, list)
            or len(rel) != 2
            or not all(isinstance(x, str) for x in rel)
        ):
            raise InputError(
                f"{location}.relations[{k}]: expected a pair of element labels"
            )
        pairs.append((rel[0], rel[1]))
    extra = set(doc) - {"elements", "relations"}
    if extra:
        raise InputError(f"{location}: unknown keys {sorted(extra)}")
    return build_poset(elements, pairs)


def poset_to_doc(poset):
    """Elements, and the cover pairs sorted by (lower, upper) element index."""
    labels = poset.labels
    relations = [[labels[i], labels[j]] for i, j in sorted(poset.covers())]
    return {"elements": list(labels), "relations": relations}


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

def _parse_rows(rows, ambient_dim, field, location):
    if not isinstance(rows, list):
        raise InputError(f"{location}: expected a list of generator rows")
    parsed = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ambient_dim:
            raise InputError(
                f"{location}[{k}]: expected a row of {ambient_dim} entries"
            )
        try:
            parsed.append([field.parse(x) for x in row])
        except InputError as exc:
            raise InputError(f"{location}[{k}]: {exc}") from None
    return parsed


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
    spaces_doc = doc["spaces"]
    if not isinstance(spaces_doc, dict):
        raise InputError(f"{location}.spaces: expected an object")
    for lab in poset.labels:
        if lab not in spaces_doc:
            raise InputError(f"{location}.spaces: no entry for element {lab!r}")
    for lab in spaces_doc:
        if lab not in poset:
            raise InputError(f"{location}.spaces: unknown element {lab!r}")
    spaces = {
        lab: _parse_rows(rows, ambient, field, f"{location}.spaces.{lab}")
        for lab, rows in spaces_doc.items()
    }
    return new_arrangement(poset, ambient, field, spaces)


def render_vector(field, vector):
    return [field.format(x) for x in vector]


def subspace_rows(space):
    return [render_vector(space.field, row) for row in space.basis]


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
        rendered = [list(part) for part in location]
    else:
        rendered = location
    return {"location": rendered, "vector": render_vector(field, witness.vector)}


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
    if not isinstance(doc, dict) or "variables" not in doc:
        raise InputError(f'{location}: expected an object with "variables"')
    extra = set(doc) - {"variables"}
    if extra:
        raise InputError(f"{location}: unknown keys {sorted(extra)}")
    variables = doc["variables"]
    if not isinstance(variables, list):
        raise InputError(f"{location}.variables: expected a list")
    labels = []
    cardinalities = []
    for k, entry in enumerate(variables):
        where = f"{location}.variables[{k}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: expected an object")
        extra = set(entry) - {"label", "cardinality"}
        if extra:
            raise InputError(f"{where}: unknown keys {sorted(extra)}")
        lab = entry.get("label")
        card = entry.get("cardinality")
        if not isinstance(lab, str):
            raise InputError(f"{where}.label: expected a string")
        if not isinstance(card, int) or isinstance(card, bool):
            raise InputError(f"{where}.cardinality: expected an integer")
        labels.append(lab)
        cardinalities.append(card)
    return labels, cardinalities


def model_to_doc(labels, cardinalities):
    return {
        "variables": [
            {"label": lab, "cardinality": card}
            for lab, card in zip(labels, cardinalities)
        ]
    }
