"""Mangled JSON documents: a valid document with a few random edits, the
fuzz input of the loader and command-line tests."""

import copy
import json

from hypothesis import strategies as st

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
