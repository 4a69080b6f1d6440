"""Answer checks that do not use interdec's own linear algebra.

Everything here is plain exact elimination over `fractions.Fraction` (the
rationals) or integers mod a prime, written for clarity rather than speed.
The checks only rely on the document formats and on facts that can be
established by an independent route: closed-form dimensions, planted
constructions, and re-checking every witness vector and every certified
decomposition from scratch.

Each `check_*` function returns None when the answer is right and a short
reason string when it is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import prod


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def parse_entry(value, p):
    """A document entry as a field element: Fraction over ℚ, int mod p over GF(p)."""
    if p is None:
        return Fraction(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not a mod-{p} entry: {value!r}")
    return value % p


def parse_rows(rows, p):
    return [[parse_entry(x, p) for x in row] for row in rows]


def rank(rows, p):
    """Rank of a list of rows over ℚ (p None) or GF(p), by Gaussian elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    width = len(work[0])
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        head = work[r]
        if p is None:
            inv = 1 / head[col]
        else:
            inv = pow(head[col], p - 2, p)
        for i in range(r + 1, len(work)):
            c = work[i][col]
            if c:
                f = c * inv
                row = work[i]
                if p is None:
                    work[i] = [x - f * y for x, y in zip(row, head)]
                else:
                    work[i] = [(x - f * y) % p for x, y in zip(row, head)]
        r += 1
        if r == len(work):
            break
    return r


def in_span(vector, rows, p):
    return rank(list(rows) + [vector], p) == rank(rows, p)


def same_span(a, b, p):
    ra = rank(a, p)
    return ra == rank(b, p) and rank(list(a) + list(b), p) == ra


# ---------------------------------------------------------------------------
# posets from documents
# ---------------------------------------------------------------------------

def down_closure(elements, relations):
    """label -> set of labels below or equal to it, from the (a, b) = a ≤ b pairs."""
    below = {e: {e} for e in elements}
    changed = True
    while changed:
        changed = False
        for a, b in relations:
            grown = below[b] | below[a]
            if grown != below[b]:
                below[b] = grown
                changed = True
    return below


class ArrangementDoc:
    """An arrangement document with its order closure and parsed spaces."""

    def __init__(self, doc):
        field = doc["field"]
        self.p = None if field == "rational" else field["mod"]
        self.dim = doc["ambient_dim"]
        self.elements = list(doc["poset"]["elements"])
        self.below = down_closure(self.elements, doc["poset"]["relations"])
        self.spaces = {e: parse_rows(doc["spaces"][e], self.p) for e in self.elements}

    def sum_rows(self, members):
        return [row for e in members for row in self.spaces[e]]

    def is_lower_set(self, members):
        members = set(members)
        return all(self.below[e] <= members for e in members)


# ---------------------------------------------------------------------------
# witnesses and decompositions of arrangement documents
# ---------------------------------------------------------------------------

def check_c_witness(arr, witness):
    """Witness of a failed condition C: v ∈ F(a) ∩ F(ǎ) and v ∉ F(â*)."""
    a = witness["location"]
    if a not in arr.below:
        return f"C witness at unknown element {a!r}"
    v = [parse_entry(x, arr.p) for x in witness["vector"]]
    if len(v) != arr.dim:
        return "C witness vector has the wrong length"
    cheek = [b for b in arr.elements if a not in arr.below[b]]
    strict = [b for b in arr.below[a] if b != a]
    if not in_span(v, arr.spaces[a], arr.p):
        return f"C witness vector is not in F({a})"
    if not in_span(v, arr.sum_rows(cheek), arr.p):
        return f"C witness vector is not in the cheek sum of {a}"
    if in_span(v, arr.sum_rows(strict), arr.p):
        return f"C witness vector lies in the strict downset sum of {a}"
    return None


def check_pair_witness(arr, witness):
    """Witness of a failed I / sI: v ∈ F(ℬ) ∩ F(𝒞) and v ∉ F(ℬ ∩ 𝒞)."""
    location = witness["location"]
    if not (isinstance(location, list) and len(location) == 2):
        return "pair witness location is not a pair of lower sets"
    first, second = (set(part) for part in location)
    for part in (first, second):
        if not part <= set(arr.elements) or not arr.is_lower_set(part):
            return f"pair witness names a set that is not a lower set: {sorted(part)}"
    v = [parse_entry(x, arr.p) for x in witness["vector"]]
    if len(v) != arr.dim:
        return "pair witness vector has the wrong length"
    if not in_span(v, arr.sum_rows(first), arr.p):
        return "pair witness vector is not in F(B)"
    if not in_span(v, arr.sum_rows(second), arr.p):
        return "pair witness vector is not in F(C)"
    if in_span(v, arr.sum_rows(first & second), arr.p):
        return "pair witness vector lies in F(B ∩ C)"
    return None


def check_decomposition(arr, components):
    """Certified components: direct overall sum, and Σ_{b≤a} s_b = F(a) for every a."""
    if set(components) != set(arr.elements):
        return "decomposition does not cover exactly the elements"
    comps = {e: parse_rows(rows, arr.p) for e, rows in components.items()}
    every = [row for rows in comps.values() for row in rows]
    if rank(every, arr.p) != len(every):
        return "components do not form a direct sum"
    for a in arr.elements:
        rebuilt = [row for b in arr.below[a] for row in comps[b]]
        if not same_span(rebuilt, arr.spaces[a], arr.p):
            return f"components below {a} do not rebuild F({a})"
    return None


def check_arrangement_answer(arr, command, code, out, planted=None):
    """One check / decompose answer on an arrangement document.

    command is "C", "I", "sI", "decompose" or "decompose-seeded".  planted,
    when given, maps every element to its planted component dimension: the
    document is decomposable with exactly those dimensions.
    """
    try:
        doc = json.loads(out)
    except ValueError:
        return f"{command}: stdout is not one JSON document (exit {code})"
    if command.startswith("decompose"):
        certified = doc.get("certified")
        if certified is True:
            if code != 0:
                return f"{command}: certified but exit {code}"
            problem = check_decomposition(arr, doc["components"])
            if problem:
                return f"{command}: {problem}"
            if planted is not None:
                got = {e: len(rows) for e, rows in doc["components"].items()}
                if got != planted:
                    return f"{command}: dimensions {got} differ from planted {planted}"
            return None
        if certified is False and code == 1:
            if planted is not None:
                return f"{command}: planted decomposable document was refused"
            return check_c_witness(arr, doc["witness"])
        return f"{command}: unexpected document or exit {code}"
    verdict = doc.get("verdict")
    expected_exit = {True: 0, False: 1}.get(verdict)
    if expected_exit is None or code != expected_exit:
        return f"check {command}: verdict {verdict!r} with exit {code}"
    if verdict:
        if doc.get("witness") is not None:
            return f"check {command}: holds but carries a witness"
        return None
    if planted is not None:
        return f"check {command}: fails on a planted decomposable document"
    if command == "C":
        return check_c_witness(arr, doc["witness"])
    return check_pair_witness(arr, doc["witness"])


def verdict_of(command, out):
    """True/False for the property or decomposability an answer reports."""
    doc = json.loads(out)
    if command.startswith("decompose"):
        return doc["certified"]
    return doc["verdict"]


# ---------------------------------------------------------------------------
# factor-space models
# ---------------------------------------------------------------------------

def subset_label(members):
    return "{" + ",".join(sorted(members)) + "}"


def all_subsets(labels):
    return [c for k in range(len(labels) + 1) for c in combinations(labels, k)]


def interaction_dim(cards, members):
    """The closed form dim s_a = Π_{i ∈ a} (|E_i| − 1)."""
    return prod(cards[i] - 1 for i in members)


def _points(cards):
    """Mixed-radix point enumeration, first variable most significant."""
    points = [()]
    for c in cards:
        points = [pt + (v,) for pt in points for v in range(c)]
    return points


def depends_only_on(row, points, coords):
    """True iff the function row on the points is constant along every fibre of coords."""
    seen = {}
    for value, pt in zip(row, points):
        key = tuple(pt[i] for i in coords)
        if seen.setdefault(key, value) != value:
            return False
    return True


def check_factor_rows(labels, cards, p, table, dims_of):
    """Rows per subset label: each subset's rows depend only on its variables,
    their counts follow dims_of, and (for components) all rows together are
    independent.  Returns (problem, all rows)."""
    points = _points(cards)
    index = {lab: i for i, lab in enumerate(labels)}
    expected = {subset_label(s): s for s in all_subsets(labels)}
    if set(table) != set(expected):
        return "subset labels differ from the powerset of the variables", []
    every = []
    for name, members in expected.items():
        rows = parse_rows(table[name], p)
        coords = sorted(index[m] for m in members)
        if len(rows) != dims_of([index[m] for m in members]):
            return f"{name} has {len(rows)} rows, expected {dims_of(coords)}", []
        for row in rows:
            if len(row) != len(points) or not depends_only_on(row, points, coords):
                return f"a row at {name} depends on variables outside {name}", []
        every.extend(rows)
    return None, every


def check_components(labels, cards, p, table):
    """Interaction components: right closed-form dims, each s_a inside F(a),
    and a direct sum.  By counting, Σ_{b⊆a} s_b then equals F(a)."""
    problem, every = check_factor_rows(
        labels, cards, p, table, lambda idx: interaction_dim(cards, idx)
    )
    if problem:
        return problem
    if rank(every, p) != len(every):
        return "interaction components do not form a direct sum"
    return None


def check_interactions_answer(labels, cards, p, code, out, emit_bases):
    if code != 0:
        return f"interactions: exit {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "interactions: stdout is not one JSON document"
    model = [{"label": lab, "cardinality": c} for lab, c in zip(labels, cards)]
    if doc.get("variables") != model:
        return "interactions: the echoed model differs from the input"
    if doc.get("total_points") != prod(cards):
        return "interactions: wrong total_points"
    index = {lab: i for i, lab in enumerate(labels)}
    want = {
        subset_label(s): interaction_dim(cards, [index[m] for m in s])
        for s in all_subsets(labels)
    }
    if doc.get("dimensions") != want:
        return "interactions: dimension table differs from the closed form"
    if emit_bases:
        problem = check_components(labels, cards, p, doc.get("components", {}))
        if problem:
            return f"interactions --emit-bases: {problem}"
    elif "components" in doc:
        return "interactions: components emitted without --emit-bases"
    return None


def check_exported_factor_arrangement(labels, cards, text):
    """The arrangement written by --export-arrangement: F(a) are the functions of
    the variables in a, ordered by inclusion."""
    try:
        doc = json.loads(text)
    except ValueError:
        return "exported arrangement is not JSON"
    if doc.get("field") != "rational" or doc.get("ambient_dim") != prod(cards):
        return "exported arrangement has the wrong field or ambient dimension"
    arr_labels = [subset_label(s) for s in all_subsets(labels)]
    members = {subset_label(s): set(s) for s in all_subsets(labels)}
    if sorted(doc["poset"]["elements"]) != sorted(arr_labels):
        return "exported poset elements differ from the powerset"
    below = down_closure(doc["poset"]["elements"], doc["poset"]["relations"])
    for a in arr_labels:
        if below[a] != {b for b in arr_labels if members[b] <= members[a]}:
            return f"exported order below {a} is not inclusion"
    problem, _ = check_factor_rows(
        labels, cards, None, doc["spaces"], lambda idx: prod(cards[i] for i in idx)
    )
    if problem:
        return f"exported arrangement: {problem}"
    for name, rows in doc["spaces"].items():
        if rank(parse_rows(rows, None), None) != len(rows):
            return f"exported space {name} has dependent rows"
    return None


# ---------------------------------------------------------------------------
# the lower-set extension
# ---------------------------------------------------------------------------

def check_extension_answer(base, code, out, expect_verdict):
    """Condition C on the lower-set lattice of a base arrangement.

    The lattice element ℬ carries F(ℬ) = Σ_{x ∈ ℬ} F(x), so every sum of
    lattice spaces is the base sum over the union of the lattice elements.
    """
    if code != 0:
        return f"extend + C: exit {code}"
    doc = json.loads(out)
    lower = [
        frozenset(s)
        for s in all_subsets(base.elements)
        if base.is_lower_set(s)
    ]
    if doc.get("elements") != len(lower):
        return f"extend + C: lattice has {doc.get('elements')} elements, expected {len(lower)}"
    if doc.get("verdict") is not expect_verdict:
        return f"extend + C: verdict {doc.get('verdict')!r}, expected {expect_verdict}"
    if expect_verdict:
        return None
    label = doc["witness"]["location"]
    at = frozenset(x for x in label.strip("{}").split(",") if x)
    if at not in lower:
        return f"extend + C: witness at {label!r}, not a lower set"
    v = [parse_entry(x, base.p) for x in doc["witness"]["vector"]]
    cheek = set().union(*(b for b in lower if not at <= b))
    strict = set().union(*(b for b in lower if b < at))
    if not in_span(v, base.sum_rows(at), base.p):
        return "extend + C: witness vector is not in F(a)"
    if not in_span(v, base.sum_rows(cheek), base.p):
        return "extend + C: witness vector is not in the cheek sum"
    if in_span(v, base.sum_rows(strict), base.p):
        return "extend + C: witness vector lies in the strict downset sum"
    return None
