"""Poset construction, derived subsets, lower-set enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdec.errors import (
    CapExceeded,
    CycleDetected,
    DuplicateLabel,
    NotComparable,
    UnknownElement,
    UnknownLabel,
)
from interdec.posets import (
    build_poset,
    cheek,
    downset,
    enumerate_lower_sets,
    height,
    interval_elements,
    is_lower_set,
    is_order_embedding,
    lower_completion,
    lower_set_label,
    lower_set_lattice,
    maximal_elements,
    strict_downset,
)


@pytest.fixture
def c3():
    return build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])


@pytest.fixture
def a3():
    return build_poset(["a1", "a2", "a3"], [])


@pytest.fixture
def d2():
    # diamond: e below p and q, both below t
    return build_poset(
        ["e", "p", "q", "t"],
        [("e", "p"), ("e", "q"), ("p", "t"), ("q", "t")],
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_transitive_closure(c3):
    assert c3.leq("x", "z")
    assert c3.leq("x", "x")
    assert not c3.leq("z", "x")


def test_antichain_has_no_relations(a3):
    assert not a3.leq("a1", "a2")
    assert a3.leq("a2", "a2")


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_poset(["u", "v"], [("u", "v"), ("v", "u")])
    with pytest.raises(CycleDetected):
        build_poset(["u", "v", "w"], [("u", "v"), ("v", "w"), ("w", "u")])


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        build_poset(["u", "u"], [])


def test_unknown_relation_label_rejected():
    with pytest.raises(UnknownLabel):
        build_poset(["u"], [("u", "v")])


def test_unknown_element_in_queries(c3):
    with pytest.raises(UnknownElement):
        downset(c3, "nope")
    with pytest.raises(UnknownElement):
        cheek(c3, "nope")


# ---------------------------------------------------------------------------
# derived subsets
# ---------------------------------------------------------------------------

def test_downsets(c3, a3, d2):
    assert set(downset(c3, "y")) == {"x", "y"}
    assert set(downset(a3, "a1")) == {"a1"}
    assert set(downset(d2, "t")) == {"e", "p", "q", "t"}


def test_strict_downsets(c3, d2):
    assert set(strict_downset(c3, "x")) == set()
    assert set(strict_downset(c3, "z")) == {"x", "y"}
    assert set(strict_downset(d2, "t")) == {"e", "p", "q"}


def test_cheeks(c3, a3):
    assert set(cheek(c3, "y")) == {"x"}
    assert set(cheek(c3, "x")) == set()
    assert set(cheek(a3, "a1")) == {"a2", "a3"}


def test_lower_completion(d2):
    assert set(lower_completion(d2, ["t"])) == {"e", "p", "q", "t"}
    assert set(lower_completion(d2, ["p"])) == {"e", "p"}
    assert set(lower_completion(d2, [])) == set()


def test_is_lower_set(c3, d2):
    assert is_lower_set(c3, ["x", "y"])
    assert not is_lower_set(c3, ["y"])
    assert is_lower_set(d2, ["e", "p", "q"])


def test_enumerate_lower_sets(c3, a3, d2):
    c3_sets = [set(c3._labels_of(b)) for b in enumerate_lower_sets(c3)]
    assert c3_sets == [set(), {"x"}, {"x", "y"}, {"x", "y", "z"}]
    assert len(enumerate_lower_sets(a3)) == 8
    assert len(enumerate_lower_sets(d2)) == 6


def test_enumerate_lower_sets_cap(a3):
    with pytest.raises(CapExceeded):
        enumerate_lower_sets(a3, cap=7)
    assert len(enumerate_lower_sets(a3, cap=8)) == 8


def test_maximal_elements(a3, d2):
    assert set(maximal_elements(d2, d2.labels)) == {"t"}
    assert set(maximal_elements(d2, ["e", "p", "q"])) == {"p", "q"}
    assert set(maximal_elements(a3, a3.labels)) == {"a1", "a2", "a3"}


def test_height(c3, a3):
    assert height(build_poset([], [])) == 0
    assert height(c3) == 3
    assert height(a3) == 1


def test_interval_elements(c3, a3, d2):
    assert set(interval_elements(d2, "e", "t")) == {"e", "p", "q", "t"}
    assert set(interval_elements(c3, "x", "y")) == {"x", "y"}
    with pytest.raises(NotComparable):
        interval_elements(a3, "a1", "a2")


def test_order_embeddings(c3):
    assert is_order_embedding({"x": "x", "y": "y", "z": "z"}, c3, c3)
    c2 = build_poset(["u", "v"], [("u", "v")])
    assert is_order_embedding({"u": "x", "v": "z"}, c2, c3)
    a2 = build_poset(["a", "b"], [])
    assert not is_order_embedding({"a": "u", "b": "v"}, a2, c2)
    with pytest.raises(UnknownElement):
        is_order_embedding({"u": "x"}, c2, c3)


def test_induced_subposet(d2):
    sub = d2.induced(["e", "p", "t"])
    assert sub.leq("e", "t")
    assert sub.leq("p", "t")
    assert height(sub) == 3


# ---------------------------------------------------------------------------
# property tests on random small posets
# ---------------------------------------------------------------------------

@st.composite
def posets(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    labels = [f"e{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((labels[i], labels[j]))
    return build_poset(labels, pairs)


@given(posets())
def test_downset_cheek_strict_downset_relation(p):
    for a in p.labels:
        down = downset(p, a)
        assert is_lower_set(p, down)
        assert is_lower_set(p, cheek(p, a))
        assert down.intersection(cheek(p, a)) == strict_downset(p, a)


@given(posets(), st.data())
def test_lower_completion_idempotent_and_monotone(p, data):
    n = len(p.labels)
    small = data.draw(st.sets(st.sampled_from(p.labels)) if n else st.just(set()))
    large = small | (
        data.draw(st.sets(st.sampled_from(p.labels))) if n else set()
    )
    comp = lower_completion(p, small)
    assert lower_completion(p, comp) == comp
    assert comp.issubset(lower_completion(p, large))


@settings(max_examples=50)
@given(posets())
def test_lower_sets_closed_under_meet_and_join(p):
    sets = enumerate_lower_sets(p, cap=64)
    masks = set(sets)
    for x in sets:
        for y in sets:
            assert x & y in masks
            assert x | y in masks


@given(posets())
def test_removing_maximal_elements(p):
    full = frozenset(p.labels)
    h = height(p)
    rest = full.difference(maximal_elements(p, full))
    assert is_lower_set(p, rest)
    if len(p.labels) > 0:
        assert height(p.induced(rest)) <= h - 1


@st.composite
def permuted_posets(draw):
    """Random posets whose element order need not be a linear extension."""
    n = draw(st.integers(min_value=0, max_value=8))
    ranked = [f"e{i}" for i in range(n)]
    pairs = [
        (ranked[i], ranked[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return build_poset(draw(st.permutations(ranked)), pairs)


def covers_by_definition(p):
    """Reference: the O(N²) scan for a < b with nothing strictly between."""
    n = len(p.labels)
    out = []
    for ib in range(n):
        down_b = p._down[ib]
        for ia in range(n):
            if ia == ib or not down_b >> ia & 1:
                continue
            if p._up[ia] & down_b == (1 << ia | 1 << ib):
                out.append((ia, ib))
    return out


@given(permuted_posets(), st.data())
def test_covers_match_definition_scan(p, data):
    assert list(p.covers()) == covers_by_definition(p)
    n = len(p.labels)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    for mask in masks:
        members = [i for i in range(n) if mask >> i & 1]
        maximal = 0
        for i in members:
            if not any(j != i and p.leq(p.labels[i], p.labels[j]) for j in members):
                maximal |= 1 << i
        assert p._maximal(mask) == maximal


@settings(max_examples=60)
@given(permuted_posets())
def test_lower_set_lattice_is_inclusion_order(p):
    lattice, masks = lower_set_lattice(p)
    assert masks == enumerate_lower_sets(p)
    assert lattice.labels == tuple(
        lower_set_label(p._labels_of(m)) for m in masks
    )
    for mi, up in zip(masks, lattice._up):
        brute = 0
        for j, mj in enumerate(masks):
            if mi & ~mj == 0:
                brute |= 1 << j
        assert up == brute
    for mj, down in zip(masks, lattice._down):
        brute = 0
        for i, mi in enumerate(masks):
            if mi & ~mj == 0:
                brute |= 1 << i
        assert down == brute


def test_lower_set_lattice_of_diamond(d2):
    lattice, masks = lower_set_lattice(d2)
    assert lattice.labels == ("{}", "{e}", "{e,p}", "{e,q}", "{e,p,q}", "{e,p,q,t}")
    assert list(lattice.covers()) == [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]


def test_lower_set_lattice_cap():
    # a 13-element antichain has 2^13 = 8,192 lower sets, over LOWER_SET_CAP
    antichain = build_poset([f"a{i}" for i in range(13)], [])
    with pytest.raises(CapExceeded):
        lower_set_lattice(antichain)
