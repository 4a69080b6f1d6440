"""Factor arrangements over finite product spaces and interaction terms."""

from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interdec import interactions
from interdec.arrangements import (
    check_intersection_bruteforce,
    check_strong_intersection,
    decompose,
    decomposition_of,
)
from interdec.errors import (
    DuplicateLabel,
    EmptyVariableDomain,
    InternalContradiction,
    SizeLimitExceeded,
    UnknownVariable,
)
from interdec.interactions import (
    build_factor_arrangement,
    build_product_space,
    factor_subspace,
    interaction_dimensions,
)
from interdec.linalg import GF, QQ, full_space, subspace_from_generators
from interdec.posets import lower_set_label

from factor_reference import reference_components, reference_factor_arrangement


def fa(*cardinalities, field=None):
    labels = [f"x{i + 1}" for i in range(len(cardinalities))]
    product = build_product_space(labels, cardinalities)
    if field is None:
        return build_factor_arrangement(product)
    return build_factor_arrangement(product, field)


# ---------------------------------------------------------------------------
# product spaces
# ---------------------------------------------------------------------------

def test_point_enumeration_mixed_radix():
    p = build_product_space(["a", "b"], [2, 2])
    assert p.total_points == 4
    assert p.points == ((0, 0), (0, 1), (1, 0), (1, 1))

    q = build_product_space(["only"], [3])
    assert q.points == ((0,), (1,), (2,))

    empty = build_product_space([], [])
    assert empty.total_points == 1
    assert empty.points == ((),)


def test_product_space_rejects_bad_input():
    with pytest.raises(EmptyVariableDomain):
        build_product_space(["a"], [0])
    with pytest.raises(EmptyVariableDomain):
        build_product_space(["a", "b"], [2])
    with pytest.raises(DuplicateLabel):
        build_product_space(["a", "a"], [2, 2])


def test_product_space_size_limit():
    build_product_space(["a", "b"], [64, 64])  # 4096 exactly: allowed
    with pytest.raises(SizeLimitExceeded):
        build_product_space(["a", "b"], [65, 64])


# ---------------------------------------------------------------------------
# factor subspaces
# ---------------------------------------------------------------------------

def test_factor_subspace_dimensions():
    p = build_product_space(["a", "b"], [2, 2])
    assert factor_subspace(p, []).dim == 1
    assert factor_subspace(p, ["a"]).dim == 2
    assert factor_subspace(p, ["a", "b"]).dim == 4

    q = build_product_space(["a", "b"], [2, 3])
    assert factor_subspace(q, ["a", "b"]) == full_space(6)


def test_factor_subspace_contents():
    p = build_product_space(["a", "b"], [2, 2])
    constants = factor_subspace(p, [])
    assert constants == subspace_from_generators(4, [[1, 1, 1, 1]])
    first = factor_subspace(p, ["a"])
    assert first == subspace_from_generators(4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    second = factor_subspace(p, ["b"])
    assert second == subspace_from_generators(4, [[1, 0, 1, 0], [0, 1, 0, 1]])


def test_factor_subspace_unknown_variable():
    p = build_product_space(["a"], [2])
    with pytest.raises(UnknownVariable):
        factor_subspace(p, ["zzz"])


# ---------------------------------------------------------------------------
# factor arrangements
# ---------------------------------------------------------------------------

def test_factor_arrangement_2x2():
    arr = fa(2, 2).arrangement
    assert arr.poset.labels == ("{}", "{x1}", "{x2}", "{x1,x2}")
    assert arr.poset.leq("{}", "{x1,x2}")
    assert not arr.poset.leq("{x1}", "{x2}")
    assert [arr.spaces[lab].dim for lab in arr.poset.labels] == [1, 2, 2, 4]


def test_factor_arrangement_2x3_space_dims():
    arr = fa(2, 3).arrangement
    assert [arr.spaces[lab].dim for lab in arr.poset.labels] == [1, 2, 3, 6]


def test_factor_arrangement_cube():
    arr = fa(2, 2, 2).arrangement
    assert len(arr.poset.labels) == 8
    assert arr.spaces["{x1,x2,x3}"].dim == 8


def test_powerset_cap():
    # 13 one-point variables: 1 point, but 2^13 subsets > POINT_LIMIT
    product = build_product_space([f"v{i}" for i in range(13)], [1] * 13)
    with pytest.raises(SizeLimitExceeded, match="powerset has 8192 subsets"):
        build_factor_arrangement(product)


def test_factor_powerset_matches_combinations_on_unsorted_labels():
    product = build_product_space(["z", "a", "m"], [2, 3, 2])
    arr = build_factor_arrangement(product).arrangement
    subsets = [
        set(combo)
        for size in range(4)
        for combo in combinations(sorted(product.labels), size)
    ]
    assert arr.poset.labels == (
        "{}", "{a}", "{m}", "{z}", "{a,m}", "{a,z}", "{m,z}", "{a,m,z}",
    )
    ups = []
    for s in subsets:
        row = 0
        for j, t in enumerate(subsets):
            if s <= t:
                row |= 1 << j
        ups.append(row)
    assert arr.poset._up == tuple(ups)
    assert [arr.spaces[lab].dim for lab in arr.poset.labels] == [
        1, 3, 2, 2, 6, 6, 4, 12,
    ]


def test_factor_arrangements_satisfy_intersection_property():
    for sizes in [(2, 2), (2, 3), (2, 2, 2)]:
        arr = fa(*sizes).arrangement
        assert check_intersection_bruteforce(arr).verdict
        assert check_strong_intersection(arr).verdict


# ---------------------------------------------------------------------------
# interaction dimensions
# ---------------------------------------------------------------------------

def test_interaction_dimensions_2x2():
    dims = interaction_dimensions(fa(2, 2))
    assert dims == {"{}": 1, "{x1}": 1, "{x2}": 1, "{x1,x2}": 1}


def test_interaction_dimensions_2x3():
    dims = interaction_dimensions(fa(2, 3))
    assert dims == {"{}": 1, "{x1}": 1, "{x2}": 2, "{x1,x2}": 2}


def test_interaction_dimensions_3x3():
    dims = interaction_dimensions(fa(3, 3))
    assert dims == {"{}": 1, "{x1}": 2, "{x2}": 2, "{x1,x2}": 4}


def test_interaction_dimensions_cube():
    factor = fa(2, 2, 2)
    dims = interaction_dimensions(factor)
    assert all(d == 1 for d in dims.values())
    assert sum(dims.values()) == factor.product.total_points == 8


def test_interaction_dimensions_match_closed_form():
    # observed: dim s_a = Π_{i in a} (|E_i| − 1); cross-checked, not assumed
    for sizes in [(2,), (4,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 3)]:
        factor = fa(*sizes)
        dims = interaction_dimensions(factor)
        assert sum(dims.values()) == factor.product.total_points
        labels = factor.product.labels
        for name, members in _subsets(labels):
            expected = 1
            for m in members:
                expected *= sizes[labels.index(m)] - 1
            assert dims[name] == expected, (sizes, name)
        assert all(d >= 1 for d in dims.values())


def test_interaction_dimensions_reject_a_component_off_the_closed_form(monkeypatch):
    # a key rule that moves the point (1, 1) from s_{x2} to s_{x1,x2}
    rule = interactions._component_key

    def moved(point, tops):
        return ((0, 1), point) if point == (1, 1) else rule(point, tops)

    monkeypatch.setattr(interactions, "_component_key", moved)
    with pytest.raises(InternalContradiction, match="dimension 1 at {x2} .* closed form 2"):
        interaction_dimensions(fa(2, 3))


def _admits_the_last_value(point, tops):
    a = tuple(range(len(point)))
    return a, tuple(point)


def _shifts_the_values(point, tops):
    # right counts, but the values 1..|E_i| − 1 instead of 0..|E_i| − 2
    a = tuple(i for i, v in enumerate(point) if v > 0)
    return a, tuple(point[i] for i in a)


@pytest.mark.parametrize("rule, message", [
    (_admits_the_last_value, "dimension 0 at {} .* closed form 1"),
    (_shifts_the_values, "the keys at {x1} are not its values below"),
])
def test_a_corrupted_key_rule_is_internal_contradiction(monkeypatch, rule, message):
    monkeypatch.setattr(interactions, "_component_key", rule)
    factor = fa(3, 2)
    with pytest.raises(InternalContradiction, match=message):
        interaction_dimensions(factor)
    with pytest.raises(InternalContradiction, match=message):
        factor.decomposition()


@st.composite
def cardinality_tuples(draw):
    """Up to eight variables with at most 256 points in all."""
    cards = []
    while len(cards) < 8 and draw(st.booleans()):
        cards.append(draw(st.integers(min_value=1, max_value=min(6, 256 // prod(cards)))))
    return tuple(cards)


@settings(max_examples=40, deadline=None)
@given(cardinality_tuples(), st.sampled_from([QQ, GF(2), GF(3), GF(101)]))
@example((2,) * 8, QQ)
@example((4, 4, 4, 4), GF(101))
@example((1, 3, 1), GF(2))
def test_closed_form_matches_the_elimination_reference(cards, field):
    factor = fa(*cards, field=field)
    reference = reference_factor_arrangement(factor.product, field)
    assert factor.poset.labels == reference.poset.labels
    assert factor.arrangement.spaces == reference.spaces
    assert factor.decomposition().components == reference_components(reference)
    assert interaction_dimensions(factor) == {
        name: space.dim for name, space in reference_components(reference).items()
    }


def test_export_size_is_capped_before_any_row_is_built(monkeypatch):
    # 65 · 65 rows of 4,096 entries exceed POINT_LIMIT² = 16,777,216
    factor = fa(64, 64)
    calls = []
    monkeypatch.setattr(interactions, "factor_subspace", lambda *args: calls.append(args))
    with pytest.raises(SizeLimitExceeded, match="4225 rows of 4096 entries"):
        factor.arrangement
    assert calls == []
    assert interaction_dimensions(factor)["{x1,x2}"] == 63 * 63
    # 4,097 rows of 4,096 entries: just over the cap
    with pytest.raises(SizeLimitExceeded, match="4097 rows of 4096 entries"):
        fa(4096).arrangement


def _subsets(labels):
    for size in range(len(labels) + 1):
        for combo in combinations(sorted(labels), size):
            yield lower_set_label(combo), combo


def test_interactions_over_prime_field():
    dims = interaction_dimensions(fa(2, 2, field=GF(3)))
    assert dims == {"{}": 1, "{x1}": 1, "{x2}": 1, "{x1,x2}": 1}


def test_constant_function_lives_at_the_bottom():
    factor = fa(2, 2)
    dec = decompose(factor.arrangement)
    parts = decomposition_of(factor.arrangement, dec, [1, 1, 1, 1])
    assert parts["{}"] == (1, 1, 1, 1)
    for name, part in parts.items():
        if name != "{}":
            assert all(x == 0 for x in part)
