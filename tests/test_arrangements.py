"""Arrangements: validation, property checkers, decomposition, functoriality."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from interdec import arrangements, interactions, posets
from interdec.arrangements import (
    Decomposition,
    Witness,
    check_condition_C,
    check_intersection_bruteforce,
    check_monotonicity,
    check_strong_intersection,
    decompose,
    decomposition_of,
    extend_to_lower_sets,
    new_arrangement,
    pre_decompose,
    pushforward,
    verify_decomposition,
)
from interdec.errors import CapExceeded, InputError, InternalContradiction, NotMonotone
from interdec.interactions import ProductSpace, build_factor_arrangement, interaction_dimensions
from interdec.linalg import (
    GF,
    QQ,
    IntEchelon,
    first_outside,
    full_space,
    intersect,
    subspace_from_generators,
    zero_subspace,
)
from interdec.posets import (
    Poset,
    build_poset,
    downset,
    enumerate_lower_sets,
    lower_set_lattice,
)

from randgen import random_decomposable_arrangement, random_monotone_arrangement, random_poset
from scan_reference import full_c_scan, full_pair_scan, scan_outcome


def sp(ambient, rows, field=QQ):
    return subspace_from_generators(ambient, rows, field)


@pytest.fixture
def three_lines():
    """Three pairwise different lines in the plane on an antichain."""
    poset = build_poset(["a1", "a2", "a3"], [])
    return new_arrangement(
        poset, 2, QQ,
        {"a1": [[1, 0]], "a2": [[0, 1]], "a3": [[1, 1]]},
    )


@pytest.fixture
def c3_constant():
    poset = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    plane = [[1, 0], [0, 1]]
    return new_arrangement(poset, 2, QQ, {"x": plane, "y": plane, "z": plane})


@pytest.fixture
def c3_growing():
    poset = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    return new_arrangement(
        poset, 2, QQ, {"x": [[1, 0]], "y": [[1, 0]], "z": [[1, 0], [0, 1]]}
    )


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def test_antichain_never_violates_monotonicity(three_lines):
    assert three_lines.ambient_dim == 2


def test_monotonicity_violation_reported():
    c2 = build_poset(["u", "v"], [("u", "v")])
    with pytest.raises(NotMonotone) as exc:
        new_arrangement(c2, 2, QQ, {"u": [[1, 0], [0, 1]], "v": [[1, 0]]})
    err = exc.value
    assert (err.lower, err.upper) == ("u", "v")
    # the witness vector really lies in F(u) and outside F(v)
    assert full_space(2).contains_vector(err.vector)
    assert not sp(2, [[1, 0]]).contains_vector(err.vector)


def test_monotonicity_report_on_valid_chain(c3_growing):
    report = check_monotonicity(c3_growing.poset, c3_growing.spaces)
    assert report.property == "monotonicity"
    assert report.verdict and report.witness is None


def test_missing_space_rejected():
    c2 = build_poset(["u", "v"], [("u", "v")])
    with pytest.raises(InputError):
        new_arrangement(c2, 2, QQ, {"u": [[1, 0]]})
    with pytest.raises(InputError):
        new_arrangement(c2, 2, QQ, {"u": [], "v": [], "w": []})


# ---------------------------------------------------------------------------
# condition (C)
# ---------------------------------------------------------------------------

def test_condition_C_fails_on_three_lines(three_lines):
    report = check_condition_C(three_lines)
    assert report.property == "C"
    assert not report.verdict
    w = report.witness
    assert w.location == "a1"
    assert w.vector == (1, 0)
    assert w.verify()


def test_condition_C_on_constant_chain(c3_constant):
    report = check_condition_C(c3_constant)
    assert report.verdict and report.witness is None
    assert report.work["pairs_checked"] == 3


def test_condition_C_on_empty_poset():
    arr = new_arrangement(build_poset([], []), 2, QQ, {})
    assert check_condition_C(arr).verdict


# ---------------------------------------------------------------------------
# (I) and (sI)
# ---------------------------------------------------------------------------

def test_intersection_bruteforce_fails_on_three_lines(three_lines):
    report = check_intersection_bruteforce(three_lines)
    assert report.property == "I-bruteforce"
    assert not report.verdict
    lhs, rhs = report.witness.location
    assert set(lhs) == {"a1"}
    assert set(rhs) == {"a2", "a3"}
    assert report.witness.verify()


def test_intersection_bruteforce_on_chains(c3_constant, c3_growing):
    assert check_intersection_bruteforce(c3_constant).verdict
    assert check_intersection_bruteforce(c3_growing).verdict


def test_intersection_vacuous_on_empty_poset():
    arr = new_arrangement(build_poset([], []), 3, QQ, {})
    assert check_intersection_bruteforce(arr).verdict


def test_strong_intersection(three_lines):
    report = check_strong_intersection(three_lines)
    assert report.property == "sI"
    assert not report.verdict
    assert report.witness.verify()

    single = new_arrangement(
        build_poset(["a"], []), 2, QQ, {"a": [[1, 0]]}
    )
    assert check_strong_intersection(single).verdict


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_pre_decompose_constant_chain(c3_constant):
    cand = pre_decompose(c3_constant)
    assert cand.components["x"] == full_space(2)
    assert cand.components["y"] == zero_subspace(2)
    assert cand.components["z"] == zero_subspace(2)
    assert not cand.certified


def test_pre_decompose_antichain(three_lines):
    cand = pre_decompose(three_lines)
    assert cand.components["a1"] == sp(2, [[1, 0]])
    assert cand.components["a2"] == sp(2, [[0, 1]])
    assert cand.components["a3"] == sp(2, [[1, 1]])


def test_verify_decomposition_accepts_constant_chain(c3_constant):
    cand = Decomposition(
        {"x": full_space(2), "y": zero_subspace(2), "z": zero_subspace(2)}
    )
    report, certified = verify_decomposition(c3_constant, cand)
    assert report.verdict
    assert certified.certified
    assert not cand.certified


def test_verify_decomposition_rejects_three_lines(three_lines):
    report, out = verify_decomposition(three_lines, pre_decompose(three_lines))
    assert not report.verdict
    assert not out.certified
    assert report.witness.verify()


def test_verify_decomposition_rejects_wrong_rebuild(c3_growing):
    # direct sum fine, but downset sums do not rebuild F
    cand = Decomposition({"x": zero_subspace(2), "y": zero_subspace(2),
                          "z": sp(2, [[0, 1]])})
    report, _ = verify_decomposition(c3_growing, cand)
    assert not report.verdict
    assert report.witness.location == "x"
    assert report.witness.verify()


def test_verify_decomposition_rejects_missing_and_unknown_elements():
    arr = new_arrangement(build_poset(["x"], []), 2, QQ, {"x": [[1, 0]]})
    with pytest.raises(InputError, match="^components: no entry for element 'x'$"):
        verify_decomposition(arr, Decomposition({}))
    # the extra component makes the sum not direct; it is refused like a
    # missing one rather than certified
    cand = Decomposition({"x": sp(2, [[1, 0]]), "ghost": sp(2, [[1, 0]])})
    with pytest.raises(InputError, match="unknown element 'ghost'"):
        verify_decomposition(arr, cand)


@pytest.mark.parametrize("entry, message", [
    (5, "spaces.x: expected a list of generator rows"),
    ([5], "spaces.x[0]: expected a row of 2 entries"),
    ([[1, 0], [1]], "spaces.x[1]: expected a row of 2 entries"),
])
def test_new_arrangement_refuses_bad_rows_with_input_error(entry, message):
    # a documented InputError naming the row, never a TypeError
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        new_arrangement(build_poset(["x"], []), 2, QQ, {"x": entry})


def test_new_arrangement_checks_the_table_in_the_loaders_order():
    poset = build_poset(["x", "y"], [])
    for spaces, message in (
        (None, "here: expected an object"),
        # missing elements first, in poset order, whatever else is wrong
        ({"ghost": 5, "y": 5}, "here: no entry for element 'x'"),
        # then unknown elements, then the entries, both in table order
        ({"y": 5, "ghost": 5, "x": 5, "spook": 5}, "here: unknown element 'ghost'"),
        ({"y": [[1]], "x": 5}, "here.y[0]: expected a row of 2 entries"),
    ):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            new_arrangement(poset, 2, QQ, spaces, location="here")


def test_a_subspace_that_does_not_fit_is_refused_by_one_check():
    # new_arrangement and verify_decomposition read their tables alike: a
    # Subspace entry must lie in F^ambient_dim over the arrangement's field
    poset = build_poset(["x"], [])
    arr = new_arrangement(poset, 2, QQ, {"x": [[1, 0]]})
    for space, message in (
        (sp(3, [[1, 0, 0]]), "a subspace of F^3 over QQ, expected F^2 over QQ"),
        (sp(2, [[1, 0]], GF(5)), "a subspace of F^2 over GF(5), expected F^2 over QQ"),
    ):
        with pytest.raises(InputError, match=f"^{re.escape('spaces.x: ' + message)}$"):
            new_arrangement(poset, 2, QQ, {"x": space})
        with pytest.raises(InputError, match=f"^{re.escape('components.x: ' + message)}$"):
            verify_decomposition(arr, Decomposition({"x": space}))


@pytest.mark.parametrize("entry, message", [
    (5, "components.x: expected a list of generator rows"),
    ([[1, 0], [1]], "components.x[1]: expected a row of 2 entries"),
    ([["a", 0]], "components.x[0]: not a rational entry: 'a'"),
])
def test_verify_decomposition_reads_generator_rows_as_new_arrangement_does(entry, message):
    poset = build_poset(["x"], [])
    arr = new_arrangement(poset, 2, QQ, {"x": [[1, 0]]})
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        new_arrangement(poset, 2, QQ, {"x": entry}, location="components")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        verify_decomposition(arr, Decomposition({"x": entry}))
    # well-formed rows are read into the copy that is returned
    report, certified = verify_decomposition(arr, Decomposition({"x": [[2, 0]]}))
    assert report.verdict
    assert certified.components == {"x": sp(2, [[1, 0]])}


def test_decompose_three_lines_returns_witness(three_lines):
    out = decompose(three_lines)
    assert isinstance(out, Witness)
    assert out.verify()


def test_witness_repr_prints_the_vector_in_document_form():
    # the rule NotMonotone's message uses: ints, "p/q" and residues
    w = Witness("a", (Fraction(1), Fraction(-1, 2)), full_space(2), zero_subspace(2))
    assert repr(w) == """Witness(at 'a', vector [1, "-1/2"])"""
    w = Witness((("a",), ("b",)), (3, 0), full_space(2, GF(5)), zero_subspace(2, GF(5)))
    assert repr(w) == "Witness(at (('a',), ('b',)), vector [3, 0])"


def test_decompose_constant_chain(c3_constant):
    out = decompose(c3_constant)
    assert isinstance(out, Decomposition)
    assert out.certified
    assert out.dims() == {"x": 2, "y": 0, "z": 0}


def test_decompose_growing_chain(c3_growing):
    out = decompose(c3_growing)
    assert out.certified
    assert out.dims() == {"x": 1, "y": 0, "z": 1}


def test_decompose_certifies_without_condition_C(monkeypatch, c3_constant, c3_growing):
    def refuse(arrangement):
        pytest.fail("decompose ran (C) on a decomposable arrangement")

    monkeypatch.setattr(arrangements, "_first_failing_element", refuse)
    planted, _ = random_decomposable_arrangement(random.Random(0), GF(7), 6, 6)
    for arr in (c3_constant, c3_growing, planted):
        for seed in (None, 3):
            out = decompose(arr, seed=seed)
            assert isinstance(out, Decomposition) and out.certified


def test_holding_condition_C_reads_only_the_certificate(monkeypatch, c3_constant, c3_growing):
    def refuse(arrangement):
        pytest.fail("check_condition_C scanned the elements of a decomposable arrangement")

    monkeypatch.setattr(arrangements, "_first_failing_element", refuse)
    planted, _ = random_decomposable_arrangement(random.Random(0), GF(7), 6, 6)
    for arr in (c3_constant, c3_growing, planted):
        n = len(arr.poset.labels)
        report = check_condition_C(arr)
        assert report.verdict
        assert report.work == {"pairs_checked": n, "ranks_computed": 3 * n}


def test_decompose_failure_returns_the_condition_C_witness(monkeypatch, three_lines, c3_growing):
    expected = check_condition_C(three_lines).witness
    # the third line lies in the plane of the first two, so the certificate
    # fails; decompose reads only that verdict and builds no direct-sum
    # witness of its own
    monkeypatch.setattr(
        arrangements, "_direct_sum_witness",
        lambda *args: pytest.fail("decompose built a direct-sum witness"),
    )
    out = decompose(three_lines)
    assert (out.location, out.vector, out.lhs_space, out.rhs_space) == (
        expected.location, expected.vector, expected.lhs_space, expected.rhs_space
    )
    # a failed certificate while (C) holds contradicts the theory
    monkeypatch.setattr(arrangements, "_certified_sections", lambda *args: None)
    with pytest.raises(InternalContradiction):
        decompose(c3_growing)


def test_seeded_sections_also_verify(c3_growing):
    for seed in range(5):
        cand = pre_decompose(c3_growing, seed=seed)
        report, certified = verify_decomposition(c3_growing, cand)
        assert report.verdict
        assert certified.certified


def test_decomposition_of_vectors(c3_constant):
    dec = decompose(c3_constant)
    parts = decomposition_of(c3_constant, dec, [1, 1])
    assert parts["x"] == (1, 1)
    assert parts["y"] == (0, 0)
    assert parts["z"] == (0, 0)

    zero_parts = decomposition_of(c3_constant, dec, [0, 0])
    assert all(v == (0, 0) for v in zero_parts.values())


def test_decomposition_of_outside_vector():
    arr = new_arrangement(build_poset(["a"], []), 2, QQ, {"a": [[1, 0]]})
    dec = decompose(arr)
    with pytest.raises(InputError, match="^vector is outside the sum of the arrangement's spaces$"):
        decomposition_of(arr, dec, [0, 1])
    with pytest.raises(InputError):
        decomposition_of(arr, Decomposition(dec.components, certified=False), [1, 0])


def test_a_vector_with_no_expansion_is_internal_contradiction(monkeypatch, c3_constant):
    # a vector inside the sum always expands in a certified decomposition
    dec = decompose(c3_constant)
    # a right block with no relation stands in for a kernel that lost v's
    def no_relation(field, rows, n_left, n_right):
        return zero_subspace(n_right, field)

    monkeypatch.setattr(arrangements, "_right_block", no_relation)
    message = "^vector inside the arrangement has no expansion in a certified decomposition$"
    with pytest.raises(InternalContradiction, match=message):
        decomposition_of(c3_constant, dec, [1, 1])


def test_a_promised_witness_that_is_missing_is_internal_contradiction(monkeypatch, c3_growing):
    # a pair test that fails where the spaces hold leaves the witness rule
    # no row of the meet outside F(B ∩ C)
    monkeypatch.setattr(arrangements, "_certified_sections", lambda *args: None)
    monkeypatch.setattr(arrangements, "_pair_fails", lambda *args: True)
    message = "^dimension count promised a violating vector but none was found$"
    with pytest.raises(InternalContradiction, match=message):
        check_condition_C(c3_growing)
    # a sum that is not direct has a component meeting the others
    monkeypatch.setattr(arrangements, "is_direct_sum", lambda comps: False)
    message = "^rank deficit promised an overlapping component but none was found$"
    with pytest.raises(InternalContradiction, match=message):
        verify_decomposition(c3_growing, pre_decompose(c3_growing))


def test_decomposition_of_refuses_a_vector_of_the_wrong_length(c3_constant):
    # the membership test in the sum of the spaces checks the length
    dec = decompose(c3_constant)
    for vector in ([1], [1, 0, 0]):
        message = f"^vector of length {len(vector)} in ambient dim 2$"
        with pytest.raises(InputError, match=message):
            decomposition_of(c3_constant, dec, vector)


def test_decomposition_of_round_trip(c3_growing):
    dec = decompose(c3_growing)
    v = (3, -2)
    parts = decomposition_of(c3_growing, dec, v)
    total = [0, 0]
    for lab, part in parts.items():
        assert dec.components[lab].contains_vector(part)
        total = [a + b for a, b in zip(total, part)]
    assert tuple(total) == v


# ---------------------------------------------------------------------------
# functorial operations
# ---------------------------------------------------------------------------

def test_pushforward_chain_into_chain():
    c2 = build_poset(["u", "v"], [("u", "v")])
    c3 = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    arr = new_arrangement(c2, 2, QQ, {"u": [[1, 0]], "v": [[1, 0], [0, 1]]})
    pushed = pushforward({"u": "x", "v": "z"}, arr, c3)
    assert pushed.spaces["x"] == sp(2, [[1, 0]])
    assert pushed.spaces["y"] == sp(2, [[1, 0]])
    assert pushed.spaces["z"] == full_space(2)


def test_pushforward_identity(c3_growing):
    ident = {a: a for a in c3_growing.poset.labels}
    pushed = pushforward(ident, c3_growing, c3_growing.poset)
    assert pushed.spaces == c3_growing.spaces


def test_pushforward_rejects_non_monotone_maps():
    c2 = build_poset(["u", "v"], [("u", "v")])
    a2 = build_poset(["a", "b"], [])
    arr = new_arrangement(c2, 2, QQ, {"u": [[1, 0]], "v": [[1, 0]]})
    with pytest.raises(InputError, match="^map does not preserve 'u' ≤ 'v'$"):
        pushforward({"u": "a", "v": "b"}, arr, a2)
    with pytest.raises(InputError, match="^map is not defined on element 'v'$"):
        pushforward({"u": "a"}, arr, a2)
    # x ≤ z breaks too, but the named pair is the failing cover
    c3 = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    arr = new_arrangement(c3, 1, QQ, {"x": [], "y": [], "z": []})
    with pytest.raises(InputError, match="^map does not preserve 'y' ≤ 'z'$"):
        pushforward({"x": "a", "y": "a", "z": "b"}, arr, a2)


def test_pushforward_embedding_mismatch_is_internal_contradiction(monkeypatch):
    # collapsing a chain onto a point is no embedding; pretending it is one
    # must trip the restrict-back check rather than return quietly
    c2 = build_poset(["u", "v"], [("u", "v")])
    point = build_poset(["p"], [])
    arr = new_arrangement(c2, 2, QQ, {"u": [[1, 0]], "v": [[1, 0], [0, 1]]})
    monkeypatch.setattr(arrangements, "is_order_embedding", lambda *args: True)
    with pytest.raises(InternalContradiction):
        pushforward({"u": "p", "v": "p"}, arr, point)


def test_extend_to_lower_sets(monkeypatch, c3_constant):
    # every lattice space is a lower-set sum, monotone by definition: no
    # cover is rescanned
    monkeypatch.setattr(arrangements, "check_monotonicity", None)
    ext = extend_to_lower_sets(c3_constant)
    assert ext.poset.labels == ("{}", "{x}", "{x,y}", "{x,y,z}")
    assert ext.spaces["{}"] == zero_subspace(2)
    assert ext.spaces["{x,y,z}"] == full_space(2)
    # a 4-chain
    assert ext.poset.leq("{}", "{x,y,z}")
    out = decompose(ext)
    assert isinstance(out, Decomposition)


def test_a_failing_certificate_builds_no_section_past_the_first_dependent_row(
    monkeypatch, three_lines
):
    lattice = extend_to_lower_sets(three_lines)
    report = check_condition_C(lattice)
    assert not report.verdict and report.witness.location == "{a1}"
    inserted = []
    original = IntEchelon.insert

    def recording(self, row):
        inserted.append(row)
        return original(self, row)

    monkeypatch.setattr(IntEchelon, "insert", recording)
    sources = arrangements._section_sources(lattice, None)
    assert arrangements._certified_sections(lattice, sources) is None
    # the walk takes {} (w = 0, no row), then {a1}, {a2} and {a3}; the third
    # line lies in the plane of the first two, so {a3} misses its w = 1, and
    # no row of the four larger lower sets is inserted
    assert inserted == [(1, 0), (0, 1), (1, 1)]


def test_extend_rejects_colliding_lower_set_names():
    # {a,b} names both the lower set of element "a,b" and that of a and b
    poset = build_poset(["a,b", "a", "b"], [])
    arr = new_arrangement(poset, 1, QQ, {"a,b": [], "a": [], "b": []})
    with pytest.raises(InputError, match=r"^duplicate element '\{a,b\}'$"):
        extend_to_lower_sets(arr)


def test_extend_empty_poset():
    arr = new_arrangement(build_poset([], []), 2, QQ, {})
    ext = extend_to_lower_sets(arr)
    assert ext.poset.labels == ("{}",)
    assert ext.spaces["{}"] == zero_subspace(2)


# ---------------------------------------------------------------------------
# randomized cross-checks (the acceptance suite runs the big versions)
# ---------------------------------------------------------------------------

def test_checkers_agree_on_random_arrangements():
    rng = random.Random(71)
    for k in range(40):
        field = QQ if k % 2 else GF(2)
        arr = random_monotone_arrangement(rng, field, max_elements=5, max_dim=4)
        c = check_condition_C(arr).verdict
        i = check_intersection_bruteforce(arr).verdict
        assert c == i
        out = decompose(arr)
        assert isinstance(out, Decomposition) == c


def test_planted_decompositions_verify():
    rng = random.Random(72)
    for k in range(20):
        field = QQ if k % 2 else GF(3)
        arr, planted = random_decomposable_arrangement(rng, field, 5, 5)
        report, certified = verify_decomposition(arr, Decomposition(planted))
        assert report.verdict and certified.certified
        out = decompose(arr)
        assert isinstance(out, Decomposition)
        assert check_strong_intersection(arr).verdict


# ---------------------------------------------------------------------------
# subset sums over maximal elements
# ---------------------------------------------------------------------------

def all_members_sum(arrangement, mask):
    """Reference F(B): the rows of every member of B, maximal or not."""
    rows = []
    for i, lab in enumerate(arrangement.poset.labels):
        if mask >> i & 1:
            rows.extend(arrangement.spaces[lab].exact_rows())
    return IntEchelon(arrangement.field, rows).subspace(arrangement.ambient_dim)


def zeroed_below(arrangement, mask):
    """The arrangement with the spaces of the downsets of mask's members,
    bits past the last element ignored, made zero; monotone still, as they
    form a lower set."""
    poset = arrangement.poset
    zeroed = 0
    for i in posets._bits(mask & (1 << len(poset.labels)) - 1):
        zeroed |= poset._down[i]
    zero = zero_subspace(arrangement.ambient_dim, arrangement.field)
    spaces = {
        a: zero if zeroed >> i & 1 else arrangement.spaces[a]
        for i, a in enumerate(poset.labels)
    }
    return new_arrangement(poset, arrangement.ambient_dim, arrangement.field, spaces)


# an arrangement with the downsets of a drawn subset zeroed, so that many
# hold zero spaces, and subsets to sum
SUBSET_SUM_SAMPLES = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([QQ, GF(2), GF(7)]),
    st.integers(min_value=0, max_value=2**6 - 1) | st.just(0),
    st.lists(st.integers(min_value=0), max_size=6),
)


def subset_sum_sample(seed, field, zeroed):
    return zeroed_below(random_monotone_arrangement(random.Random(seed), field), zeroed)


@settings(max_examples=150, deadline=None)
@given(SUBSET_SUM_SAMPLES)
def test_subset_sums_match_all_members_reference(sample):
    seed, field, zeroed, picks = sample
    arr = subset_sum_sample(seed, field, zeroed)
    full = (1 << len(arr.poset.labels)) - 1
    masks = [0, full] + [p & full for p in picks]
    for mask in masks:
        reference = all_members_sum(arr, mask)
        assert arr.dim_of_mask(mask) == reference.dim
        assert arr.eval_mask(mask) == reference
    # a fresh arrangement has empty memos, so eval_mask computes here
    fresh = subset_sum_sample(seed, field, zeroed)
    for mask in masks:
        assert fresh.eval_mask(mask) == all_members_sum(fresh, mask)


def test_subset_sum_samples_hold_zero_spaces():
    # the sums above are taken over zero and nonzero members together
    def mixed(sample):
        seed, field, zeroed, picks = sample
        dims = {s.dim for s in subset_sum_sample(seed, field, zeroed).spaces.values()}
        return 0 in dims and len(dims) > 1

    find(SUBSET_SUM_SAMPLES, mixed, settings=settings(database=None))


def test_a_members_own_downset_is_its_own_space(monkeypatch):
    # the one nonzero maximal member of x̂ is x: eval_mask hands back F(x)
    # itself and dim_of_mask its dim, and nothing is summed
    def refuse(*args):
        pytest.fail("a one-summand sum went to _sum_echelon")

    samples = [build_factor_arrangement(ProductSpace(["a", "b", "c"], (2, 3, 2))).arrangement]
    samples += [zeroed_below(random_monotone_arrangement(random.Random(seed), field), 1)
                for seed in range(10) for field in (QQ, GF(7))]
    monkeypatch.setattr(arrangements.Arrangement, "_sum_echelon", refuse)
    for arr in samples:
        for i, a in enumerate(arr.poset.labels):
            if arr.spaces[a].dim:
                assert arr.dim_of_mask(arr.poset._down[i]) == arr.spaces[a].dim
                assert arr.eval_mask(arr.poset._down[i]) is arr.spaces[a]


def test_a_failing_scan_sums_nonzero_members_only(monkeypatch):
    # eight lines on an antichain, three of them zero, the other five in
    # general position in ℚ^4: a failing scan sums each set of at least two
    # nonzero members at most once, so at most 2^5 times for 2^8 lower sets
    labels = [f"l{i}" for i in range(8)]
    zeros = {"l1", "l4", "l6"}
    lines = {lab: [] if lab in zeros else [[(i + 1) ** k for k in range(4)]]
             for i, lab in enumerate(labels)}
    sums = []
    original = arrangements.Arrangement._sum_echelon

    def counting(self, top):
        sums.append(top)
        return original(self, top)

    monkeypatch.setattr(arrangements.Arrangement, "_sum_echelon", counting)
    for check in (check_condition_C, check_intersection_bruteforce, check_strong_intersection):
        arr = new_arrangement(build_poset(labels, []), 4, QQ, lines)
        sums.clear()
        report = check(arr)
        assert not report.verdict and report.witness.verify()
        assert 0 < len(sums) <= 2**5
        assert all(top & arr.poset._mask_of(zeros) == 0 for top in sums)


def test_subset_sum_inserts_only_non_seed_maximal_rows(monkeypatch):
    product = ProductSpace(["a", "b", "c", "d"], (2, 2, 2, 2))
    arr = build_factor_arrangement(product).arrangement
    poset = arr.poset
    top = poset.index("{a,b,c,d}")
    strict = poset._down[top] & ~(1 << top)
    assert bin(strict).count("1") == 15
    maximal = [arr.spaces[lab] for lab in poset._labels_of(poset._maximal(strict))]
    assert sorted(s.dim for s in maximal) == [8, 8, 8, 8]
    inserted = []
    original = IntEchelon.insert

    def counting(self, row):
        inserted.append(tuple(row))
        return original(self, row)

    monkeypatch.setattr(IntEchelon, "insert", counting)
    assert arr.dim_of_mask(strict) == 15
    # the seed's 8 rows are copied, the other three spaces' 24 are inserted
    assert len(inserted) == 24
    assert set(inserted) <= {r for s in maximal for r in s.exact_rows()}
    inserted.clear()
    assert arr.eval_mask(strict).dim == 15
    assert len(inserted) == 24


# ---------------------------------------------------------------------------
# (I) and (sI) against the full pair loop
# ---------------------------------------------------------------------------

SCAN_FIELDS = [QQ, GF(2), GF(7)]


def scan_sample(seed, field):
    return random_monotone_arrangement(random.Random(seed), field, max_elements=7, max_dim=4)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(SCAN_FIELDS),
)
def test_lower_set_scans_match_the_full_pair_loop(seed, field):
    expected = full_pair_scan(scan_sample(seed, field))
    for check in (check_intersection_bruteforce, check_strong_intersection):
        # a fresh arrangement each time, so no check sees another's memos
        assert scan_outcome(check(scan_sample(seed, field))) == expected


@pytest.mark.parametrize("field", SCAN_FIELDS, ids=repr)
def test_lower_set_scan_sample_has_both_verdicts(field):
    verdicts = set()
    for seed in range(30):
        expected = full_pair_scan(scan_sample(seed, field))
        assert scan_outcome(check_strong_intersection(scan_sample(seed, field))) == expected
        verdicts.add(expected[0])
    assert verdicts == {True, False}


class EnteredPairLoop(Exception):
    pass


def test_passing_scans_never_enter_the_pair_loop(monkeypatch, three_lines):
    def refuse(*args):
        raise EnteredPairLoop

    sums = []
    original = arrangements.Arrangement._sum_echelon

    def counting(self, mask):
        sums.append(mask)
        return original(self, mask)

    monkeypatch.setattr(arrangements, "_first_failing_pair", refuse)
    monkeypatch.setattr(arrangements.Arrangement, "_sum_echelon", counting)
    # eight independent lines on an antichain: 2^8 lower sets
    labels = [f"l{i}" for i in range(8)]
    lines = {lab: [[1 if j in (i, i + 1) else 0 for j in range(8)]]
             for i, lab in enumerate(labels)}
    antichains = [new_arrangement(build_poset(labels, []), 8, QQ, lines)]
    # planted decompositions on four 3-chains listed top first: 4^4 lower sets
    chains = [[f"c{c}_{k}" for k in range(3)] for c in range(4)]
    relations = [(chain[k], chain[k + 1]) for chain in chains for k in range(2)]
    poset = build_poset([e for chain in chains for e in reversed(chain)], relations)
    for check in (check_intersection_bruteforce, check_strong_intersection):
        planted = [random_decomposable_arrangement(random.Random(5), field, 12, 12, poset)[0]
                   for field in SCAN_FIELDS]
        for arr in antichains + planted:
            sums.clear()
            report = check(arr)
            assert report.verdict
            assert report.work == {"pairs_checked": 256 * 257 // 2, "ranks_computed": 256}
            # the certificate ranks no lower set and sums no F(x̂*)
            assert sums == []
    # the patched loop is the one a failing scan runs
    with pytest.raises(EnteredPairLoop):
        check_intersection_bruteforce(three_lines)


def test_failing_scan_walks_only_up_to_the_failing_union(monkeypatch):
    # twelve lines in general position in ℚ^5 on an antichain: the first
    # failing pair joins one line to five others
    labels = [f"l{i:02d}" for i in range(12)]
    lines = {lab: [[(i + 1) ** k for k in range(5)]] for i, lab in enumerate(labels)}
    poset = build_poset(labels, [])
    masks = enumerate_lower_sets(poset)
    ranked = set()
    original = arrangements.Arrangement.dim_of_mask

    def recording(self, mask):
        ranked.add(mask)
        return original(self, mask)

    monkeypatch.setattr(arrangements.Arrangement, "dim_of_mask", recording)
    expected = full_pair_scan(new_arrangement(poset, 5, QQ, lines))
    left, right = expected[1]
    union = poset._mask_of(left + right)
    assert union.bit_count() == 6
    for check in (check_intersection_bruteforce, check_strong_intersection):
        ranked.clear()
        assert scan_outcome(check(new_arrangement(poset, 5, QQ, lines))) == expected
        # the failing scan ranks lower sets in scan order, none past the union
        assert union in ranked
        assert max(masks.index(m) for m in ranked) == masks.index(union)
        assert len(ranked) < len(masks) // 2


def test_a_failed_certificate_whose_pairs_all_pass_is_a_contradiction(
    monkeypatch, c3_growing
):
    monkeypatch.setattr(arrangements, "_certified_sections", lambda *args: None)
    for check in (check_intersection_bruteforce, check_strong_intersection):
        with pytest.raises(InternalContradiction, match="no pair of lower sets fails$"):
            check(c3_growing)


def test_over_cap_scans_stop_before_any_linear_algebra(monkeypatch, three_lines):
    calls = []
    original = arrangements._certified_sections

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(arrangements, "_certified_sections", recording)
    # three lines on an antichain have 8 lower sets
    for check in (check_intersection_bruteforce, check_strong_intersection):
        calls.clear()
        with pytest.raises(CapExceeded):
            check(three_lines, cap=7)
        assert calls == []
        assert not check(three_lines, cap=8).verdict
        assert len(calls) == 1


def test_a_scan_cap_that_is_not_an_int_is_refused(three_lines):
    for check in (check_intersection_bruteforce, check_strong_intersection):
        with pytest.raises(InputError, match="^cap must be an integer, got '5'$"):
            check(three_lines, cap="5")


class ListedLowerSets(Exception):
    pass


def independent_lines(count):
    """count independent lines of ℚ^count on an antichain: 2^count lower
    sets, and the certificate holds."""
    labels = [f"l{i:02d}" for i in range(count)]
    lines = {lab: [[int(j == i) for j in range(count)]] for i, lab in enumerate(labels)}
    return new_arrangement(build_poset(labels, []), count, QQ, lines)


def test_holding_and_over_cap_scans_list_no_lower_set(monkeypatch, three_lines):
    def refuse(*args):
        raise ListedLowerSets

    # enumerate_lower_sets and lower_set_lattice list through this one split
    monkeypatch.setattr(posets, "_lower_sets", refuse)
    holding, over = independent_lines(12), independent_lines(13)
    for check in (check_intersection_bruteforce, check_strong_intersection):
        report = check(holding)
        assert report.verdict
        assert report.work == {"pairs_checked": 4096 * 4097 // 2, "ranks_computed": 4096}
        with pytest.raises(CapExceeded, match="^poset has more than 4096 lower sets$"):
            check(over)
        with pytest.raises(CapExceeded, match="^poset has more than 7 lower sets$"):
            check(three_lines, cap=7)
        # only a failing certificate lists the lower sets
        with pytest.raises(ListedLowerSets):
            check(three_lines)


def zero_spaces(poset):
    """The zero arrangement on poset, in ℚ^1: its certificate holds."""
    return new_arrangement(poset, 1, QQ, {lab: [] for lab in poset.labels})


def test_a_long_chain_is_counted_without_recursion():
    # 1,500 elements listed bottom first; each element's up-set is every
    # element from it on
    n = 1500
    full = (1 << n) - 1
    chain = Poset([f"c{i}" for i in range(n)], [full & ~((1 << i) - 1) for i in range(n)],
                  [(2 << i) - 1 for i in range(n)])
    for check in (check_intersection_bruteforce, check_strong_intersection):
        report = check(zero_spaces(chain))
        assert report.verdict
        assert report.work == {"pairs_checked": 1501 * 1502 // 2, "ranks_computed": 1501}


def counted_bits(monkeypatch, module):
    """A one-entry list that counts the indices module._bits yields."""
    original, count = module._bits, [0]

    def counting(mask):
        for i in original(mask):
            count[0] += 1
            yield i

    monkeypatch.setattr(module, "_bits", counting)
    return count


def test_the_certificate_counts_skip_zero_components(monkeypatch):
    # the components below each element are summed over the nonzero ones
    # only: Σ|downset| = 1,127,250 indices on the zero chain otherwise
    n = 1500
    full = (1 << n) - 1
    chain = Poset([f"c{i}" for i in range(n)], [full & ~((1 << i) - 1) for i in range(n)],
                  [(2 << i) - 1 for i in range(n)])
    count = counted_bits(monkeypatch, arrangements)
    assert check_intersection_bruteforce(zero_spaces(chain)).verdict
    assert decompose(zero_spaces(chain)).certified
    assert count == [0]
    # twelve one-valued variables: only the empty set's count is nonzero,
    # so each of the 4,096 subsets adds one count, not 3^12 in all
    count = counted_bits(monkeypatch, interactions)
    factor = build_factor_arrangement(ProductSpace(list("abcdefghijkl"), [1] * 12))
    dims = interaction_dimensions(factor)
    assert dims["{}"] == 1 and sum(dims.values()) == 1
    assert count == [4096]


def test_wide_posets_are_refused_after_a_few_components():
    # 2,000 singletons, and 20 disjoint 3-chains of 4 lower sets each
    singletons = [1 << i for i in range(2000)]
    antichain = Poset([f"a{i}" for i in range(2000)], singletons, singletons)
    relations = [(f"c{c}_{k}", f"c{c}_{k + 1}") for c in range(20) for k in range(2)]
    chains = build_poset([f"c{c}_{k}" for c in range(20) for k in range(3)], relations)
    for poset in (antichain, chains):
        arrangement = zero_spaces(poset)
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="^poset has more than 4096 lower sets$"):
            check_strong_intersection(arrangement)
        assert time.perf_counter() - start < 0.5


def test_a_short_section_is_a_contradiction(monkeypatch, c3_growing):
    original = arrangements.complement_rows
    monkeypatch.setattr(
        arrangements, "complement_rows",
        lambda target, rows, count: original(target, rows, count)[:-1],
    )
    for call in (pre_decompose, extend_to_lower_sets):
        with pytest.raises(InternalContradiction, match=r"^the section at 'x' misses"):
            call(c3_growing)
    # the certificate's walk reads a short section as a failed certificate,
    # which contradicts the holding pair scan
    with pytest.raises(InternalContradiction, match="no pair of lower sets fails$"):
        check_strong_intersection(c3_growing)


# ---------------------------------------------------------------------------
# lower-set sums grown from their parents, against per-set subset sums
# ---------------------------------------------------------------------------

def shuffled_poset(rng):
    """A random poset whose elements are listed in shuffled order, so
    element order is rarely a linear extension."""
    base = random_poset(rng, 7)
    labels = list(base.labels)
    rng.shuffle(labels)
    relations = [(a, b) for a in labels for b in labels if a != b and base.leq(a, b)]
    return build_poset(labels, relations)


def against_order_sample(seed, field):
    """A random monotone arrangement on a shuffled_poset."""
    rng = random.Random(seed)
    return random_monotone_arrangement(rng, field, max_dim=4, poset=shuffled_poset(rng))


def grown_walk(arrangement, masks):
    """(mask, grew) over the lower sets masks, where grew says that the
    lower set L gained w(x) = dim F(x) − dim F(x̂*) dimensions over its
    parent L ∖ {x}, a maximal member x removed, all from dim_of_mask."""
    poset = arrangement.poset
    dim = arrangement.dim_of_mask
    out = []
    for m in masks:
        grew = True
        if m:
            x = poset._maximal(m).bit_length() - 1
            w = arrangement.spaces[poset.labels[x]].dim - dim(poset._down[x] & ~(1 << x))
            grew = dim(m) == dim(m & ~(1 << x)) + w
        out.append((m, grew))
    return out


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(SCAN_FIELDS),
)
def test_lower_set_sums_match_per_set_subset_sums(seed, field):
    arr = against_order_sample(seed, field)
    masks = enumerate_lower_sets(arr.poset)
    oracle = against_order_sample(seed, field)
    walk = grown_walk(oracle, masks)
    lattice_masks = lower_set_lattice(arr.poset)[1]
    ext = extend_to_lower_sets(arr)
    assert [ext.spaces[lab] for lab in ext.poset.labels] == [
        oracle.eval_mask(m) for m in lattice_masks
    ]
    expected = full_pair_scan(oracle)
    # d(ℬ) = Σ_{x∈ℬ} w(x) on every lower set exactly when (I) and (sI)
    # hold: the pair identity says d is a valuation (Birkhoff)
    assert all(grew for _, grew in walk) == expected[0]
    for check in (check_intersection_bruteforce, check_strong_intersection):
        assert scan_outcome(check(against_order_sample(seed, field))) == expected


def test_three_lines_grow_short_only_at_their_top_lower_set(three_lines):
    # each line grows the empty set or one other line; the third line
    # adds nothing to the plane the other two span
    masks = enumerate_lower_sets(three_lines.poset)
    walk = grown_walk(three_lines, masks)
    assert [m for m, grew in walk if not grew] == [0b111]


@pytest.mark.parametrize("field", SCAN_FIELDS, ids=repr)
def test_against_order_sample_has_unsorted_posets_and_both_verdicts(field):
    verdicts = set()
    unsorted = 0
    for seed in range(30):
        arr = against_order_sample(seed, field)
        poset = arr.poset
        # some element has a larger one listed before it
        unsorted += any(poset._up[i] & ((1 << i) - 1) for i in range(len(poset.labels)))
        verdicts.add(check_intersection_bruteforce(arr).verdict)
    assert unsorted >= 10
    assert verdicts == {True, False}



# ---------------------------------------------------------------------------
# condition (C) against the reference (C) scan
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(SCAN_FIELDS),
    sample=st.sampled_from([scan_sample, against_order_sample]),
)
def test_condition_C_matches_the_reference_scan(seed, field, sample):
    # every verdict, witness and work count; a failing decompose returns
    # the same witness, on a fresh arrangement so no memo is shared
    expected = full_c_scan(sample(seed, field))
    assert scan_outcome(check_condition_C(sample(seed, field))) == expected
    outcome = decompose(sample(seed, field))
    if expected[0]:
        assert outcome.certified
    else:
        assert outcome.verify()
        assert (outcome.location, outcome.vector) == expected[1:3]


@pytest.mark.parametrize("field", SCAN_FIELDS, ids=repr)
def test_the_reference_C_samples_fail_past_the_first_element(field):
    failures = []
    for seed in range(30):
        for sample in (scan_sample, against_order_sample):
            verdict, _, _, work = full_c_scan(sample(seed, field))
            if not verdict:
                failures.append(work["pairs_checked"])
    assert len(failures) >= 5
    assert max(failures) > 1


# ---------------------------------------------------------------------------
# the decomposition certificate by counting, against the rebuild route
# ---------------------------------------------------------------------------

def rebuild_route(arrangement, comps):
    """Reference certificate: the rank of all components, then the sum of
    the components below each element rebuilt and compared with its
    space, in element order.  Returns (verdict, witness location, vector,
    lhs, rhs, work) for the first failure."""
    poset = arrangement.poset
    field, n = arrangement.field, arrangement.ambient_dim
    parts = [comps[lab] for lab in poset.labels]
    count = len(parts)
    rows = [row for s in parts for row in s.basis]
    if sp(n, rows, field).dim != sum(s.dim for s in parts):
        for i, x in enumerate(poset.labels):
            others = [row for j, s in enumerate(parts) if j != i for row in s.basis]
            meet = intersect(parts[i], sp(n, others, field))
            if meet.dim:
                work = {"pairs_checked": 0, "ranks_computed": 1}
                return False, x, meet.basis[0], meet, zero_subspace(n, field), work
    for i, a in enumerate(poset.labels):
        below = [row for b in downset(poset, a) for row in comps[b].basis]
        rebuilt = sp(n, below, field)
        space = arrangement.spaces[a]
        if rebuilt == space:
            continue
        lhs, rhs = (rebuilt, space)
        if first_outside(rebuilt, space) is None:
            lhs, rhs = space, rebuilt
        work = {"pairs_checked": i + 1, "ranks_computed": i + 2}
        return False, a, lhs.basis[first_outside(lhs, rhs)], lhs, rhs, work
    return True, None, None, None, None, {"pairs_checked": count, "ranks_computed": count + 1}


def verify_outcome(arrangement, comps):
    report, out = verify_decomposition(arrangement, Decomposition(comps))
    assert out.certified == report.verdict
    w = report.witness
    if w is None:
        return True, None, None, None, None, report.work
    assert w.verify()
    return False, w.location, w.vector, w.lhs_space, w.rhs_space, report.work


def first_count_failure(arrangement, comps):
    """Index of the first element, in element order, whose component lies
    outside its space or whose components below miss its dimension."""
    poset = arrangement.poset
    for i, a in enumerate(poset.labels):
        space = arrangement.spaces[a]
        total = sum(comps[b].dim for b in downset(poset, a))
        if total != space.dim or first_outside(comps[a], space) is not None:
            return i
    return None


MUTATIONS = ["none", "drop", "outside", "move"]


def certificate_candidate(sample, field, planted, seed, mutation, pick):
    """An arrangement on a shuffled_poset, monotone or decomposable by
    construction, and its pre-decomposition, possibly broken by one
    mutation at an element chosen by pick: a dropped row, a row from
    outside F(a) in place of one of s_a, or the component moved onto
    another element."""
    rng = random.Random(sample)
    poset = shuffled_poset(rng)
    if planted:
        arr, _ = random_decomposable_arrangement(rng, field, max_dim=4, poset=poset)
    else:
        arr = random_monotone_arrangement(rng, field, max_dim=4, poset=poset)
    comps = dict(pre_decompose(arr, seed=seed).components)
    labels = arr.poset.labels
    n = arr.ambient_dim
    filled = [a for a in labels if comps[a].dim]
    if mutation == "drop" and filled:
        a = filled[pick % len(filled)]
        rows = comps[a].basis
        k = pick % len(rows)
        comps[a] = sp(n, rows[:k] + rows[k + 1:], field)
    elif mutation == "outside" and labels:
        a = labels[pick % len(labels)]
        units = [[int(j == k) for j in range(n)] for k in range(n)]
        outside = [u for u in units if not arr.spaces[a].contains_vector(u)]
        if outside:
            # in place of a row if there is one, so the dimension stays
            rows = list(comps[a].basis)
            vector = outside[pick % len(outside)]
            if rows:
                rows[pick % len(rows)] = vector
            else:
                rows.append(vector)
            comps[a] = sp(n, rows, field)
    elif mutation == "move" and filled and len(labels) > 1:
        a = filled[pick % len(filled)]
        others = [b for b in labels if b != a]
        b = others[pick % len(others)]
        comps[b] = sp(n, list(comps[a].basis) + list(comps[b].basis), field)
        comps[a] = zero_subspace(n, field)
    return arr, comps


@settings(max_examples=300, deadline=None)
@given(
    sample=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(SCAN_FIELDS),
    planted=st.booleans(),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    mutation=st.sampled_from(MUTATIONS),
    pick=st.integers(min_value=0, max_value=63),
)
def test_certificate_by_counting_matches_the_rebuild_route(
    sample, field, planted, seed, mutation, pick
):
    arr, comps = certificate_candidate(sample, field, planted, seed, mutation, pick)
    assert verify_outcome(arr, comps) == rebuild_route(arr, comps)


def test_certificate_candidates_cover_every_route():
    # certified candidates, failures of (i) and of (ii), and (ii) failures
    # whose first failing sum comes before the first failing count
    seen = set()
    for sample in range(40):
        for field in SCAN_FIELDS:
            for planted in (False, True):
                for mutation in MUTATIONS:
                    arr, comps = certificate_candidate(
                        sample, field, planted, None, mutation, sample
                    )
                    expected = rebuild_route(arr, comps)
                    assert verify_outcome(arr, comps) == expected
                    if expected[0]:
                        seen.add("certified")
                    elif expected[5]["pairs_checked"] == 0:
                        seen.add("(i)")
                    else:
                        seen.add("(ii)")
                        failing = arr.poset.labels.index(expected[1])
                        if failing < first_count_failure(arr, comps):
                            seen.add("sum before count")
    assert seen == {"certified", "(i)", "(ii)", "sum before count"}


def test_swapped_lines_fail_the_containment_test():
    # the sum is direct and every count matches; only s_a ⊆ F(a) fails
    arr = new_arrangement(build_poset(["a", "b"], []), 2, QQ, {"a": [[1, 0]], "b": [[0, 1]]})
    comps = {"a": sp(2, [[0, 1]]), "b": sp(2, [[1, 0]])}
    assert [comps[x].dim for x in "ab"] == [arr.spaces[x].dim for x in "ab"] == [1, 1]
    assert first_count_failure(arr, comps) == 0
    outcome = verify_outcome(arr, comps)
    assert outcome == rebuild_route(arr, comps)
    assert outcome[0] is False and outcome[1] == "a" and outcome[2] == (0, 1)
    assert outcome[5] == {"pairs_checked": 1, "ranks_computed": 2}
    # on the chain a < b with F(a) = ⟨e1⟩ ⊂ F(b) = ℚ², the same s_a = ⟨e2⟩
    # and s_b = ⟨e1⟩ pass every count, and a walk on their rows keeps every
    # one; verify_decomposition proves s_a ⊆ F(a) before it walks them
    chain = new_arrangement(build_poset(["a", "b"], [("a", "b")]), 2, QQ,
                            {"a": [[1, 0]], "b": [[1, 0], [0, 1]]})
    kept = arrangements._certified_sections(chain, [comps[x].exact_rows() for x in "ab"])
    assert kept is not None and list(map(len, kept)) == [1, 1]
    assert first_count_failure(chain, comps) == 0
    assert verify_outcome(chain, comps) == rebuild_route(chain, comps) == outcome


class EnteredRebuild(Exception):
    pass


def refuse_rebuild(*args):
    raise EnteredRebuild


def test_certified_decompose_takes_no_subset_sum(monkeypatch, c3_growing):
    # holding checks and a certified decompose sum no F(x̂*) and no other
    # subset: neither sum_echelon nor Arrangement._sum_echelon runs
    def refuse(*args):
        pytest.fail("a holding certificate took a subset sum")

    monkeypatch.setattr(arrangements, "_first_rebuild_failure", refuse_rebuild)
    monkeypatch.setattr(arrangements, "sum_echelon", refuse)
    monkeypatch.setattr(arrangements.Arrangement, "_sum_echelon", refuse)
    product = ProductSpace(["x0", "x1", "x2"], (2, 2, 2))
    factor = build_factor_arrangement(product, GF(7)).arrangement
    planted, _ = random_decomposable_arrangement(random.Random(0), QQ, 6, 6)
    for arr in (factor, c3_growing, planted):
        for seed in (None, 3):
            out = decompose(arr, seed=seed)
            assert isinstance(out, Decomposition) and out.certified
        assert check_condition_C(arr).verdict
        assert check_intersection_bruteforce(arr).verdict


WALK_SOURCES = ["monotone", "planted", "against order"]


def walk_sample(sample, field, source):
    """A randgen arrangement, or an against_order_sample one, whose element
    order is rarely a linear extension."""
    if source == "against order":
        return against_order_sample(sample, field)
    rng = random.Random(sample)
    if source == "planted":
        return random_decomposable_arrangement(rng, field)[0]
    return random_monotone_arrangement(rng, field)


def walk_outcome(arr, seed):
    """decompose's verdict and, when certified, its components."""
    out = decompose(arr, seed=seed)
    if isinstance(out, Decomposition):
        assert out.certified
        return True, out.components
    assert out.verify()
    return False, None


def section_route(arr, seed):
    """The same by another route: (C) from full_c_scan's ranks, and the
    components that pre_decompose keeps against each F(x̂*)."""
    if full_c_scan(arr)[0]:
        return True, pre_decompose(arr, seed=seed).components
    return False, None


@settings(max_examples=300, deadline=None)
@given(
    sample=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(SCAN_FIELDS),
    source=st.sampled_from(WALK_SOURCES),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
def test_the_certificate_walk_matches_the_section_route(sample, field, source, seed):
    arr = walk_sample(sample, field, source)
    assert walk_outcome(arr, seed) == section_route(arr, seed)


def is_linear_extension(poset):
    return all(poset._down[i] >> (i + 1) == 0 for i in range(len(poset.labels)))


def test_walk_samples_cover_both_verdicts_against_the_element_order():
    # seeded certified decompositions on element orders that are not linear
    # extensions are where drawing the mixes in walk order would show
    seen = set()
    for sample in range(30):
        for field in SCAN_FIELDS:
            for source in WALK_SOURCES:
                arr = walk_sample(sample, field, source)
                for seed in (None, 1):
                    outcome = walk_outcome(arr, seed)
                    assert outcome == section_route(arr, seed)
                    seen.add((outcome[0], seed is None, is_linear_extension(arr.poset)))
    assert (True, False, False) in seen and (False, False, False) in seen
    assert (True, True, True) in seen and (False, True, True) in seen


def test_a_holding_check_C_inserts_one_row_per_element(monkeypatch):
    # every interaction space of binary variables is a line: each element
    # keeps w(x) = 1 row, and the walk stops at it
    inserted = []
    original = IntEchelon.insert

    def counting(self, row):
        inserted.append(row)
        return original(self, row)

    monkeypatch.setattr(IntEchelon, "insert", counting)
    product = ProductSpace([f"x{i}" for i in range(5)], (2,) * 5)
    for field in (QQ, GF(101)):
        factor = build_factor_arrangement(product, field).arrangement
        arr = new_arrangement(factor.poset, factor.ambient_dim, field, factor.spaces)
        inserted.clear()
        report = check_condition_C(arr)
        assert report.verdict
        assert report.work == {"pairs_checked": 32, "ranks_computed": 96}
        assert len(inserted) == 32


def test_failing_decompose_never_rebuilds(monkeypatch, three_lines):
    monkeypatch.setattr(arrangements, "_first_rebuild_failure", refuse_rebuild)
    out = decompose(three_lines)
    assert isinstance(out, Witness) and out.verify()


def test_verify_decomposition_rebuilds_only_after_a_count_failure(
    monkeypatch, c3_growing, three_lines
):
    calls = []
    original = arrangements._first_rebuild_failure

    def recording(arrangement, comps):
        calls.append(arrangement)
        return original(arrangement, comps)

    monkeypatch.setattr(arrangements, "_first_rebuild_failure", recording)
    # certified, and (i) failing: decided without a rebuild
    for arr in (c3_growing, three_lines):
        verify_decomposition(arr, pre_decompose(arr))
    assert calls == []
    # (ii) failing: one rebuild locates the witness at the first element
    cand = Decomposition({"x": zero_subspace(2), "y": zero_subspace(2),
                          "z": sp(2, [[0, 1]])})
    report, _ = verify_decomposition(c3_growing, cand)
    assert calls == [c3_growing]
    assert report.witness.location == "x"
    # a failed walk on direct components, every sum of which rebuilds,
    # contradicts the proof; it too rebuilds once
    cand = pre_decompose(c3_growing)
    monkeypatch.setattr(arrangements, "_certified_sections", lambda *args: None)
    with pytest.raises(InternalContradiction):
        verify_decomposition(c3_growing, cand)
    assert calls == [c3_growing, c3_growing]


# ---------------------------------------------------------------------------
# seeded sections and vector splitting against the field-element rules
# ---------------------------------------------------------------------------

ALL_FIELDS = [QQ, GF(2), GF(7), GF(101)]


def field_element_invertible(field, k, rng):
    """Random invertible k x k matrix of field elements (Fractions over ℚ),
    drawn with the same rng calls as linalg.random_invertible."""
    if k == 0:
        return []
    while True:
        if field.kind == "rational":
            entries = [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
        else:
            entries = [[rng.randrange(field.p) for _ in range(k)] for _ in range(k)]
        if IntEchelon(field, map(field.exact_row, entries)).rank == k:
            return entries


def field_element_seeded_sections(arrangement, seed):
    """The seeded section rule on pivot-one rows: a matrix of field elements
    mixes each Subspace.basis, and the mixed rows go back to kernel rows."""
    field = arrangement.field
    rng = random.Random(seed)
    components = {}
    for i, a in enumerate(arrangement.poset.labels):
        basis = arrangement.spaces[a].basis
        mixed = [
            [field.parse(sum(c * r[j] for c, r in zip(coeffs, basis)))
             for j in range(arrangement.ambient_dim)]
            for coeffs in field_element_invertible(field, len(basis), rng)
        ]
        rows = [field.exact_row(r) for r in mixed]
        kept = arrangements._section_rows(arrangement, i, rows)
        components[a] = IntEchelon(field, kept).subspace(arrangement.ambient_dim)
    return components


@settings(max_examples=150, deadline=None)
@given(
    sample=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(ALL_FIELDS),
)
def test_seeded_sections_match_the_field_element_rule(sample, field):
    arr = against_order_sample(sample, field)
    for seed in range(4):
        got = pre_decompose(arr, seed=seed).components
        assert got == field_element_seeded_sections(arr, seed)


@settings(max_examples=100, deadline=None)
@given(
    sample=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(ALL_FIELDS),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
def test_decomposition_of_splits_into_the_components(sample, field, seed):
    rng = random.Random(sample)
    arr, _ = random_decomposable_arrangement(rng, field)
    dec = decompose(arr, seed=seed)
    assert dec.certified
    full = arr.eval_mask((1 << len(arr.poset.labels)) - 1).basis
    weights = [rng.randint(-3, 3) for _ in full]
    v = tuple(
        field.parse(sum(w * row[i] for w, row in zip(weights, full)))
        for i in range(arr.ambient_dim)
    )
    parts = decomposition_of(arr, dec, v)
    assert list(parts) == list(arr.poset.labels)
    for lab, part in parts.items():
        assert dec.components[lab].contains_vector(part)
    total = tuple(
        field.parse(sum(part[i] for part in parts.values()))
        for i in range(arr.ambient_dim)
    )
    assert total == v
