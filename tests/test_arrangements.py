"""Arrangements: validation, property checkers, decomposition, functoriality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdec import arrangements
from interdec.arrangements import (
    CheckReport,
    Decomposition,
    Witness,
    check_condition_C,
    check_intersection_bruteforce,
    check_monotonicity,
    check_strong_intersection,
    decompose,
    decomposition_of,
    eval_lower_set,
    extend_to_lower_sets,
    interval_restrict,
    new_arrangement,
    pre_decompose,
    pushforward,
    restrict,
    verify_decomposition,
)
from interdec.errors import (
    DuplicateLabel,
    InputError,
    InternalContradiction,
    NotComparable,
    NotMonotone,
    NotMonotoneMap,
    VectorOutsideArrangement,
)
from interdec.interactions import build_factor_arrangement, build_product_space
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
from interdec.posets import build_poset, downset, enumerate_lower_sets, lower_set_lattice

from randgen import random_decomposable_arrangement, random_monotone_arrangement, random_poset


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


def test_eval_lower_set(three_lines, c3_constant):
    assert eval_lower_set(three_lines, ["a1", "a2"]) == full_space(2)
    assert eval_lower_set(three_lines, []) == zero_subspace(2)
    assert eval_lower_set(c3_constant, ["x"]) == full_space(2)


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
    with pytest.raises(InputError, match="misses element 'x'"):
        verify_decomposition(arr, Decomposition({}))
    # the extra component makes the sum not direct; it is refused like a
    # missing one rather than certified
    cand = Decomposition({"x": sp(2, [[1, 0]]), "ghost": sp(2, [[1, 0]])})
    with pytest.raises(InputError, match="unknown element 'ghost'"):
        verify_decomposition(arr, cand)


def test_decompose_three_lines_returns_witness(three_lines):
    out = decompose(three_lines)
    assert isinstance(out, Witness)
    assert out.verify()


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

    monkeypatch.setattr(arrangements, "check_condition_C", refuse)
    planted, _ = random_decomposable_arrangement(random.Random(0), GF(7), 6, 6)
    for arr in (c3_constant, c3_growing, planted):
        for seed in (None, 3):
            out = decompose(arr, seed=seed)
            assert isinstance(out, Decomposition) and out.certified


def test_decompose_failure_returns_the_condition_C_witness(monkeypatch, three_lines):
    expected = check_condition_C(three_lines).witness
    # the certificate fails at (i) here; decompose reads only that verdict
    # and builds no direct-sum witness of its own
    monkeypatch.setattr(
        arrangements, "_direct_sum_witness",
        lambda *args: pytest.fail("decompose built a direct-sum witness"),
    )
    out = decompose(three_lines)
    assert (out.location, out.vector, out.lhs_space, out.rhs_space) == (
        expected.location, expected.vector, expected.lhs_space, expected.rhs_space
    )
    # a failed certificate while (C) holds contradicts the theory
    monkeypatch.setattr(
        arrangements, "check_condition_C", lambda arr: CheckReport("C", None, 3, 9)
    )
    with pytest.raises(InternalContradiction):
        decompose(three_lines)


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
    with pytest.raises(VectorOutsideArrangement):
        decomposition_of(arr, dec, [0, 1])
    with pytest.raises(InputError):
        decomposition_of(arr, Decomposition(dec.components, certified=False), [1, 0])


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

def test_restrict(three_lines, c3_constant):
    single = restrict(three_lines, ["a1"])
    assert isinstance(decompose(single), Decomposition)

    tail = restrict(c3_constant, ["y", "z"])
    assert tail.poset.labels == ("y", "z")
    assert tail.poset.leq("y", "z")
    assert tail.spaces["y"] == full_space(2)


def test_interval_restrict(c3_constant, c3_growing, three_lines):
    head = interval_restrict(c3_constant, "x", "y")
    assert head.poset.labels == ("x", "y")
    assert head.spaces["x"] == full_space(2)

    tail = interval_restrict(c3_growing, "y", "z")
    # bottom carries the downset sum from the parent
    assert tail.spaces["y"] == eval_lower_set(
        c3_growing, downset(c3_growing.poset, "y")
    )
    assert tail.spaces["y"] == sp(2, [[1, 0]])

    with pytest.raises(NotComparable):
        interval_restrict(three_lines, "a1", "a2")


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
    with pytest.raises(NotMonotoneMap):
        pushforward({"u": "a", "v": "b"}, arr, a2)
    with pytest.raises(NotMonotoneMap):
        pushforward({"u": "a"}, arr, a2)
    # x ≤ z breaks too, but the named pair is the failing cover
    c3 = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    arr = new_arrangement(c3, 1, QQ, {"x": [], "y": [], "z": []})
    with pytest.raises(NotMonotoneMap, match="^map does not preserve 'y' ≤ 'z'$"):
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


def test_extend_to_lower_sets(c3_constant):
    ext = extend_to_lower_sets(c3_constant)
    assert ext.poset.labels == ("{}", "{x}", "{x,y}", "{x,y,z}")
    assert ext.spaces["{}"] == zero_subspace(2)
    assert ext.spaces["{x,y,z}"] == full_space(2)
    # a 4-chain
    assert ext.poset.leq("{}", "{x,y,z}")
    out = decompose(ext)
    assert isinstance(out, Decomposition)


def test_extend_rejects_colliding_lower_set_names():
    # {a,b} names both the lower set of element "a,b" and that of a and b
    poset = build_poset(["a,b", "a", "b"], [])
    arr = new_arrangement(poset, 1, QQ, {"a,b": [], "a": [], "b": []})
    with pytest.raises(DuplicateLabel, match=r"^duplicate element '\{a,b\}'$"):
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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from([QQ, GF(2), GF(7)]),
    picks=st.lists(st.integers(min_value=0), max_size=6),
)
def test_subset_sums_match_all_members_reference(seed, field, picks):
    arr = random_monotone_arrangement(random.Random(seed), field)
    full = (1 << len(arr.poset.labels)) - 1
    masks = [0, full] + [p & full for p in picks]
    for mask in masks:
        reference = all_members_sum(arr, mask)
        assert arr.dim_of_mask(mask) == reference.dim
        assert arr.eval_mask(mask) == reference
    # a fresh arrangement has empty memos, so eval_mask computes here
    fresh = random_monotone_arrangement(random.Random(seed), field)
    for mask in masks:
        assert fresh.eval_mask(mask) == all_members_sum(fresh, mask)


def test_subset_sum_inserts_only_non_seed_maximal_rows(monkeypatch):
    product = build_product_space(["a", "b", "c", "d"], (2, 2, 2, 2))
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

def full_pair_scan(arrangement):
    """Reference (I)/(sI) scan: rank every lower set, then test the pair
    identity on every pair in scan order and convict the first failure.
    Returns (verdict, witness location, witness vector, work)."""
    poset = arrangement.poset
    masks = enumerate_lower_sets(poset)
    dims = {m: arrangement.dim_of_mask(m) for m in masks}
    pairs = 0
    for i, mi in enumerate(masks):
        for mj in masks[i:]:
            pairs += 1
            if dims[mi] + dims[mj] - dims[mi | mj] == dims[mi & mj]:
                continue
            lhs = intersect(arrangement.eval_mask(mi), arrangement.eval_mask(mj))
            rhs = arrangement.eval_mask(mi & mj)
            vector = lhs.basis[first_outside(lhs, rhs)]
            location = (poset._labels_of(mi), poset._labels_of(mj))
            return False, location, vector, {"pairs_checked": pairs, "ranks_computed": len(masks)}
    return True, None, None, {"pairs_checked": pairs, "ranks_computed": len(masks)}


def scan_outcome(report):
    witness = report.witness
    if witness is None:
        return report.verdict, None, None, report.work
    assert witness.verify()
    return report.verdict, witness.location, witness.vector, report.work


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
            # lower sets grow from their parents: at most one subset sum
            # per element, F(x̂*) for the section each element adds
            assert len(sums) <= len(arr.poset.labels)
    # the patched loop is the one a failing scan runs
    with pytest.raises(EnteredPairLoop):
        check_intersection_bruteforce(three_lines)


# ---------------------------------------------------------------------------
# lower-set echelons grown from their parents, against per-set subset sums
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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from(SCAN_FIELDS),
)
def test_lower_set_echelons_match_per_set_subset_sums(seed, field):
    arr = against_order_sample(seed, field)
    masks = enumerate_lower_sets(arr.poset)
    oracle = against_order_sample(seed, field)
    walk = [(m, acc.rank, grew)
            for m, acc, grew in arrangements._lower_set_echelons(arr, masks)]
    assert [m for m, rank, _ in walk if rank == oracle.dim_of_mask(m)] == masks
    lattice_masks = lower_set_lattice(arr.poset)[1]
    ext = extend_to_lower_sets(arr)
    assert [ext.spaces[lab] for lab in ext.poset.labels] == [
        oracle.eval_mask(m) for m in lattice_masks
    ]
    expected = full_pair_scan(oracle)
    # every step grows by its whole section exactly when (I) and (sI) hold
    assert all(grew for _, _, grew in walk) == expected[0]
    for check in (check_intersection_bruteforce, check_strong_intersection):
        assert scan_outcome(check(against_order_sample(seed, field))) == expected


def test_only_the_top_lower_set_of_three_lines_fails_to_grow(three_lines):
    # each line grows the empty set or one other line; the third line
    # adds nothing to the plane the other two span
    masks = enumerate_lower_sets(three_lines.poset)
    walk = arrangements._lower_set_echelons(three_lines, masks)
    assert [m for m, _, grew in walk if not grew] == [0b111]


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


class EnteredRebuild(Exception):
    pass


def refuse_rebuild(*args):
    raise EnteredRebuild


def test_certified_decompose_takes_no_subset_sum(monkeypatch, c3_growing):
    sums = []
    original = arrangements.sum_echelon

    def counting(spaces, field):
        sums.append(spaces)
        return original(spaces, field)

    monkeypatch.setattr(arrangements, "_first_rebuild_failure", refuse_rebuild)
    monkeypatch.setattr(arrangements, "sum_echelon", counting)
    product = build_product_space(["x0", "x1", "x2"], (2, 2, 2))
    factor = build_factor_arrangement(product, GF(7)).arrangement
    for arr in (factor, c3_growing):
        for seed in (None, 3):
            # fresh copies, so neither run sees the other's memos
            fresh = [new_arrangement(arr.poset, arr.ambient_dim, arr.field, arr.spaces)
                     for _ in range(2)]
            sums.clear()
            pre_decompose(fresh[0], seed=seed)
            sections = len(sums)
            sums.clear()
            out = decompose(fresh[1], seed=seed)
            assert isinstance(out, Decomposition) and out.certified
            # certifying adds no subset sum to those of the sections
            assert len(sums) == sections


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
    # a failed count on which every sum rebuilds contradicts the proof
    monkeypatch.setattr(arrangements, "_certificate_failure", lambda *args: "(ii)")
    with pytest.raises(InternalContradiction):
        verify_decomposition(c3_growing, pre_decompose(c3_growing))


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
    full = arr.full_space_value().basis
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
