"""Acceptance gate: eight binding criteria, exact arithmetic, no tolerances.

Each criterion is one test; `pytest -v` shows one PASSED/FAILED line per
criterion, and each test prints a matching summary line.
"""

import random
import time

import pytest

from interdec.arrangements import (
    Decomposition,
    check_condition_C,
    check_intersection_bruteforce,
    check_strong_intersection,
    decompose,
    extend_to_lower_sets,
    new_arrangement,
    pre_decompose,
    pushforward,
    verify_decomposition,
)
from interdec.interactions import ProductSpace, build_factor_arrangement, interaction_dimensions
from interdec.linalg import (
    GF,
    QQ,
    intersect,
    is_direct_sum,
    subspace_from_generators,
    sum_echelon,
    sum_subspaces,
    zero_subspace,
)
from interdec.posets import build_poset

from randgen import (
    random_decomposable_arrangement,
    random_embedding,
    random_monotone_arrangement,
    random_poset,
    random_rows,
)
from scan_reference import full_c_scan, full_pair_scan, scan_outcome


# ---------------------------------------------------------------------------
# shared suites
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite1():
    """200 random arrangements (≤ 6 elements, ambient ≤ 6, ℚ and GF(2)),
    with all three verdict routes computed once."""
    rng = random.Random(10007)
    cases = []
    t0 = time.monotonic()
    for k in range(200):
        field = QQ if k % 2 == 0 else GF(2)
        arr = random_monotone_arrangement(rng, field, max_elements=6, max_dim=6)
        verdict_c = check_condition_C(arr).verdict
        verdict_i = check_intersection_bruteforce(arr).verdict
        outcome = decompose(arr)
        decomposed = outcome if isinstance(outcome, Decomposition) else None
        cases.append((arr, verdict_c, verdict_i, decomposed))
    elapsed = time.monotonic() - t0
    return {"cases": cases, "elapsed": elapsed}


@pytest.fixture(scope="module")
def suite3():
    """Factor arrangements for the four cardinality tuples of criterion 3."""
    t0 = time.monotonic()
    out = []
    for sizes in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        labels = [f"x{i + 1}" for i in range(len(sizes))]
        factor = build_factor_arrangement(ProductSpace(labels, sizes))
        out.append((sizes, factor))
    return {"factors": out, "built_at": t0}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_equivalence_suite(suite1):
    """decompose ⇔ (C) ⇔ (I) on 200 random arrangements, < 30 s.

    decompose's verdict is the certificate of its pre-decomposition; it
    scans (C) only to explain a failed certificate.  check_condition_C and
    check_intersection_bruteforce read that same certificate, so (C) is
    also decided by the reference (C) scan and (I) by the full pair scan,
    from per-set ranks alone.
    """
    agreements = 0
    decomposable = 0
    for arr, verdict_c, verdict_i, decomposed in suite1["cases"]:
        assert verdict_c == verdict_i == (decomposed is not None), arr
        assert full_pair_scan(arr)[0] == verdict_i, arr
        assert full_c_scan(arr)[0] == verdict_c, arr
        agreements += 1
        decomposable += decomposed is not None
    assert agreements == 200
    assert suite1["elapsed"] < 30.0
    print(
        f"\n[PASS] criterion 1: 200/200 verdict agreements "
        f"(decompose = (C) = (I)); {decomposable} decomposable; "
        f"{suite1['elapsed']:.2f}s < 30s"
    )


def test_criterion_2_three_lines_counterexample():
    """Three pairwise different lines: not decomposable, witness verifiable."""
    l1 = subspace_from_generators(2, [[1, 0]])
    l2 = subspace_from_generators(2, [[0, 1]])
    l3 = subspace_from_generators(2, [[1, 1]])
    poset = build_poset(["a1", "a2", "a3"], [])
    arr = new_arrangement(poset, 2, QQ, {"a1": l1, "a2": l2, "a3": l3})
    outcome = decompose(arr)
    assert not isinstance(outcome, Decomposition)
    assert outcome.verify()
    assert not is_direct_sum([l1, l2, l3])
    print(
        "\n[PASS] criterion 2: three-lines arrangement refused with a "
        f"re-verified witness at {outcome.location!r}; direct-sum test false"
    )


def test_criterion_3_interaction_decomposition(suite3):
    """Factor arrangements decompose; dim totals 4, 6, 9, 8; oracle agrees."""
    t0 = time.monotonic()
    expected_totals = {(2, 2): 4, (2, 3): 6, (3, 3): 9, (2, 2, 2): 8}
    for sizes, factor in suite3["factors"]:
        arr = factor.arrangement
        expected = full_pair_scan(arr)
        assert expected[0], sizes
        assert scan_outcome(check_intersection_bruteforce(arr)) == expected, sizes
        outcome = decompose(arr)
        assert isinstance(outcome, Decomposition) and outcome.certified, sizes
        # interaction_dimensions counts the structurally certified keys of
        # the closed form, a route independent of decompose
        dims = interaction_dimensions(factor)
        assert dims == outcome.dims(), sizes
        assert sum(dims.values()) == expected_totals[sizes], sizes
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        "\n[PASS] criterion 3: (2,2) (2,3) (3,3) (2,2,2) all pass (I), "
        f"decompose certifies, totals 4/6/9/8 match the oracle; {elapsed:.2f}s < 10s"
    )


def test_criterion_4_decomposable_implies_strong_intersection(suite1, suite3):
    """Everything certified in suites 1 and 3 passes (sI), by the checker
    and by the full pair scan, which reads no certificate."""
    checked = 0
    certified = [arr for arr, _, _, decomposed in suite1["cases"] if decomposed is not None]
    certified += [factor.arrangement for _, factor in suite3["factors"]]
    for arr in certified:
        expected = full_pair_scan(arr)
        assert expected[0], arr
        assert scan_outcome(check_strong_intersection(arr)) == expected, arr
        checked += 1
    print(
        f"\n[PASS] criterion 4: all {checked} certified arrangements "
        "satisfy the strong intersection property"
    )


def test_criterion_5_predecomposition_freedom(suite1):
    """20 seeded-random sections per decomposable suite-1 case all verify."""
    cases = 0
    sections = 0
    for arr, _, _, decomposed in suite1["cases"]:
        if decomposed is None:
            continue
        cases += 1
        for seed in range(20):
            candidate = pre_decompose(arr, seed=seed)
            report, certified = verify_decomposition(arr, candidate)
            assert report.verdict and certified.certified, (arr, seed)
            sections += 1
    assert sections == 20 * cases
    print(
        f"\n[PASS] criterion 5: {sections} randomized sections over "
        f"{cases} decomposable arrangements all verified as decompositions"
    )


def test_criterion_6_pushforward_transfer():
    """Verdicts transfer along 50 random order-embeddings; zero-extensions verify."""
    rng = random.Random(60001)
    transferred = 0
    zero_extended = 0
    for k in range(50):
        mapping, source, target = random_embedding(rng, max_target=5)
        field = QQ if k % 2 == 0 else GF(2)
        if k % 3 == 0:
            arr, _ = random_decomposable_arrangement(
                rng, field, max_dim=5, poset=source
            )
        else:
            arr = random_monotone_arrangement(rng, field, max_dim=5, poset=source)
        pushed = pushforward(mapping, arr, target)
        out_src = decompose(arr)
        out_dst = decompose(pushed)
        src_ok = isinstance(out_src, Decomposition)
        dst_ok = isinstance(out_dst, Decomposition)
        assert src_ok == dst_ok, (mapping, arr)
        transferred += 1
        if src_ok:
            zero = zero_subspace(arr.ambient_dim, arr.field)
            comps = {b: zero for b in target.labels}
            for a in source.labels:
                comps[mapping[a]] = out_src.components[a]
            report, certified = verify_decomposition(pushed, Decomposition(comps))
            assert report.verdict and certified.certified, (mapping, arr)
            zero_extended += 1
    assert transferred == 50
    assert zero_extended >= 10
    print(
        f"\n[PASS] criterion 6: 50/50 embedding verdict transfers; "
        f"{zero_extended} zero-extended decompositions verified"
    )


def test_criterion_7_lower_set_extension():
    """Extensions of decomposable arrangements to the lower-set lattice decompose."""
    rng = random.Random(70001)
    extended = 0
    refused = 0
    k = 0
    while extended < 30 or refused < 10:
        k += 1
        field = QQ if k % 2 == 0 else GF(2)
        if extended < 30:
            arr, _ = random_decomposable_arrangement(
                rng, field, max_elements=5, max_dim=5
            )
            ext = extend_to_lower_sets(arr)
            assert isinstance(decompose(ext), Decomposition), arr
            extended += 1
        else:
            arr = random_monotone_arrangement(rng, field, max_elements=5, max_dim=5)
            if isinstance(decompose(arr), Decomposition):
                continue
            ext = extend_to_lower_sets(arr)
            assert not isinstance(decompose(ext), Decomposition), arr
            refused += 1
    print(
        f"\n[PASS] criterion 7: {extended} lower-set extensions of decomposable "
        f"arrangements decomposed; {refused} non-decomposable stayed refused"
    )


def test_criterion_8_linear_algebra_kernel():
    """Modular law on 500 pairs; direct-sum criterion vs pinned-element scan."""
    rng = random.Random(80001)
    t0 = time.monotonic()
    for k in range(500):
        field = QQ if k % 2 == 0 else GF(2)
        ambient = rng.randint(1, 8)
        u = subspace_from_generators(
            ambient, random_rows(rng, ambient, field, rng.randint(0, 4)), field
        )
        w = subspace_from_generators(
            ambient, random_rows(rng, ambient, field, rng.randint(0, 4)), field
        )
        meet = intersect(u, w)
        join = sum_subspaces(u, w)
        assert meet.dim + join.dim == u.dim + w.dim

    agreements = 0
    for k in range(200):
        field = QQ if k % 2 == 0 else GF(2)
        ambient = rng.randint(1, 6)
        parts = [
            subspace_from_generators(
                ambient, random_rows(rng, ambient, field, rng.randint(0, 2)), field
            )
            for _ in range(rng.randint(1, 5))
        ]
        pinned = all(
            intersect(
                part,
                sum_echelon(
                    [q for j, q in enumerate(parts) if j != i], field
                ).subspace(ambient),
            ).dim == 0
            for i, part in enumerate(parts)
        )
        assert is_direct_sum(parts) == pinned
        agreements += 1
    elapsed = time.monotonic() - t0
    assert agreements == 200
    assert elapsed < 10.0
    print(
        "\n[PASS] criterion 8: 500 modular-law identities and 200 direct-sum "
        f"criterion agreements, exact; {elapsed:.2f}s < 10s"
    )
