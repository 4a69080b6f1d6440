"""Exact linear algebra: canonical forms, set operations, certificates."""

from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interdec import linalg
from interdec.errors import (
    DimensionMismatch,
    InputError,
    InternalContradiction,
    NotContained,
)
from interdec.linalg import (
    GF,
    QQ,
    IntEchelon,
    Matrix,
    complement_within,
    contains,
    first_outside,
    full_space,
    intersect,
    is_direct_sum,
    rank_of_rows,
    rref,
    solve_exact,
    subspace_from_generators,
    sum_echelon,
    sum_subspaces,
    zero_subspace,
)


def Q(x):
    return Fraction(x)


def sp(ambient, rows, field=QQ):
    return subspace_from_generators(ambient, rows, field)


# the three lines in the plane used throughout
def L1():
    return sp(2, [[1, 0]])


def L2():
    return sp(2, [[0, 1]])


def L3():
    return sp(2, [[1, 1]])


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_rational_parse_and_format():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse(-2) == Fraction(-2)
    assert QQ.format(Fraction(3, 4)) == "3/4"
    assert QQ.format(Fraction(5, 1)) == 5
    with pytest.raises(InputError):
        QQ.parse("1/0")
    with pytest.raises(InputError):
        QQ.parse("a")
    with pytest.raises(InputError):
        QQ.parse(0.5)
    assert QQ.parse("0.5") == Fraction(1, 2)


def test_rational_parse_rejects_exponents_quickly():
    # Fraction itself would read "1e1000000000" as a billion-digit integer
    for text in ("1e1000000000", "1E1000000000", "2.5e3", "-1e-2"):
        start = perf_counter()
        with pytest.raises(InputError, match="not a rational entry"):
            QQ.parse(text)
        assert perf_counter() - start < 1.0


def test_prime_field_requires_prime():
    with pytest.raises(InputError):
        GF(4)
    with pytest.raises(InputError):
        GF(1)
    GF(2)
    GF(97)


def test_prime_field_large_moduli():
    t0 = perf_counter()
    assert GF(2**61 - 1).p == 2**61 - 1
    assert GF(2**64 - 59).p == 2**64 - 59
    # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(InputError, match="must be prime"):
        GF(3215031751)
    # above the bound where the twelve Miller-Rabin bases are proven exact
    with pytest.raises(InputError, match="must be below"):
        GF(2**89 - 1)
    assert perf_counter() - t0 < 1


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if linalg._is_prime(n)] == [
        n for n in range(5000) if trial(n)
    ]
    # Carmichael numbers and strong pseudoprimes to small bases
    for n in (561, 1105, 1729, 2047, 1373653, 25326001, 3215031751, 341550071728321):
        assert not linalg._is_prime(n), n


def test_prime_field_arithmetic():
    f = GF(5)
    assert f.parse(7) == 2
    with pytest.raises(InputError):
        f.parse("2")


# ---------------------------------------------------------------------------
# rref / rank
# ---------------------------------------------------------------------------

def test_rref_scaling():
    m = Matrix.from_rows([[Q(2), Q(0)], [Q(0), Q(3)]])
    assert rref(m).row_lists() == [[1, 0], [0, 1]]


def test_rref_zero_matrix_keeps_shape():
    m = Matrix.from_rows([[Q(0), Q(0)], [Q(0), Q(0)]])
    r = rref(m)
    assert (r.rows, r.cols) == (2, 2)
    assert r.row_lists() == [[0, 0], [0, 0]]


def test_rref_duplicate_row():
    m = Matrix.from_rows([[Q(1), Q(1)], [Q(1), Q(1)]])
    assert rref(m).row_lists() == [[1, 1], [0, 0]]


def test_rank_examples():
    assert rank_of_rows([[0] * 3] * 2, QQ) == 0
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert rank_of_rows(ident, QQ) == 4
    assert rank_of_rows([[1, 2], [2, 4]], QQ) == 1


def test_matrix_shape_checked():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, (Q(1), Q(2), Q(3)))
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[Q(1), Q(2)], [Q(3)]])


# ---------------------------------------------------------------------------
# subspace construction
# ---------------------------------------------------------------------------

def test_subspace_from_generators_examples():
    s = sp(2, [[1, 0], [2, 0]])
    assert s.dim == 1
    assert s == L1()

    assert sp(2, []).dim == 0
    assert sp(2, []) == zero_subspace(2)

    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert sp(4, ident) == full_space(4)


def test_subspace_generator_dimension_check():
    with pytest.raises(DimensionMismatch):
        sp(3, [[1, 0]])


def test_subspace_accepts_string_entries():
    s = sp(2, [["1/2", 0]])
    assert s == L1()


def test_canonical_basis_form():
    s = sp(3, [[2, 4, 0], [1, 2, 1]])
    # pivots 1, zeros above and below, increasing pivot columns
    assert s.basis == ((Q(1), Q(2), Q(0)), (Q(0), Q(0), Q(1)))


# ---------------------------------------------------------------------------
# sum / intersect / contains
# ---------------------------------------------------------------------------

def test_sum_examples():
    assert sum_subspaces(L1(), L2()) == full_space(2)
    u = sp(2, [[1, 2]])
    assert sum_subspaces(u, zero_subspace(2)) == u
    assert sum_subspaces(L1(), L3()) == full_space(2)


def test_intersect_examples():
    assert intersect(full_space(2), L3()) == L3()
    assert intersect(L1(), L2()) == zero_subspace(2)
    u = sp(3, [[1, 0, 0], [0, 1, 0]])
    w = sp(3, [[0, 1, 0], [0, 0, 1]])
    assert intersect(u, w) == sp(3, [[0, 1, 0]])


def test_intersect_modular_law_failure_is_internal_contradiction(monkeypatch):
    # a wrong dim(U + W) stands in for a kernel bug the cross-check must catch
    monkeypatch.setattr(linalg, "rank_of_rows", lambda rows, field: 0)
    with pytest.raises(InternalContradiction):
        intersect(L1(), L2())


def test_contains_examples():
    assert contains(full_space(2), L1())
    assert not contains(L1(), L3())
    assert contains(L1(), zero_subspace(2))


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        sum_subspaces(L1(), sp(3, [[1, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        intersect(L1(), sp(3, [[1, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        sum_subspaces(L1(), sp(2, [[1, 0]], GF(2)))


def test_membership_of_single_vectors():
    assert L3().contains_vector([2, 2])
    assert not L3().contains_vector([1, 0])
    assert L3().contains_vector([0, 0])


# ---------------------------------------------------------------------------
# complements and direct sums
# ---------------------------------------------------------------------------

def test_complement_examples():
    u = sp(3, [[1, 0, 0], [0, 1, 1]])
    assert complement_within(zero_subspace(3), u) == u
    assert complement_within(u, u) == zero_subspace(3)
    # greedy rule on the full plane against the first axis keeps (0,1)
    assert complement_within(L1(), full_space(2)) == L2()


def test_complement_requires_containment():
    with pytest.raises(NotContained):
        complement_within(L3(), L1())


def test_is_direct_sum_examples():
    assert is_direct_sum([L1(), L2()])
    assert not is_direct_sum([L1(), L2(), L3()])
    u = sp(2, [[1, 2]])
    assert is_direct_sum([u, zero_subspace(2), zero_subspace(2)])
    assert is_direct_sum([])


def test_solve_exact():
    cols = [(Q(1), Q(0)), (Q(1), Q(1))]
    assert solve_exact(cols, (Q(3), Q(2)), QQ) == [Q(1), Q(2)]
    assert solve_exact([(Q(1), Q(0))], (Q(0), Q(1)), QQ) is None


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

entries = st.integers(min_value=-3, max_value=3)


def rows_strategy(ambient, max_rows=4):
    return st.lists(
        st.lists(entries, min_size=ambient, max_size=ambient),
        min_size=0,
        max_size=max_rows,
    )


@st.composite
def subspace_pairs(draw):
    ambient = draw(st.integers(min_value=1, max_value=5))
    field = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    u = sp(ambient, draw(rows_strategy(ambient)), field)
    w = sp(ambient, draw(rows_strategy(ambient)), field)
    return u, w


@given(subspace_pairs())
def test_modular_law(pair):
    u, w = pair
    meet = intersect(u, w)
    join = sum_subspaces(u, w)
    assert meet.dim + join.dim == u.dim + w.dim
    assert contains(u, meet) and contains(w, meet)
    assert contains(join, u) and contains(join, w)


@given(subspace_pairs())
def test_sum_is_commutative_and_canonical(pair):
    u, w = pair
    assert sum_subspaces(u, w) == sum_subspaces(w, u)
    assert intersect(u, w) == intersect(w, u)


@st.composite
def generators_two_ways(draw):
    """One subspace described by two different generating sets."""
    ambient = draw(st.integers(min_value=1, max_value=5))
    field = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    base = draw(rows_strategy(ambient))
    parsed = [[field.parse(e) for e in r] for r in base]
    # second description: sums of pairs plus scalings, same span
    other = list(parsed)
    for i in range(len(parsed)):
        j = (i + 1) % len(parsed)
        other.append(
            [field.parse(a + b) for a, b in zip(parsed[i], parsed[j])]
        )
        other.append([field.parse(a + a) for a in parsed[i]])
    return ambient, field, base, other


@given(generators_two_ways())
def test_canonicity_across_generating_sets(case):
    ambient, field, base, other = case
    assert sp(ambient, base, field) == sp(ambient, other, field)


@given(subspace_pairs())
def test_complement_certificate(pair):
    u, w = pair
    big = sum_subspaces(u, w)
    s = complement_within(w, big)
    assert is_direct_sum([s, w])
    assert sum_subspaces(s, w) == big
    assert s.dim == big.dim - w.dim


def pinned_element_direct(parts, ambient, field):
    """Pinned-element criterion: each part meets the sum of the others in 0."""
    for i, x in enumerate(parts):
        others = [y for j, y in enumerate(parts) if j != i]
        rest = sum_echelon(others, field).subspace(ambient)
        if intersect(x, rest).dim != 0:
            return False
    return True


@st.composite
def subspace_lists(draw):
    ambient = draw(st.integers(min_value=1, max_value=6))
    field = draw(st.sampled_from([QQ, GF(2)]))
    count = draw(st.integers(min_value=1, max_value=5))
    parts = [
        sp(ambient, draw(rows_strategy(ambient, max_rows=2)), field)
        for _ in range(count)
    ]
    return ambient, field, parts


@settings(max_examples=60)
@given(subspace_lists())
def test_direct_sum_agrees_with_pinned_criterion(case):
    ambient, field, parts = case
    assert is_direct_sum(parts) == pinned_element_direct(parts, ambient, field)


@given(subspace_pairs())
def test_operations_are_deterministic(pair):
    u, w = pair
    assert intersect(u, w) == intersect(u, w)
    assert sum_subspaces(u, w) == sum_subspaces(u, w)
    assert complement_within(
        intersect(u, w), sum_subspaces(u, w)
    ) == complement_within(intersect(u, w), sum_subspaces(u, w))


# ---------------------------------------------------------------------------
# differential tests against the field-op elimination the kernel replaced
# ---------------------------------------------------------------------------

def reference_rref(rows, field):
    """The former field-op rref loop, on lists of parsed field elements."""
    if field.kind == "rational":
        def sub(a, b):
            return a - b

        def mul(a, b):
            return a * b

        def inv(a):
            return 1 / a
    else:
        p = field.p

        def sub(a, b):
            return (a - b) % p

        def mul(a, b):
            return a * b % p

        def inv(a):
            return pow(a, p - 2, p)

    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivot = 0
    for col in range(n):
        target = None
        for r in range(pivot, m):
            if rows[r][col]:
                target = r
                break
        if target is None:
            continue
        rows[pivot], rows[target] = rows[target], rows[pivot]
        s = inv(rows[pivot][col])
        rows[pivot] = [mul(s, x) for x in rows[pivot]]
        for r in range(m):
            if r != pivot and rows[r][col]:
                c = rows[r][col]
                prow = rows[pivot]
                rows[r] = [sub(x, mul(c, y)) for x, y in zip(rows[r], prow)]
        pivot += 1
        if pivot == m:
            break
    return rows


def reference_basis(rows, field):
    return tuple(tuple(r) for r in reference_rref(rows, field) if any(r))


def reference_intersect(u_basis, w_basis, n, field):
    """The former block-rref intersection on [U | U; W | 0]."""
    stacked = [list(r) + list(r) for r in u_basis]
    stacked += [list(r) + [field.zero] * n for r in w_basis]
    right = [
        r[n:] for r in reference_rref(stacked, field) if not any(r[:n]) and any(r[n:])
    ]
    return reference_basis(right, field)


@st.composite
def generator_lists(draw, field=None, ambient=None):
    """Generators with zero rows and duplicate rows mixed in; may be empty."""
    if field is None:
        field = draw(st.sampled_from([QQ, GF(2), GF(7), GF(101)]))
    if ambient is None:
        ambient = draw(st.integers(min_value=0, max_value=5))
    if field.kind == "rational":
        entry = st.one_of(
            entries, st.fractions(min_value=-3, max_value=3, max_denominator=4)
        )
    else:
        entry = st.integers(min_value=-2 * field.p, max_value=2 * field.p)
    rows = draw(st.lists(st.lists(entry, min_size=ambient, max_size=ambient), max_size=4))
    extra = draw(st.lists(st.sampled_from(rows + [[0] * ambient]), max_size=3))
    rows = draw(st.permutations(rows + extra))
    return field, ambient, [[field.parse(e) for e in r] for r in rows]


@given(generator_lists())
def test_subspace_basis_matches_reference_rref(case):
    field, ambient, rows = case
    assert sp(ambient, rows, field).basis == reference_basis(rows, field)


@given(generator_lists())
def test_rref_matches_reference_rref(case):
    field, ambient, rows = case
    got = rref(Matrix.from_rows(rows, cols=ambient), field)
    assert (got.rows, got.cols) == (len(rows), ambient)
    assert got.row_lists() == reference_rref(rows, field)


@st.composite
def generator_list_pairs(draw):
    field, ambient, u_rows = draw(generator_lists())
    _, _, w_rows = draw(generator_lists(field, ambient))
    return field, ambient, u_rows, w_rows


@given(generator_list_pairs())
def test_intersect_matches_reference_block_rref(case):
    field, ambient, u_rows, w_rows = case
    u, w = sp(ambient, u_rows, field), sp(ambient, w_rows, field)
    expected = reference_intersect(
        reference_basis(u_rows, field), reference_basis(w_rows, field), ambient, field
    )
    assert intersect(u, w).basis == expected


def reference_solve(columns, target, field):
    """The former rref solve: reduce the augmented rows to pivot one and
    read each pivot row's target entry."""
    k = len(columns)
    rows = [[column[i] for column in columns] + [t] for i, t in enumerate(target)]
    coeffs = [field.zero] * k
    for row in reference_rref(rows, field):
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot == k:
            return None
        if pivot is not None:
            coeffs[pivot] = row[k]
    return coeffs


@st.composite
def solve_cases(draw):
    """Columns with zero, repeated and combined (dependent) ones mixed in,
    and a target drawn freely (so often outside their span) or combined
    from them; over ℚ the weights are fractions, so a solution read off
    the kernel's integer rows needs their pivots divided out."""
    field, n, columns = draw(generator_lists())
    if field.kind == "rational":
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1)

    def combination():
        weights = draw(st.lists(scalar, min_size=len(columns), max_size=len(columns)))
        return [
            field.parse(sum(w * column[i] for w, column in zip(weights, columns)))
            for i in range(n)
        ]

    if columns and draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), combination())
    if columns and draw(st.booleans()):
        target = combination()
    else:
        target = [field.parse(x) for x in draw(st.lists(scalar, min_size=n, max_size=n))]
    return field, columns, target


@given(solve_cases())
@example((QQ, [[Q(2)]], [Q(1)]))
def test_solve_exact_matches_reference_rref_solve(case):
    field, columns, target = case
    assert solve_exact(columns, target, field) == reference_solve(columns, target, field)


# ---------------------------------------------------------------------------
# the shared subspace sum and first-row-outside scan against plain references
# ---------------------------------------------------------------------------

def reference_sum_echelon(spaces, field):
    """Every summand's rows inserted in order into one fresh echelon."""
    acc = IntEchelon(field)
    for space in spaces:
        for row in space.exact_rows():
            acc.insert(row)
    return acc


def reference_first_outside(source, target):
    """First k whose row an echelon built afresh from the target lacks."""
    acc = IntEchelon(target.field, target.exact_rows())
    for k, row in enumerate(source.exact_rows()):
        if not acc.contains_row(row):
            return k
    return None


@st.composite
def subspace_families(draw):
    """0-5 subspaces in shuffled order: random ones, zero spaces, and
    duplicates (the same object again, or an equal one rebuilt)."""
    field = draw(st.sampled_from([QQ, GF(2), GF(7)]))
    ambient = draw(st.integers(min_value=0, max_value=5))
    spaces = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(["random", "random", "zero", "same", "equal"]))
        if kind == "zero":
            spaces.append(zero_subspace(ambient, field))
        elif kind in ("same", "equal") and spaces:
            earlier = draw(st.sampled_from(spaces))
            spaces.append(earlier if kind == "same" else sp(ambient, earlier.basis, field))
        else:
            _, _, rows = draw(generator_lists(field, ambient))
            spaces.append(sp(ambient, rows, field))
    return field, ambient, draw(st.permutations(spaces))


@given(subspace_families())
def test_sum_echelon_matches_inserting_every_row(case):
    field, ambient, spaces = case
    got = sum_echelon(spaces, field)
    expected = reference_sum_echelon(spaces, field)
    assert got.rank == expected.rank
    assert got.subspace(ambient) == expected.subspace(ambient)


@given(generator_list_pairs())
def test_first_outside_matches_fresh_echelon_scan(case):
    field, ambient, u_rows, w_rows = case
    u, w = sp(ambient, u_rows, field), sp(ambient, w_rows, field)
    assert first_outside(u, w) == reference_first_outside(u, w)
    assert first_outside(w, u) == reference_first_outside(w, u)
    assert first_outside(u, u) is None


@given(generator_list_pairs())
def test_echelon_copies_and_subspaces_are_independent(case):
    field, ambient, u_rows, w_rows = case
    rows = [field.exact_row([field.parse(e) for e in r]) for r in u_rows]
    extra = [field.exact_row([field.parse(e) for e in r]) for r in w_rows]
    acc = IntEchelon(field, rows)
    space = acc.subspace(ambient)
    twin = acc.copy()
    assert (twin.rows, twin.pivots) == (acc.rows, acc.pivots)
    for row in extra:
        twin.insert(row)
        space.echelon().insert(row)
    # inserting into the copies moved neither the original nor the subspace
    assert acc.subspace(ambient) == space == sp(ambient, u_rows, field)
    for row in extra:
        acc.insert(row)
    assert space == sp(ambient, u_rows, field)
    assert twin.subspace(ambient) == acc.subspace(ambient) == sp(ambient, u_rows + w_rows, field)
