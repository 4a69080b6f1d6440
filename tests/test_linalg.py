"""Exact linear algebra: canonical forms, set operations, certificates."""

import random
import re
import sys
from fractions import Fraction
from math import lcm
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interdec import linalg
from interdec.arrangements import decompose, decomposition_of
from interdec.errors import CapExceeded, InputError, InternalContradiction
from interdec.linalg import (
    GF,
    QQ,
    IntEchelon,
    complement_within,
    contains,
    first_outside,
    full_space,
    intersect,
    is_direct_sum,
    random_invertible,
    rank_of_rows,
    rref,
    subspace_from_generators,
    sum_echelon,
    sum_subspaces,
    zero_subspace,
)

from parse_reference import (
    reference_exact_row,
    reference_kernel_space,
    reference_parse,
    reference_parse_rows,
)
from randgen import random_decomposable_arrangement


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

# forms int() and Fraction() accept that the number rule refuses: '_'
# between digits, surrounding whitespace, other scripts' digits
LOOSE_NUMBER_TEXTS = ["1_0", " 1/2 ", "\t2\n", "\x1c5", "١/٢", "٣", "1/2_0"]


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
    for text in LOOSE_NUMBER_TEXTS:
        with pytest.raises(InputError, match="not a rational entry"):
            QQ.parse(text)


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


def test_a_modulus_that_is_not_an_int_is_shown_as_given():
    # the text "7" is not the prime 7, and the message says which it got
    with pytest.raises(InputError, match="^modulus must be prime, got '7'$"):
        GF("7")
    with pytest.raises(InputError, match="^modulus must be prime, got 7.0$"):
        GF(7.0)
    with pytest.raises(InputError, match="^modulus must be prime, got 9$"):
        GF(9)


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


FRACTION_ENTRIES = (
    st.fractions(max_denominator=10**6) | st.integers(-(10**30), 10**30).map(Fraction)
)

DOCUMENT_ENTRIES = (
    st.integers(-(10**30), 10**30)
    | FRACTION_ENTRIES
    | st.builds(
        lambda sign, p, q: f"{sign}{p}/{q}",
        st.sampled_from(["", "-"]),
        st.integers(0, 10**20),
        st.integers(1, 10**6),
    )
    | st.sampled_from(["0.5", "-7", True, False, 1.5, None, "1e3", "1/0", "nan", [1]])
    | st.sampled_from(LOOSE_NUMBER_TEXTS)
)


def row_outcome(to_kernel, field, row):
    """The kernel row, or the message of the InputError raised instead."""
    try:
        return to_kernel(field, row)
    except InputError as exc:
        return "InputError", str(exc)


@given(
    st.sampled_from([QQ, GF(2), GF(7), GF(101)]),
    st.lists(FRACTION_ENTRIES, max_size=6) | st.lists(DOCUMENT_ENTRIES, max_size=6),
)
@example(QQ, [True])
@example(GF(7), [-8, 15, 10**30])
def test_exact_row_matches_the_fraction_product(field, row):
    # one pass over document entries against the two-pass route it
    # replaced: every entry parsed to a field element, then the kernel row
    assert row_outcome(type(field).exact_row, field, row) == row_outcome(
        reference_exact_row, field, row
    )
    if field is QQ and all(isinstance(e, Fraction) for e in row):
        # the integers are those of the old expression int(e * scale)
        scale = lcm(1, *(e.denominator for e in row))
        assert QQ.exact_row(row) == linalg._primitive([int(e * scale) for e in row])


@given(
    st.sampled_from([QQ, GF(7)]),
    st.lists(st.lists(DOCUMENT_ENTRIES, min_size=1, max_size=3), max_size=3),
)
@example(QQ, [[True, 0], [1]])
def test_subspace_from_generators_matches_the_two_pass_route(field, rows):
    # rows are read in order, each checked for its length before its
    # entries are parsed, as the loader has always read them
    def build(route):
        try:
            return route()
        except InputError as exc:
            return type(exc).__name__, str(exc)

    assert build(lambda: subspace_from_generators(2, rows, field, "rows")) == build(
        lambda: reference_kernel_space(2, reference_parse_rows(rows, 2, field, "rows"), field)
    )


# texts over the number rule's characters, and the forms of "p/q" that
# Fraction(text) refuses, reads as zero or reads without a slash
NUMBER_TEXTS = st.text("-+./0123456789", max_size=12)
RATIO_EDGE_TEXTS = [
    "3/0", "+0/07", "3/-4", "/4", "3/", "1.5/2", "0.5", "-.5", "1/2/3",
    "-7/2", "+12/08", "9" * 5000 + "/7", "7/" + "9" * 5000,
]


def parse_outcome(parse, text):
    """The parsed value with its type, or the message of the InputError."""
    try:
        value = parse(text)
    except InputError as exc:
        return "InputError", str(exc)
    return type(value), value


def assert_reads_as_the_fraction_route(texts):
    for text in texts:
        assert parse_outcome(QQ.parse, text) == parse_outcome(
            lambda t: reference_parse(QQ, t), text
        )
    assert row_outcome(type(QQ).exact_row, QQ, texts) == row_outcome(
        reference_exact_row, QQ, texts
    )


@pytest.mark.parametrize("text", RATIO_EDGE_TEXTS, ids=lambda t: t[:12])
def test_rational_text_edge_cases_read_as_the_fraction_route(text):
    assert_reads_as_the_fraction_route([text])
    assert_reads_as_the_fraction_route([text, 1, "2/3"])


@given(st.lists(NUMBER_TEXTS | st.sampled_from(RATIO_EDGE_TEXTS), min_size=1, max_size=3))
def test_rational_texts_read_as_the_fraction_route(texts):
    # QQ.parse splits "p/q" into two ints; every text gives the value, or
    # the message, of the number rule's check followed by Fraction(text)
    assert_reads_as_the_fraction_route(texts)


@st.composite
def kernel_rows_with_pivot(draw):
    """A primitive ℚ kernel row whose pivot, its first nonzero entry, is
    not one: entries up to 2**80 in size, both signs."""
    entry = st.integers(-(2**80), 2**80)
    row = linalg._primitive(draw(st.lists(entry, min_size=1, max_size=6)))
    pivot = next((x for x in row if x), 1)
    if pivot == 1:
        row = (0,) * draw(st.integers(0, 2)) + (draw(st.integers(2, 2**80)), 1) + row
        pivot = next(x for x in row if x)
    return row, pivot


@given(kernel_rows_with_pivot())
@example(((6, -4, 0, 9, 3), 6))
def test_format_row_matches_formatting_the_pivot_one_row(case):
    row, pivot = case
    assert QQ.format_row(row, pivot) == [QQ.format(x) for x in QQ.pivot_one(row)]


@pytest.fixture
def lowest_digit_limit():
    # 640 is the lowest limit the interpreter takes
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


def format_outcome(format_row, row):
    try:
        return format_row(row)
    except CapExceeded as exc:
        return "CapExceeded", str(exc)


def test_format_row_refuses_overlong_terms_before_making_text(lowest_digit_limit):
    # as test_overlong_output_entry_is_size_limit, but on the kernel rows
    # themselves: entries past the limit, which the interpreter refuses
    # to turn into text, so a CapExceeded shows the check came first
    rng = random.Random(5)
    big = 10**lowest_digit_limit
    a, b = 10**400 + 1, 10**400 + 3
    rows = [
        linalg._primitive([rng.randrange(big, 10 * big) * rng.choice((1, -1))
                           for _ in range(3)])
        for _ in range(4)
    ] + [(3, 1, big), (big + 1, 1), (2, 5, big * 2 + 1)]
    for row in rows:
        pivot = next(x for x in row if x)
        assert pivot != 1
        expected = format_outcome(lambda r: [QQ.format(x) for x in QQ.pivot_one(r)], row)
        assert expected[0] == "CapExceeded"
        assert format_outcome(lambda r: QQ.format_row(r, pivot), row) == expected
    # a pivot past the limit whose lowest terms all fit is written, as
    # before: the row (ab, a, b) is (1, 1/b, 1/a)
    assert a * b > 10**lowest_digit_limit
    assert QQ.format_row((a * b, a, b), a * b) == [1, f"1/{b}", f"1/{a}"]


@settings(deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(7)]), st.randoms(use_true_random=False))
def test_generated_subspace_takes_over_its_echelon(field, rng):
    # subspace_from_generators hands its private echelon to the Subspace;
    # the result is IntEchelon.subspace's, rows and pivots as tuples.  Rows
    # up to 20 wide and mostly zeros, so some pivot rows are sparse
    def entry():
        if rng.random() < 0.6:
            return 0
        if field is QQ and rng.random() < 0.3:
            return f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}"
        return rng.randint(-3, 3)

    ambient = rng.randint(0, 20)
    rows = [[entry() for _ in range(ambient)] for _ in range(rng.randint(0, 8))]
    space = subspace_from_generators(ambient, rows, field)
    reference = IntEchelon(field, [field.exact_row(r) for r in rows]).subspace(ambient)
    assert space == reference
    assert space.pivots == reference.pivots
    assert type(space.exact_rows()) is tuple and type(space.pivots) is tuple
    assert space.echelon().sparse == reference.echelon().sparse


# ---------------------------------------------------------------------------
# indicator rows, which are canonical without elimination
# ---------------------------------------------------------------------------

@st.composite
def indicator_sets(draw):
    """Disjoint ascending column sets ordered by first column; some columns
    lie in none."""
    ambient = draw(st.integers(min_value=0, max_value=8))
    owner = draw(st.lists(st.integers(min_value=-1, max_value=3),
                          min_size=ambient, max_size=ambient))
    sets = {}
    for col, k in enumerate(owner):
        if k >= 0:
            sets.setdefault(k, []).append(col)
    return ambient, sorted(sets.values())


@given(indicator_sets(), st.sampled_from([QQ, GF(2), GF(7)]))
def test_indicator_subspace_matches_elimination(case, field):
    ambient, supports = case
    rows = [[int(c in support) for c in range(ambient)] for support in supports]
    space = linalg._indicator_subspace(ambient, supports, field)
    assert space == sp(ambient, rows, field)
    assert space.pivots == tuple(support[0] for support in supports)


@pytest.mark.parametrize("supports", [
    [[]], [[0, 0]], [[1, 0]], [[3]], [[-1]], [[0], [0, 1]], [[0, 2], [1, 2]], [[2], [1]],
])
def test_indicator_subspace_rejects_any_other_form(supports):
    with pytest.raises(InternalContradiction):
        linalg._indicator_subspace(3, supports, QQ)


# ---------------------------------------------------------------------------
# rref / rank
# ---------------------------------------------------------------------------

def test_rref_scaling():
    assert rref([[Q(2), Q(0)], [Q(0), Q(3)]]) == ((1, 0), (0, 1))


def test_rref_zero_and_no_rows_give_no_basis():
    assert rref([[Q(0), Q(0)], [Q(0), Q(0)]]) == ()
    assert rref([]) == ()


def test_rref_duplicate_row():
    assert rref([[Q(1), Q(1)], [Q(1), Q(1)]]) == ((1, 1),)


def test_rank_examples():
    assert rank_of_rows([[0] * 3] * 2, QQ) == 0
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert rank_of_rows(ident, QQ) == 4
    assert rank_of_rows([[1, 2], [2, 4]], QQ) == 1


def test_rref_ragged_rows_raise():
    with pytest.raises(InputError, match=r"^generators\[1\]: expected a row of 2 entries$"):
        rref([[Q(1), Q(2)], [Q(3)]])


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
    with pytest.raises(InputError, match=r"^generators\[0\]: expected a row of 3 entries$"):
        sp(3, [[1, 0]])


@pytest.mark.parametrize("gens, message", [
    (None, "generators: expected a list of generator rows"),
    (5, "generators: expected a list of generator rows"),
    ([5], "generators[0]: expected a row of 2 entries"),
    (["ab"], "generators[0]: expected a row of 2 entries"),
    ([[1, 0], [1, "x"]], "generators[1]: not a rational entry: 'x'"),
])
def test_subspace_from_generators_refuses_what_is_not_rows(gens, message):
    # a documented InputError naming the row, never a TypeError
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        sp(2, gens)
    message = message.replace("generators", "here")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        subspace_from_generators(2, gens, QQ, "here")


@pytest.mark.parametrize("ambient", [-1, -2, True, 2.0, "2", None])
def test_constructors_refuse_an_ambient_dimension_that_is_not_a_count(ambient):
    # an InputError before any row is read, never a Subspace of F^-2 or a
    # bare ValueError or TypeError
    message = f"^{re.escape(f'ambient dimension: expected a count, got {ambient!r}')}$"
    for make in (
        lambda: subspace_from_generators(ambient, []),
        lambda: subspace_from_generators(ambient, [[1, 0]], QQ, "here"),
        lambda: zero_subspace(ambient, GF(7)),
        lambda: full_space(ambient),
    ):
        with pytest.raises(InputError, match=message):
            make()


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
    with pytest.raises(InputError, match=r"^incompatible subspaces: .* vs .*F\^3 over QQ\)$"):
        sum_subspaces(L1(), sp(3, [[1, 0, 0]]))
    with pytest.raises(InputError, match=r"^incompatible subspaces: .* vs .*F\^3 over QQ\)$"):
        intersect(L1(), sp(3, [[1, 0, 0]]))
    with pytest.raises(InputError, match=r"^incompatible subspaces: .* vs .* over GF\(2\)\)$"):
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
    with pytest.raises(InputError, match=r"^Subspace\(dim 1 .+ is not contained in Subspace\(dim 1 .+\)$"):
        complement_within(L3(), L1())


def test_is_direct_sum_examples():
    assert is_direct_sum([L1(), L2()])
    assert not is_direct_sum([L1(), L2(), L3()])
    u = sp(2, [[1, 2]])
    assert is_direct_sum([u, zero_subspace(2), zero_subspace(2)])
    assert is_direct_sum([])


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
    stacked += [list(r) + [field.parse(0)] * n for r in w_basis]
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
    assert rref(rows, field) == reference_basis(rows, field)


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
    coeffs = [field.parse(0)] * k
    for row in reference_rref(rows, field):
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot == k:
            return None
        if pivot is not None:
            coeffs[pivot] = row[k]
    return coeffs


@settings(max_examples=100, deadline=None)
@given(
    sample=st.integers(min_value=0, max_value=2**32 - 1),
    field=st.sampled_from([QQ, GF(2), GF(7)]),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    zero=st.booleans(),
)
def test_decomposition_of_matches_the_reference_rref_solve(sample, field, seed, zero):
    # the old route: solve for v in the components' pivot-one bases by
    # reference_solve, then sum each component's share of the solution
    rng = random.Random(sample)
    arr, _ = random_decomposable_arrangement(rng, field)
    dec = decompose(arr, seed=seed)
    full = arr.eval_mask((1 << len(arr.poset.labels)) - 1).basis
    if field.kind == "rational":
        weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in full]
    else:
        weights = [rng.randrange(field.p) for _ in full]
    v = tuple(
        field.parse(0 if zero else sum(w * row[i] for w, row in zip(weights, full)))
        for i in range(arr.ambient_dim)
    )
    bases = [dec.components[lab].basis for lab in arr.poset.labels]
    coeffs = iter(reference_solve([row for basis in bases for row in basis], v, field))
    expected = {
        lab: tuple(
            field.parse(sum(c * row[i] for c, row in zip(own, basis)))
            for i in range(arr.ambient_dim)
        )
        for lab, basis in zip(arr.poset.labels, bases)
        for own in [[next(coeffs) for _ in basis]]
    }
    assert decomposition_of(arr, dec, v) == expected


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
    inside = [space.contains_row(row) for row in extra]
    for row in extra:
        acc.insert(row)
    assert space == sp(ambient, u_rows, field)
    assert twin.subspace(ambient) == acc.subspace(ambient) == sp(ambient, u_rows + w_rows, field)
    # the subspace holds tuples, so inserting into acc left what it
    # contains unchanged, not only its stored rows
    assert [space.contains_row(row) for row in extra] == inside
    assert type(space.exact_rows()) is tuple and type(space.pivots) is tuple


# ---------------------------------------------------------------------------
# the sparse elimination path against the reference rref
# ---------------------------------------------------------------------------

WIDE_FIELDS = [QQ, GF(2), GF(7), GF(101)]


def wide_rows(rng, field):
    """Up to twelve parsed rows 16 to 40 wide, most of them mostly zeros:
    0/1 indicator rows, sparse rows of small entries whose first entry
    need not be one, and now and then a dense row."""
    ambient = rng.randint(16, 40)
    rows = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.choice(("indicator", "indicator", "sparse", "sparse", "dense"))
        if kind == "dense":
            row = [rng.randint(-3, 3) for _ in range(ambient)]
        else:
            row = [0] * ambient
            for c in rng.sample(range(ambient), rng.randint(1, ambient // 3)):
                row[c] = 1 if kind == "indicator" else rng.choice((-3, -2, -1, 1, 2, 3))
        rows.append([field.parse(e) for e in row])
    return ambient, rows


def counting_eliminations(monkeypatch, field):
    """Counts of the field's eliminations against dense and sparse pivot rows."""
    counts = {"dense": 0, "sparse": 0}
    original = type(field).eliminate

    def counting(self, row, pivot_row, col, *support):
        counts["sparse" if support and support[0] is not None else "dense"] += 1
        return original(self, row, pivot_row, col, *support)

    monkeypatch.setattr(type(field), "eliminate", counting)
    return counts


@settings(max_examples=60)
@given(st.sampled_from(WIDE_FIELDS), st.randoms(use_true_random=False))
def test_wide_sparse_rows_match_reference_rref(field, rng):
    ambient, rows = wide_rows(rng, field)
    space = sp(ambient, rows, field)
    assert space.basis == reference_basis(rows, field)
    assert rref(rows, field) == reference_basis(rows, field)
    # membership goes through the same residue as the rank
    for row in rows:
        assert space.contains_vector(row)


@pytest.mark.parametrize("field", WIDE_FIELDS, ids=repr)
def test_the_wide_sample_takes_both_elimination_paths(monkeypatch, field):
    # the sparse rule splits the sample: indicator rows and, over GF(p),
    # every sparse row are eliminated against on their supports; dense
    # rows, and over ℚ sparse rows whose pivot entry is not one, by the
    # whole-row comprehension; both must give the reference rows
    counts = counting_eliminations(monkeypatch, field)
    rng = random.Random(f"wide:{field!r}")
    for _ in range(40):
        ambient, rows = wide_rows(rng, field)
        assert sp(ambient, rows, field).basis == reference_basis(rows, field)
    assert counts["dense"] > 0 and counts["sparse"] > 0


def test_the_kernel_never_writes_into_a_callers_rows():
    # a sparse elimination updates its row in place, so the kernel copies
    # a caller's row before the first one
    rng = random.Random(7)
    for field in WIDE_FIELDS:
        for _ in range(20):
            _, rows = wide_rows(rng, field)
            kernel_rows = [list(field.exact_row(row)) for row in rows]
            before = [list(row) for row in kernel_rows]
            rank_of_rows(kernel_rows, field)
            assert kernel_rows == before
    # random_invertible returns the very rows it ranked; 24 random bits
    # a row make sparse rows over GF(2)
    for field, k in ((GF(2), 24), (GF(7), 16), (QQ, 8)):
        drawn = random.Random(k)
        while True:
            if field.kind == "rational":
                expected = [[drawn.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            else:
                expected = [[drawn.randrange(field.p) for _ in range(k)] for _ in range(k)]
            parsed = [[field.parse(x) for x in row] for row in expected]
            if len(reference_basis(parsed, field)) == k:
                break
        assert random_invertible(field, k, random.Random(k)) == expected


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_a_full_rank_echelon_contains_every_row_without_eliminating(monkeypatch, field):
    rng = random.Random(f"full:{field!r}")
    acc = IntEchelon(field, random_invertible(field, 6, rng))
    assert acc.rank == 6
    counts = counting_eliminations(monkeypatch, field)
    for _ in range(20):
        row = field.exact_row([rng.randint(-9, 9) for _ in range(6)])
        assert acc.contains_row(row) and not acc.insert(row)
    assert counts == {"dense": 0, "sparse": 0}
