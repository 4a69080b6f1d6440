"""Exact linear algebra over the rationals and prime fields.

One elimination kernel does all the work: IntEchelon, fraction-free
elimination on integer rows.  Over ℚ its rows are primitive integer
vectors combined by cross multiplication (Bareiss-style, so no fraction
ever arises); over GF(p) they are residues mod p with pivot one.  A
sparse pivot row, one with pivot entry one (every row over GF(p), 0/1
indicator rows over ℚ) that is at least half zeros and has at least eight
zeros, is eliminated against on its nonzero columns only, in place; any
other pivot row rebuilds the whole row.  Both give the same integers, as
only updates of zero entries are skipped.  A subspace of F^d is stored
by the kernel's fully reduced echelon rows, which are canonical: two
Subspace values describe the same set of vectors exactly when their
stored rows are identical.  Field elements (`fractions.Fraction` over ℚ,
never for an integer entry) appear only at the edges: input, which
exact_row parses once, and `Subspace.basis`.
No floating point appears anywhere.
"""

from __future__ import annotations

import re
import reprlib
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import compress, islice
from math import gcd, lcm
from operator import mul

from .errors import CapExceeded, InputError, InternalContradiction


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class RationalField:
    """Arbitrary-precision rationals (the default coefficient field)."""

    kind = "rational"

    def parse(self, value):
        """Accept ints, Fractions, or strings like '-3/7' or '0.5' that
        keep the number rule of _read_number."""
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return _read_number(value, Fraction)
            except (ValueError, ZeroDivisionError):
                pass
        raise InputError(f"not a rational entry: {_shown(value)}")

    def format(self, element):
        """Document form: an int or "p/q".  Parts longer than the
        interpreter's integer-to-text limit raise CapExceeded."""
        _check_digits(element.numerator)
        _check_digits(element.denominator)
        if element.denominator == 1:
            return int(element)
        return f"{element.numerator}/{element.denominator}"

    def format_row(self, row, pivot):
        """Document form of the pivot-one row that the integer kernel row
        spans, given its pivot entry, which is positive, and no Fraction
        made: each entry x is x/pivot in lowest terms, x/g over pivot/g for
        g = gcd(x, pivot), an int when pivot/g is one.  A row with pivot
        one is its own pivot-one row.  The digit limit is checked on the
        largest of those integers before any text is made."""
        if pivot == 1:
            _check_digits(max(max(row), -min(row)))
            return row
        terms = [(x // g, pivot // g) for x in row for g in [gcd(x, pivot)]]
        _check_digits(max(max(abs(n), d) for n, d in terms))
        return [n if d == 1 else f"{n}/{d}" for n, d in terms]

    def exact_row(self, row):
        """Integer row for the kernel from document entries or field
        elements, denominators cleared and content divided out.  An int
        (never a bool) or a Fraction is taken as is, anything else parsed;
        an all-int row is recognised in one pass over the entry types."""
        if set(map(type, row)) <= {int}:
            return _primitive(row)
        row = [e if type(e) is int or type(e) is Fraction else self.parse(e) for e in row]
        scale = lcm(*(e.denominator for e in row))
        return _primitive([e.numerator * (scale // e.denominator) for e in row])

    def pivot_one(self, row):
        """The rational row with pivot one that a nonzero kernel row spans."""
        pivot = next(x for x in row if x)
        return tuple(Fraction(x, pivot) for x in row)

    def eliminate(self, row, pivot_row, col, support):
        """Cross-multiplied elimination of row[col] against an integer pivot
        row: a new list, or, given the support of a pivot row with pivot
        entry one, row itself updated on those columns."""
        c = row[col]
        if support is None:
            p = pivot_row[col]
            return [p * x - c * y for x, y in zip(row, pivot_row)]
        for j in support:
            row[j] -= c * pivot_row[j]
        return row

    def normalize_int_row(self, row):
        return _primitive(row)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.kind)


class PrimeField:
    """Integers modulo a prime p."""

    kind = "modular"

    def __init__(self, p):
        if isinstance(p, int) and p >= _PRIME_LIMIT:
            raise InputError(f"modulus must be below {_PRIME_LIMIT}, got {p!r}")
        if not _is_prime(p):
            raise InputError(f"modulus must be prime, got {p!r}")
        self.p = p

    def parse(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"not a mod-{self.p} entry: {_shown(value)}")
        return value % self.p

    def format(self, element):
        return element % self.p

    def format_row(self, row, pivot):
        # kernel rows mod p are residues with pivot one, so already their
        # own document form
        return row

    def exact_row(self, row):
        """Residue row for the kernel from document entries or field
        elements, each reduced once: ints (never bools) here, others by parse."""
        p = self.p
        return tuple([e % p if type(e) is int else self.parse(e) for e in row])

    def pivot_one(self, row):
        # kernel rows mod p already have pivot one
        return tuple(row)

    def eliminate(self, row, pivot_row, col, support):
        """Elimination of row[col] against a pivot row with pivot entry one,
        so no inverse: a new list of residues, or, given the pivot row's
        support, row itself with only those columns updated and reduced."""
        c = row[col]
        p = self.p
        if support is None:
            return [(x - c * y) % p for x, y in zip(row, pivot_row)]
        for j in support:
            row[j] = (row[j] - c * pivot_row[j]) % p
        return row

    def normalize_int_row(self, row):
        p = self.p
        for x in row:
            if x % p:
                if x % p != 1:
                    s = pow(x, p - 2, p)
                    return tuple([v * s % p for v in row])
                break
        return tuple([v % p for v in row])

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))


QQ = RationalField()
GF = PrimeField


# Miller–Rabin with the twelve prime bases 2..37 decides primality exactly
# for every n below this bound (Sorenson & Webster, Math. Comp. 2017).
_PRIME_LIMIT = 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller–Rabin primality test for n < _PRIME_LIMIT."""
    if not isinstance(n, int) or n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The one rule for numbers spelled in documents and flags: ASCII digits,
# signs, '.' and '/' only.  int() and Fraction() alone also read '_',
# surrounding whitespace, other scripts' digits and (Fraction) exponents,
# so "1e1000000000" would be a billion-digit integer before any size cap.
_NUMBER_TEXT = re.compile(r"[-+./0-9]+")


def _read_number(text, kind):
    """kind(text), kind int or Fraction; ValueError if text breaks the rule.
    A Fraction spelled p/q, p a run of digits with at most one sign and q a
    run of digits, is kind(p, q) of the two ints: the value, or the error
    for q zero, that Fraction(text) gives, without its text parsing."""
    if _NUMBER_TEXT.fullmatch(text) is None:
        raise ValueError(f"not a number: {text!r}")
    p, slash, q = text.partition("/")
    if (slash and kind is not int and q.isdigit()
            and (p.isdigit() or p[1:].isdigit() and p[0] in "+-")):
        return kind(int(p), int(q))
    return kind(text)


_SHOWN_LIMIT = 40


def _shown(value):
    """repr of a rejected document entry, cut to _SHOWN_LIMIT characters
    and an ellipsis.  reprlib stops a few levels into nested lists and
    shortens long strings, so a deep or long entry costs little to show."""
    text = reprlib.repr(value)
    return text if len(text) <= _SHOWN_LIMIT else text[:_SHOWN_LIMIT] + "..."


def _check_digits(n):
    """Raise CapExceeded when the integer n has more digits than the
    interpreter converts to text."""
    limit = sys.get_int_max_str_digits()
    size = abs(n)
    # 8**limit < 10**limit, so 3 * limit bits always fit
    if limit and size.bit_length() > 3 * limit and size >= 10**limit:
        raise CapExceeded(
            f"an output entry has more than {limit} digits, the "
            "interpreter's integer-to-text limit"
        )


def _primitive(ints):
    """Divide an integer row by its content, making the first nonzero entry
    positive, as a tuple: a tuple already in that form comes back as is."""
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(filter(None, ints)) < 0:
        g = -g
    if g == 1:
        return tuple(ints)
    return tuple([x // g for x in ints])


# ---------------------------------------------------------------------------
# fraction-free echelon kernel (the one elimination engine)
# ---------------------------------------------------------------------------

# A pivot row with pivot entry one is sparse when at least half of its
# entries, and at least this many, are zero: a narrower row skips too few
# updates to pay for keeping its support.
_SPARSE_ZEROS = 8


def _sparse(width, zeros):
    """The one sparse rule, for a pivot row with pivot entry one."""
    return zeros >= _SPARSE_ZEROS and 2 * zeros >= width


class IntEchelon:
    """Incremental echelon basis over integer rows.

    Rows are kept normalized (primitive with a positive pivot over the
    rationals, pivot 1 over a prime field) and ordered by pivot column;
    over GF(p) every entry is a residue.  Inserting a vector reduces it
    against the accumulated rows; a nonzero residue extends the basis.
    reduced() back-substitutes, after which every pivot column is zero
    outside its own row: that form is canonical and is what a Subspace
    stores.

    A pivot row with pivot entry one and at least half, and at least
    _SPARSE_ZEROS, of its entries zero is sparse: its nonzero columns are
    kept in `sparse`, keyed by pivot column, and eliminating against it
    updates only those columns of a row, in place, after copying the row
    once.  `sparse` is None while no row is sparse, so dense echelons
    store nothing more.
    """

    __slots__ = ("field", "rows", "pivots", "sparse")

    def __init__(self, field, rows=()):
        self.field = field
        self.rows = []
        self.pivots = []
        self.sparse = None
        for row in rows:
            self.insert(row)

    @property
    def rank(self):
        return len(self.rows)

    def _note(self, row, pcol):
        """Keep or drop the support of the pivot row row at pcol by the
        one sparse rule."""
        if row[pcol] == 1 and _sparse(len(row), row.count(0)):
            if self.sparse is None:
                self.sparse = {}
            self.sparse[pcol] = tuple(compress(range(len(row)), row))
        elif self.sparse:
            self.sparse.pop(pcol, None)

    def residue(self, row):
        """Reduce an integer row against the basis, which stays unchanged;
        () means dependent.  The row is copied at its first elimination
        against a sparse row, so a caller's row is never written into."""
        # every row of one echelon has one width, and a basis of full rank
        # spans every row of that width
        if len(self.rows) == len(row):
            return ()
        field, sparse, given = self.field, self.sparse, row
        for prow, pcol in zip(self.rows, self.pivots):
            if row[pcol]:
                support = sparse.get(pcol) if sparse else None
                if support is not None and row is given:
                    row = list(row)
                row = field.eliminate(row, prow, pcol, support)
        if any(row):
            return field.normalize_int_row(row)
        return ()

    def insert(self, row):
        """Insert a row; returns True when it enlarged the span."""
        res = self.residue(row)
        if not res:
            return False
        # the first nonzero entry is also the first entry equal to it;
        # residue zeroed every pivot column, so pcol is not one of them
        pcol = res.index(next(filter(None, res)))
        at = bisect_left(self.pivots, pcol)
        self.rows.insert(at, res)
        self.pivots.insert(at, pcol)
        self._note(res, pcol)
        return True

    def contains_row(self, row):
        return not self.residue(row)

    def reduced(self):
        """Back-substitute bottom up, in place; returns the rows as a tuple."""
        field, rows, pivots, sparse = self.field, self.rows, self.pivots, self.sparse
        for i in range(len(rows) - 2, -1, -1):
            row = rows[i]
            for j in range(i + 1, len(rows)):
                pcol = pivots[j]
                if row[pcol]:
                    support = sparse.get(pcol) if sparse else None
                    if support is not None and row is rows[i]:
                        row = list(row)
                    row = field.eliminate(row, rows[j], pcol, support)
            if row is not rows[i]:
                rows[i] = field.normalize_int_row(row)
                self._note(rows[i], pivots[i])
                # _note makes the dict when the first row turns sparse
                sparse = self.sparse
        return tuple(rows)

    def copy(self):
        """An independent echelon over the same rows; nothing is re-inserted."""
        # __new__ skips the insert loop of __init__: copies sit on hot paths
        acc = IntEchelon.__new__(IntEchelon)
        acc.field = self.field
        acc.rows = list(self.rows)
        acc.pivots = list(self.pivots)
        acc.sparse = dict(self.sparse) if self.sparse else None
        return acc

    def subspace(self, ambient_dim):
        """The canonical Subspace spanned by the rows; it keeps one tuple
        copy of the reduced rows and pivots, untouched by later inserts."""
        acc = IntEchelon.__new__(IntEchelon)
        acc.field = self.field
        acc.rows = self.reduced()
        acc.pivots = tuple(self.pivots)
        acc.sparse = dict(self.sparse) if self.sparse else None
        return Subspace(ambient_dim, acc)


def rank_of_rows(int_rows, field):
    return IntEchelon(field, int_rows).rank


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of F^d held by its fully reduced integer echelon rows.

    The rows come from IntEchelon.reduced(): primitive integer rows over
    the rationals, residues with pivot one over a prime field, strictly
    increasing pivot columns, positive pivots, zeros above and below each
    pivot, and no zero rows.  That form is canonical, so equality and
    hashing compare the rows.  `basis` holds the same rows scaled to pivot
    one over the field, for output, witnesses and solving.
    """

    __slots__ = ("field", "ambient_dim", "_echelon", "_rows", "_basis")

    def __init__(self, ambient_dim, echelon):
        """Takes over echelon, which must be reduced and hold its rows and
        pivots as tuples, which no insert can change; IntEchelon.subspace,
        subspace_from_generators and _indicator_subspace are the ways to
        build one."""
        self.field = echelon.field
        self.ambient_dim = ambient_dim
        self._echelon = echelon
        self._rows = echelon.rows
        self._basis = None

    @property
    def dim(self):
        return len(self._rows)

    @property
    def basis(self):
        """Canonical basis with pivots one, as tuples of field elements."""
        if self._basis is None:
            self._basis = tuple(self.field.pivot_one(r) for r in self._rows)
        return self._basis

    def exact_rows(self):
        """The stored integer echelon rows, as the kernel takes them."""
        return self._rows

    @property
    def pivots(self):
        """The pivot column of each stored row, strictly increasing."""
        return self._echelon.pivots

    def echelon(self):
        """Fresh IntEchelon seeded with this subspace's rows."""
        return self._echelon.copy()

    def contains_row(self, row):
        """Exact membership test for a kernel row."""
        return self._echelon.contains_row(row)

    def contains_vector(self, vector):
        """Exact membership test for a single coordinate vector."""
        if len(vector) != self.ambient_dim:
            raise InputError(
                f"vector of length {len(vector)} in ambient dim {self.ambient_dim}"
            )
        return self._echelon.contains_row(self.field.exact_row(vector))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim} over {self.field!r})"


def _check_ambient(ambient_dim):
    """Refuse an ambient dimension that is not a count: an int, never a
    bool, and not negative."""
    if not isinstance(ambient_dim, int) or isinstance(ambient_dim, bool) or ambient_dim < 0:
        raise InputError(f"ambient dimension: expected a count, got {_shown(ambient_dim)}")


def subspace_from_generators(ambient_dim, gens, field=QQ, location="generators"):
    """Canonical subspace spanned by a list or tuple of generator rows, read
    row by row: each a list or tuple of ambient_dim entries that exact_row
    parses once.  An InputError names the row refused, f"{location}[{k}]",
    after any refusal of ambient_dim by _check_ambient."""
    _check_ambient(ambient_dim)
    if not isinstance(gens, (list, tuple)):
        raise InputError(f"{location}: expected a list of generator rows")
    acc = IntEchelon(field)
    for k, row in enumerate(gens):
        if not isinstance(row, (list, tuple)) or len(row) != ambient_dim:
            raise InputError(f"{location}[{k}]: expected a row of {ambient_dim} entries")
        try:
            acc.insert(field.exact_row(row))
        except InputError as exc:
            raise InputError(f"{location}[{k}]: {exc}") from None
    # acc is private, so the Subspace takes it over, rows and pivots as tuples
    acc.rows, acc.pivots = acc.reduced(), tuple(acc.pivots)
    return Subspace(ambient_dim, acc)


def rref(rows, field=QQ):
    """The pivot-one canonical basis of equal-length rows, () for none.
    No package code calls it; it stays because the benchmark's tracer
    binds the name."""
    rows = list(rows)
    return subspace_from_generators(len(rows[0]), rows, field).basis if rows else ()


def _indicator_subspace(ambient_dim, supports, field):
    """The Subspace spanned by the indicator rows of disjoint sets of
    columns, each set given by its column indices in ascending order, the
    sets in ascending order of their first columns.

    Such 0/1 rows already are the kernel's canonical reduced rows over
    every field: primitive with pivot one, pivots strictly increasing, and,
    the sets being disjoint, zero above and below each pivot.  So nothing is
    eliminated, and a sparse row keeps its set as its support.  The form
    is checked in O(ambient_dim + Σ |set|) steps, and an empty, unsorted,
    overlapping or misordered set, or a column out of range, raises
    InternalContradiction.
    """
    used = bytearray(ambient_dim)
    acc = IntEchelon(field)
    sparse = {}
    for support in supports:
        if not support or (acc.pivots and support[0] <= acc.pivots[-1]):
            raise InternalContradiction(
                "indicator rows must be nonempty and ordered by first column"
            )
        row = [0] * ambient_dim
        last = -1
        for c in support:
            if c <= last or c >= ambient_dim or used[c]:
                raise InternalContradiction(
                    f"column {c} breaks the disjoint ascending indicator sets"
                )
            used[c] = 1
            row[c] = 1
            last = c
        acc.rows.append(tuple(row))
        acc.pivots.append(support[0])
        if _sparse(ambient_dim, ambient_dim - len(support)):
            sparse[support[0]] = tuple(support)
    acc.rows, acc.pivots = tuple(acc.rows), tuple(acc.pivots)
    acc.sparse = sparse or None
    return Subspace(ambient_dim, acc)


def zero_subspace(ambient_dim, field=QQ):
    _check_ambient(ambient_dim)
    return IntEchelon(field).subspace(ambient_dim)


def full_space(ambient_dim, field=QQ):
    _check_ambient(ambient_dim)
    return _indicator_subspace(ambient_dim, [(i,) for i in range(ambient_dim)], field)


def _check_compatible(*spaces):
    first = spaces[0]
    for s in spaces[1:]:
        if s.ambient_dim != first.ambient_dim or s.field != first.field:
            raise InputError(f"incompatible subspaces: {first!r} vs {s!r}")


def sum_echelon(spaces, field):
    """Kernel echelon of the sum of a list of subspaces over field.

    The largest summand seeds the echelon with its stored rows (the first
    one on a tie); the rows of the other summands are inserted.  An empty
    list gives an empty echelon.
    """
    if not spaces:
        return IntEchelon(field)
    seed = max(spaces, key=lambda space: space.dim)
    acc = seed.echelon()
    for space in spaces:
        if space is not seed:
            for row in space.exact_rows():
                acc.insert(row)
    return acc


def first_outside(source, target):
    """Index of the first stored row of source that is not in target, or None."""
    acc = target._echelon
    for k, row in enumerate(source.exact_rows()):
        if not acc.contains_row(row):
            return k
    return None


def sum_subspaces(u, w):
    """Smallest subspace containing both, U + W."""
    _check_compatible(u, w)
    return sum_echelon([u, w], u.field).subspace(u.ambient_dim)


def _right_block(field, rows, n_left, n_right):
    """The canonical Subspace of F^n_right spanned by the right halves of
    the echelon rows, among kernel rows joined as [l | r], whose pivot lies
    at or past n_left: their left halves eliminated to zero, so those right
    halves span every r with [0 | r] in the span of the rows."""
    acc = IntEchelon(field, rows)
    right = [r[n_left:] for r, pcol in zip(acc.rows, acc.pivots) if pcol >= n_left]
    return IntEchelon(field, right).subspace(n_right)


def intersect(u, w):
    """U ∩ W by Zassenhaus elimination on  [U | U; W | 0], read by
    _right_block, checked against dim(U∩W) = dim U + dim W − dim(U+W)."""
    _check_compatible(u, w)
    n = u.ambient_dim
    field = u.field
    zeros = (0,) * n
    rows = [r + r for r in u.exact_rows()] + [r + zeros for r in w.exact_rows()]
    result = _right_block(field, rows, n, n)
    expected = u.dim + w.dim - rank_of_rows(u.exact_rows() + w.exact_rows(), field)
    if result.dim != expected:
        raise InternalContradiction(
            f"intersection rank {result.dim} disagrees with modular law {expected}"
        )
    return result


def contains(u, w):
    """True iff W ⊆ U, i.e. every basis row of W lies in U."""
    _check_compatible(u, w)
    return w.dim <= u.dim and first_outside(w, u) is None


def complement_within(w, u):
    """A deterministic complement s of W inside U, so U = s ⊕ W.

    Basis rows of U are scanned in canonical order and kept exactly when
    independent from W plus the rows already kept.
    """
    _check_compatible(w, u)
    if not contains(u, w):
        raise InputError(f"{w!r} is not contained in {u!r}")
    kept = complement_rows(w.echelon(), u.exact_rows(), u.dim - w.dim)
    return IntEchelon(u.field, kept).subspace(u.ambient_dim)


def complement_rows(acc, rows, count):
    """Greedy left-to-right choice of integer rows independent of the span
    of the echelon acc and of each other, stopping once count are kept, so
    no later row is reduced; acc takes in the rows kept."""
    return list(islice(filter(acc.insert, rows), count))


def is_direct_sum(parts):
    """True iff the sum of the collection has dimension equal to the dimension sum."""
    parts = list(parts)
    if not parts:
        return True
    _check_compatible(*parts)
    return sum_echelon(parts, parts[0].field).rank == sum(s.dim for s in parts)


# ---------------------------------------------------------------------------
# the seeded section mix, on kernel rows
# ---------------------------------------------------------------------------

def random_invertible(field, k, rng):
    """Random invertible k x k integer matrix, by rejection: entries in
    [-2, 2] over ℚ and in [0, p) over GF(p), rows the kernel takes as is."""
    while True:
        if field.kind == "rational":
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(k)] for _ in range(k)]
        if rank_of_rows(rows, field) == k:
            return rows


def mix_rows(mix, rows, field):
    """Kernel rows, made as read, of the combinations by each row of mix
    of the pivot-one rows r_k / p_k of kernel rows r_k with pivots p_k:
    Σ c_k r_k / p_k is a positive multiple of Σ c_k (L / p_k) r_k, L the
    lcm of the pivots (1 over GF(p)), which exact_row normalizes away."""
    pivots = [next(x for x in r if x) for r in rows]
    scale = lcm(*pivots)
    scaled = [[scale // pivot * x for x in r] for r, pivot in zip(rows, pivots)]
    return (
        field.exact_row([sum(map(mul, coeffs, col)) for col in zip(*scaled)])
        for coeffs in mix
    )
