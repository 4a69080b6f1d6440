"""Exact linear algebra over the rationals and prime fields.

One elimination kernel does all the work: IntEchelon, fraction-free
elimination on integer rows.  Over ℚ its rows are primitive integer
vectors combined by cross multiplication (Bareiss-style, so no fraction
ever arises); over GF(p) they are residues mod p with pivot one.  A
subspace of F^d is stored by the kernel's fully reduced echelon rows,
which are canonical: two Subspace values describe the same set of vectors
exactly when their stored rows are identical.  Field elements
(`fractions.Fraction` over ℚ, never for an integer entry) appear only at
the edges: input, which exact_row parses once, `Subspace.basis`, and
solve_exact's coefficients.  No floating point appears anywhere.
"""

from __future__ import annotations

import reprlib
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .errors import (
    DimensionMismatch,
    InputError,
    InternalContradiction,
    NotContained,
    SizeLimitExceeded,
)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class RationalField:
    """Arbitrary-precision rationals (the default coefficient field)."""

    kind = "rational"

    zero = Fraction(0)

    def parse(self, value):
        """Accept ints, Fractions, or strings like '-3/7' or '0.5'.

        Strings take no exponent: Fraction would read "1e1000000000" as a
        billion-digit integer before any size cap applies.
        """
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, str) and "e" not in value and "E" not in value:
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise InputError(f"not a rational entry: {_shown(value)}")

    def format(self, element):
        """Document form: an int or "p/q".  Parts longer than the
        interpreter's integer-to-text limit raise SizeLimitExceeded."""
        _check_digits(element.numerator)
        _check_digits(element.denominator)
        if element.denominator == 1:
            return int(element)
        return f"{element.numerator}/{element.denominator}"

    def format_row(self, row, pivot):
        """Document form of the pivot-one row that the integer kernel row
        spans, given its pivot entry.  A row with pivot one is its own
        pivot-one row, so its integers are the entries and no Fraction is
        made; the digit limit is checked on its largest entry, which
        bounds every other."""
        if pivot != 1:
            return [self.format(x) for x in self.pivot_one(row)]
        _check_digits(max(max(row), -min(row)))
        return list(row)

    def exact_row(self, row):
        """Integer row for the kernel from document entries or field
        elements, denominators cleared and content divided out.  An int
        (never a bool) or a Fraction is taken as is, anything else parsed."""
        row = [e if type(e) is int or type(e) is Fraction else self.parse(e) for e in row]
        if all(type(e) is int for e in row):
            return _primitive(row)
        scale = lcm(*(e.denominator for e in row))
        return _primitive([e.numerator * (scale // e.denominator) for e in row])

    def pivot_one(self, row):
        """The rational row with pivot one that a nonzero kernel row spans."""
        pivot = next(x for x in row if x)
        return tuple(Fraction(x, pivot) for x in row)

    def eliminate(self, row, pivot_row, col):
        """Cross-multiplied elimination of row[col] against an integer pivot row."""
        p = pivot_row[col]
        c = row[col]
        return [p * x - c * y for x, y in zip(row, pivot_row)]

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
            raise InputError(f"modulus must be below {_PRIME_LIMIT}, got {p}")
        if not _is_prime(p):
            raise InputError(f"modulus must be prime, got {p}")
        self.p = p
        self.zero = 0

    def parse(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"not a mod-{self.p} entry: {_shown(value)}")
        return value % self.p

    def format(self, element):
        return element % self.p

    def format_row(self, row, pivot):
        # kernel rows mod p are residues with pivot one, so already their
        # own document form
        return list(row)

    def exact_row(self, row):
        """Residue row for the kernel from document entries or field
        elements, each reduced once: ints (never bools) here, others by parse."""
        p = self.p
        return tuple([e % p if type(e) is int else self.parse(e) for e in row])

    def pivot_one(self, row):
        # kernel rows mod p already have pivot one
        return tuple(row)

    def eliminate(self, row, pivot_row, col):
        # pivot rows are normalized to pivot value 1, so no inverse here
        c = row[col]
        p = self.p
        return [(x - c * y) % p for x, y in zip(row, pivot_row)]

    def normalize_int_row(self, row):
        p = self.p
        for x in row:
            if x % p:
                s = pow(x, p - 2, p)
                return tuple(v * s % p for v in row)
        return tuple(v % p for v in row)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))


QQ = RationalField()


def GF(p):
    return PrimeField(p)


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


_SHOWN_LIMIT = 40


def _shown(value):
    """repr of a rejected document entry, cut to _SHOWN_LIMIT characters
    and an ellipsis.  reprlib stops a few levels into nested lists and
    shortens long strings, so a deep or long entry costs little to show."""
    text = reprlib.repr(value)
    return text if len(text) <= _SHOWN_LIMIT else text[:_SHOWN_LIMIT] + "..."


def _check_digits(n):
    """Raise SizeLimitExceeded when the integer n has more digits than the
    interpreter converts to text."""
    limit = sys.get_int_max_str_digits()
    size = abs(n)
    # 8**limit < 10**limit, so 3 * limit bits always fit
    if limit and size.bit_length() > 3 * limit and size >= 10**limit:
        raise SizeLimitExceeded(
            f"an output entry has more than {limit} digits, the "
            "interpreter's integer-to-text limit"
        )


def _primitive(ints):
    """Divide an integer row by its content, making the first nonzero entry positive."""
    g = 0
    for x in ints:
        g = gcd(g, x)
        if g == 1:
            break
    if g == 0:
        return tuple(ints)
    for x in ints:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# matrices and canonical reduced row-echelon form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Dense matrix with entries in row-major order."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, row_lists, cols=None):
        rows = [list(r) for r in row_lists]
        if rows:
            if cols is None:
                cols = len(rows[0])
            for r in rows:
                if len(r) != cols:
                    raise DimensionMismatch("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(e for r in rows for e in r)
        return cls(len(rows), cols, flat)

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]


def rref(matrix, field=QQ):
    """Reduced row-echelon form; preserves the shape (zero rows sink to the bottom).

    The kernel's reduced rows, scaled to pivot one over the field.
    """
    acc = IntEchelon(field, (field.exact_row(row) for row in matrix.row_lists()))
    rows = [field.pivot_one(r) for r in acc.reduced()]
    rows += [(field.zero,) * matrix.cols] * (matrix.rows - len(rows))
    return Matrix.from_rows(rows, cols=matrix.cols)


# ---------------------------------------------------------------------------
# fraction-free echelon kernel (the one elimination engine)
# ---------------------------------------------------------------------------

class IntEchelon:
    """Incremental echelon basis over integer rows.

    Rows are kept normalized (primitive with a positive pivot over the
    rationals, pivot 1 over a prime field) and ordered by pivot column.
    Inserting a vector reduces it against the accumulated rows; a nonzero
    residue extends the basis.  reduced() back-substitutes, after which
    every pivot column is zero outside its own row: that form is canonical
    and is what a Subspace stores.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field, rows=()):
        self.field = field
        self.rows = []
        self.pivots = []
        for row in rows:
            self.insert(row)

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, row):
        """Reduce an integer row against the basis, which stays unchanged;
        () means dependent."""
        field = self.field
        row = list(row)
        for prow, pcol in zip(self.rows, self.pivots):
            if row[pcol]:
                row = field.eliminate(row, prow, pcol)
        if any(row):
            return field.normalize_int_row(row)
        return ()

    def insert(self, row):
        """Insert a row; returns True when it enlarged the span."""
        res = self.residue(row)
        if not res:
            return False
        pcol = next(i for i, x in enumerate(res) if x)
        # residue zeroed every pivot column, so pcol is not one of them
        at = bisect_left(self.pivots, pcol)
        self.rows.insert(at, res)
        self.pivots.insert(at, pcol)
        return True

    def contains_row(self, row):
        return not self.residue(row)

    def reduced(self):
        """Back-substitute bottom up, in place; returns the rows as a tuple."""
        field, rows, pivots = self.field, self.rows, self.pivots
        for i in range(len(rows) - 2, -1, -1):
            row = rows[i]
            for j in range(i + 1, len(rows)):
                if row[pivots[j]]:
                    row = field.eliminate(row, rows[j], pivots[j])
            if row is not rows[i]:
                rows[i] = field.normalize_int_row(row)
        return tuple(rows)

    def copy(self):
        """An independent echelon over the same rows; nothing is re-inserted."""
        # __new__ skips the insert loop of __init__: copies sit on hot paths
        acc = IntEchelon.__new__(IntEchelon)
        acc.field = self.field
        acc.rows = list(self.rows)
        acc.pivots = list(self.pivots)
        return acc

    def subspace(self, ambient_dim):
        """The canonical Subspace spanned by the rows; it keeps a reduced
        copy, so later inserts here leave it unchanged."""
        self.reduced()
        return Subspace(ambient_dim, self.copy())


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
        """Takes over echelon, which must be reduced and is never inserted
        into again; IntEchelon.subspace and _indicator_subspace are the
        ways to build one."""
        self.field = echelon.field
        self.ambient_dim = ambient_dim
        self._echelon = echelon
        self._rows = tuple(echelon.rows)
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
        return tuple(self._echelon.pivots)

    def echelon(self):
        """Fresh IntEchelon seeded with this subspace's rows."""
        return self._echelon.copy()

    def contains_row(self, row):
        """Exact membership test for a kernel row."""
        return self._echelon.contains_row(row)

    def contains_vector(self, vector):
        """Exact membership test for a single coordinate vector."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch(
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


def subspace_from_generators(ambient_dim, gens, field=QQ):
    """Canonical subspace spanned by rows, each a sequence of entries."""
    rows = list(gens)
    for r in rows:
        if len(r) != ambient_dim:
            raise DimensionMismatch(
                f"generator of length {len(r)}, ambient dim is {ambient_dim}"
            )
    return IntEchelon(field, map(field.exact_row, rows)).subspace(ambient_dim)


def _indicator_subspace(ambient_dim, supports, field):
    """The Subspace spanned by the indicator rows of disjoint sets of
    columns, each set given by its column indices in ascending order, the
    sets in ascending order of their first columns.

    Such 0/1 rows already are the kernel's canonical reduced rows over
    every field: primitive with pivot one, pivots strictly increasing, and,
    the sets being disjoint, zero above and below each pivot.  So nothing is
    eliminated.  The form is checked in O(ambient_dim + Σ |set|) steps, and
    an empty, unsorted, overlapping or misordered set, or a column out of
    range, raises InternalContradiction.
    """
    used = bytearray(ambient_dim)
    acc = IntEchelon(field)
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
    return Subspace(ambient_dim, acc)


def zero_subspace(ambient_dim, field=QQ):
    return IntEchelon(field).subspace(ambient_dim)


def full_space(ambient_dim, field=QQ):
    rows = (
        tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)
    )
    return IntEchelon(field, rows).subspace(ambient_dim)


def _check_compatible(*spaces):
    first = spaces[0]
    for s in spaces[1:]:
        if s.ambient_dim != first.ambient_dim or s.field != first.field:
            raise DimensionMismatch(
                f"incompatible subspaces: {first!r} vs {s!r}"
            )


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


def intersect(u, w):
    """U ∩ W by Zassenhaus elimination on  [U | U; W | 0].

    Echelon rows whose pivot lies in the right block have a zero left
    block, and their right blocks span the intersection.  The result is
    checked against dim(U∩W) = dim U + dim W − dim(U+W).
    """
    _check_compatible(u, w)
    n = u.ambient_dim
    field = u.field
    zeros = (0,) * n
    acc = IntEchelon(field, [r + r for r in u.exact_rows()])
    for r in w.exact_rows():
        acc.insert(r + zeros)
    right = [r[n:] for r, pcol in zip(acc.rows, acc.pivots) if pcol >= n]
    result = IntEchelon(field, right).subspace(n)
    expected = u.dim + w.dim - rank_of_rows(u.exact_rows() + w.exact_rows(), field)
    if result.dim != expected:
        raise InternalContradiction(
            f"intersection rank {result.dim} disagrees with modular law {expected}"
        )
    return result


def contains(u, w):
    """True iff W ⊆ U, i.e. every basis row of W lies in U."""
    _check_compatible(u, w)
    if w.dim > u.dim:
        return False
    return first_outside(w, u) is None


def complement_within(w, u):
    """A deterministic complement s of W inside U, so U = s ⊕ W.

    Basis rows of U are scanned in canonical order and kept exactly when
    independent from W plus the rows already kept.
    """
    _check_compatible(w, u)
    if not contains(u, w):
        raise NotContained(f"{w!r} is not contained in {u!r}")
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
# the seeded section mix and exact solving, on kernel rows
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
        field.exact_row([sum(c * x for c, x in zip(coeffs, col)) for col in zip(*scaled)])
        for coeffs in mix
    )


def solve_exact(columns, target, field):
    """Solve  sum_j x_j * columns[j] = target  for a unique exact solution.

    Returns the coefficient list, or None when the target is outside the
    column span.  Columns are expected independent; with dependent columns
    the first consistent solution (free coefficients zero) is returned.
    Each reduced kernel row of the augmented rows [columns | target] gives
    its pivot column's coefficient: its target entry over its pivot.
    """
    k = len(columns)
    acc = IntEchelon(field, (
        field.exact_row([column[i] for column in columns] + [t])
        for i, t in enumerate(target)
    ))
    if k in acc.pivots:
        return None
    coeffs = [field.zero] * k
    for row, pcol in zip(acc.reduced(), acc.pivots):
        coeffs[pcol] = field.pivot_one(row)[k]
    return coeffs
