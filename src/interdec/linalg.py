"""Exact linear algebra over the rationals and prime fields.

A subspace of F^d is stored by the reduced row-echelon basis of its row
space, so two Subspace values describe the same set of vectors exactly
when their stored bases are identical entry by entry.  All arithmetic is
exact: rational entries are `fractions.Fraction`, prime-field entries are
ints reduced mod p.  No floating point appears anywhere.

Rank and containment questions, which dominate the brute-force property
checkers, run on fraction-free integer (or mod-p) elimination; canonical
reduced echelon form is only computed when a subspace value is actually
constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DimensionMismatch,
    InputError,
    InternalContradiction,
    NotContained,
)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class RationalField:
    """Arbitrary-precision rationals (the default coefficient field)."""

    kind = "rational"

    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, value):
        """Accept ints, Fractions, or strings like '-3/7'."""
        if isinstance(value, bool):
            raise InputError(f"not a rational entry: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"not a rational entry: {value!r}") from exc
        raise InputError(f"not a rational entry: {value!r}")

    def format(self, element):
        if element.denominator == 1:
            return int(element)
        return f"{element.numerator}/{element.denominator}"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return not a

    # fast-path helpers: rows as primitive integer vectors
    def exact_row(self, row):
        """Clear denominators and divide out the content; sign-normalize."""
        scale = 1
        for e in row:
            d = e.denominator
            scale = scale // gcd(scale, d) * d
        ints = [int(e * scale) for e in row]
        return _primitive(ints)

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
        if not _is_prime(p):
            raise InputError(f"modulus must be prime, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def parse(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"not a mod-{self.p} entry: {value!r}")
        return value % self.p

    def format(self, element):
        return element % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def exact_row(self, row):
        return tuple(e % self.p for e in row)

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


def _is_prime(n):
    if not isinstance(n, int) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
    """Reduced row-echelon form; preserves the shape (zero rows sink to the bottom)."""
    rows = matrix.row_lists()
    m, n = matrix.rows, matrix.cols
    is_zero, mul, sub, inv = field.is_zero, field.mul, field.sub, field.inv
    pivot = 0
    for col in range(n):
        target = None
        for r in range(pivot, m):
            if not is_zero(rows[r][col]):
                target = r
                break
        if target is None:
            continue
        rows[pivot], rows[target] = rows[target], rows[pivot]
        s = inv(rows[pivot][col])
        rows[pivot] = [mul(s, x) for x in rows[pivot]]
        for r in range(m):
            if r != pivot and not is_zero(rows[r][col]):
                c = rows[r][col]
                prow = rows[pivot]
                rows[r] = [sub(x, mul(c, y)) for x, y in zip(rows[r], prow)]
        pivot += 1
        if pivot == m:
            break
    return Matrix.from_rows(rows, cols=n)


def rank(matrix, field=QQ):
    """Row rank, via the fraction-free elimination kernel."""
    rows = [field.exact_row(matrix.row(i)) for i in range(matrix.rows)]
    return rank_of_rows(rows, field)


# ---------------------------------------------------------------------------
# fraction-free echelon accumulator (rank / membership hot path)
# ---------------------------------------------------------------------------

class IntEchelon:
    """Incremental echelon basis over integer rows.

    Rows are kept normalized (primitive over the rationals, pivot 1 over a
    prime field) and ordered by pivot column.  Inserting a vector reduces
    it against the accumulated rows; a nonzero residue extends the basis.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field, rows=None):
        self.field = field
        self.rows = []
        self.pivots = []
        if rows:
            for row in rows:
                self.insert(row)

    def copy(self):
        other = IntEchelon(self.field)
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, row):
        """Reduce an integer row against the basis; () means dependent."""
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
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pcol:
            at += 1
        self.rows.insert(at, list(res))
        self.pivots.insert(at, pcol)
        return True

    def contains_row(self, row):
        return not self.residue(row)


def rank_of_rows(int_rows, field):
    acc = IntEchelon(field)
    for row in int_rows:
        acc.insert(row)
    return acc.rank


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of F^d held by its canonical reduced row-echelon basis.

    `basis` is a tuple of rows (tuples of field elements) with strictly
    increasing pivot columns, pivot entries one, zeros above and below each
    pivot, and no zero rows.  Equality and hashing are structural.
    """

    __slots__ = ("field", "ambient_dim", "basis", "_exact_rows")

    def __init__(self, field, ambient_dim, basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._exact_rows = None

    @property
    def dim(self):
        return len(self.basis)

    @property
    def is_zero(self):
        return not self.basis

    def exact_rows(self):
        """Basis rows as normalized integer vectors (cached)."""
        if self._exact_rows is None:
            self._exact_rows = [self.field.exact_row(r) for r in self.basis]
        return self._exact_rows

    def echelon(self):
        """Fresh IntEchelon seeded with this subspace's basis."""
        acc = IntEchelon(self.field)
        # canonical RREF rows are already echelon; insert keeps them verbatim
        for row in self.exact_rows():
            acc.insert(row)
        return acc

    def contains_vector(self, vector):
        """Exact membership test for a single coordinate vector."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(vector)} in ambient dim {self.ambient_dim}"
            )
        row = self.field.exact_row([self.field.parse(v) for v in vector])
        if not any(row):
            return True
        return self.echelon().contains_row(row)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim} over {self.field!r})"


def subspace_from_generators(ambient_dim, gens, field=QQ):
    """Canonical subspace spanned by the given rows (any iterable of rows)."""
    if isinstance(gens, Matrix):
        rows = gens.row_lists()
        if rows and gens.cols != ambient_dim:
            raise DimensionMismatch(
                f"generators have {gens.cols} columns, ambient dim is {ambient_dim}"
            )
    else:
        rows = [list(r) for r in gens]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch(
                    f"generator of length {len(r)}, ambient dim is {ambient_dim}"
                )
    parsed = [[field.parse(e) for e in r] for r in rows]
    reduced = rref(Matrix.from_rows(parsed, cols=ambient_dim), field)
    basis = tuple(
        tuple(reduced.row(i))
        for i in range(reduced.rows)
        if any(not field.is_zero(x) for x in reduced.row(i))
    )
    return Subspace(field, ambient_dim, basis)


def zero_subspace(ambient_dim, field=QQ):
    return Subspace(field, ambient_dim, ())


def full_space(ambient_dim, field=QQ):
    one, zero = field.one, field.zero
    basis = tuple(
        tuple(one if i == j else zero for j in range(ambient_dim))
        for i in range(ambient_dim)
    )
    return Subspace(field, ambient_dim, basis)


def _check_compatible(*spaces):
    first = spaces[0]
    for s in spaces[1:]:
        if s.ambient_dim != first.ambient_dim or s.field != first.field:
            raise DimensionMismatch(
                f"incompatible subspaces: {first!r} vs {s!r}"
            )


def sum_subspaces(u, w):
    """Smallest subspace containing both, U + W."""
    _check_compatible(u, w)
    return subspace_from_generators(
        u.ambient_dim, list(u.basis) + list(w.basis), u.field
    )


def span_of_subspaces(ambient_dim, spaces, field):
    """Sum of a whole collection; empty collections give the zero subspace."""
    rows = []
    for s in spaces:
        if s.ambient_dim != ambient_dim or s.field != field:
            raise DimensionMismatch(f"incompatible summand {s!r}")
        rows.extend(s.basis)
    return subspace_from_generators(ambient_dim, rows, field)


def intersect(u, w):
    """U ∩ W by block elimination on  [U | U; W | 0].

    After reduction, rows whose left block vanished carry a basis of the
    intersection in their right block.  The result is checked against
    dim(U∩W) = dim U + dim W − dim(U+W).
    """
    _check_compatible(u, w)
    n = u.ambient_dim
    field = u.field
    zero = field.zero
    stacked = [list(r) + list(r) for r in u.basis]
    stacked += [list(r) + [zero] * n for r in w.basis]
    reduced = rref(Matrix.from_rows(stacked, cols=2 * n), field)
    right = []
    for i in range(reduced.rows):
        row = reduced.row(i)
        if all(field.is_zero(x) for x in row[:n]) and any(
            not field.is_zero(x) for x in row[n:]
        ):
            right.append(row[n:])
    result = subspace_from_generators(n, right, field)
    expected = u.dim + w.dim - rank_of_rows(u.exact_rows() + w.exact_rows(), field)
    if result.dim != expected:
        raise InternalContradiction(
            f"intersection rank {result.dim} disagrees with modular law {expected}"
        )
    return result


def contains(u, w):
    """True iff W ⊆ U, i.e. every basis row of W lies in U."""
    _check_compatible(u, w)
    if w.is_zero:
        return True
    if w.dim > u.dim:
        return False
    acc = u.echelon()
    return all(acc.contains_row(r) for r in w.exact_rows())


def complement_within(w, u):
    """A deterministic complement s of W inside U, so U = s ⊕ W.

    Basis rows of U are scanned in canonical order and kept exactly when
    independent from W plus the rows already kept.
    """
    _check_compatible(w, u)
    if not contains(u, w):
        raise NotContained(f"{w!r} is not contained in {u!r}")
    kept = complement_rows(w, u.basis, u.field)
    return subspace_from_generators(u.ambient_dim, kept, u.field)


def complement_rows(w, rows, field):
    """Greedy left-to-right selection of rows independent from W and from each other."""
    acc = w.echelon()
    kept = []
    for row in rows:
        if acc.insert(field.exact_row(row)):
            kept.append(row)
    return kept


def is_direct_sum(parts):
    """True iff the sum of the collection has dimension equal to the dimension sum."""
    parts = list(parts)
    if not parts:
        return True
    _check_compatible(*parts)
    field = parts[0].field
    total = 0
    rows = []
    for s in parts:
        total += s.dim
        rows.extend(s.exact_rows())
    return rank_of_rows(rows, field) == total


def quotient_dim(u, w):
    """dim(U / W) for W ⊆ U."""
    _check_compatible(u, w)
    if not contains(u, w):
        raise NotContained(f"{w!r} is not contained in {u!r}")
    return u.dim - w.dim


# ---------------------------------------------------------------------------
# small dense helpers used by the seeded section rule and component solving
# ---------------------------------------------------------------------------

def random_invertible(field, k, rng):
    """Random invertible k x k matrix with small entries, by rejection."""
    if k == 0:
        return []
    while True:
        if field.kind == "rational":
            entries = [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
        else:
            entries = [[rng.randrange(field.p) for _ in range(k)] for _ in range(k)]
        rows = [field.exact_row(r) for r in entries]
        if rank_of_rows(rows, field) == k:
            return entries


def mix_rows(mix, rows, field):
    """Apply a k x k coefficient matrix to a list of k rows."""
    add, mul, zero = field.add, field.mul, field.zero
    out = []
    for coeffs in mix:
        acc = [zero] * (len(rows[0]) if rows else 0)
        for c, row in zip(coeffs, rows):
            if field.is_zero(c):
                continue
            acc = [add(x, mul(c, y)) for x, y in zip(acc, row)]
        out.append(acc)
    return out


def solve_exact(columns, target, field):
    """Solve  sum_j x_j * columns[j] = target  for a unique exact solution.

    Returns the coefficient list, or None when the target is outside the
    column span.  Columns are expected independent; with dependent columns
    the first consistent solution (free coefficients zero) is returned.
    """
    n = len(target)
    k = len(columns)
    rows = [
        [columns[j][i] for j in range(k)] + [target[i]]
        for i in range(n)
    ]
    reduced = rref(Matrix.from_rows(rows, cols=k + 1), field)
    coeffs = [field.zero] * k
    for i in range(reduced.rows):
        row = reduced.row(i)
        pivot = next(
            (j for j in range(k + 1) if not field.is_zero(row[j])), None
        )
        if pivot is None:
            continue
        if pivot == k:
            return None
        coeffs[pivot] = row[k]
    return coeffs
