"""Poset-indexed subspace arrangements and their decomposition theory.

An Arrangement assigns to every poset element a a subspace F(a) of a fixed
ambient space, monotonically: a ≤ b implies F(a) ⊆ F(b).  For a subset B of
elements, F(B) denotes the sum of the member spaces.

The checkers decide, exactly:

  (C)   for every element a:            F(a) ∩ F(ǎ) ⊆ F(â*)
  (I)   for all lower sets ℬ, 𝒞:        F(ℬ) ∩ F(𝒞) ⊆ F(ℬ ∩ 𝒞)
  (sI)  for all families of lower sets: ∩ F(𝒜_j)  =  F(∩ 𝒜_j)

A decomposition is a family of subspaces {s_a} whose overall sum is direct
and which rebuilds every F(a) as the sum of s_b over b ≤ a.  On a finite
poset an arrangement is decomposable exactly when (C) holds, and then any
pre-decomposition (images of sections of F(a) ↠ F(a)/F(â*)) already works.
So decompose() certifies one pre-decomposition, and (C), (I) and (sI) read
the same certificate first; only a failed one runs a scan, whose witness
explains the failure.

The certificate is one walk, a generalised Gram–Schmidt process: along a
linear extension, one running echelon takes in the rows of each F(x) until
w(x) = dim F(x) − Σ_{c<x} dim s_c are kept, as s_x.  Kept rows are
independent and lie in F(x), so every x reaching w(x) is (i) a direct sum
and (ii) Σ_{b≤x} s_b = F(x), by dimension.  Under (C) the echelon at x
spans F(B), B the lower set walked, and F(B) ∩ F(x) = F(x̂*); so by the
modular law the walk keeps the rows pre_decompose keeps, summing no F(x̂*).
The walk trusts that each source row lies in F(x): F(x)'s own rows and
their mixes do.  verify_decomposition first proves each s_a ⊆ F(a) of
components it did not build, then walks their stored rows, which certify
exactly when every one is kept, and rebuilds sums only after a failed
proof or walk on a direct sum, to locate the witness.

Everything is exact; verdicts carry re-verifiable witnesses on failure.
"""

from __future__ import annotations

import random

from .errors import InputError, InternalContradiction, NotMonotone, vector_text
from .linalg import (
    IntEchelon,
    Subspace,
    _right_block,
    complement_rows,
    first_outside,
    intersect,
    is_direct_sum,
    mix_rows,
    random_invertible,
    subspace_from_generators,
    sum_echelon,
    zero_subspace,
)
from .posets import (
    LOWER_SET_CAP,
    _bits,
    _count_lower_sets,
    enumerate_lower_sets,
    is_order_embedding,
    lower_set_lattice,
)


# ---------------------------------------------------------------------------
# reports and witnesses
# ---------------------------------------------------------------------------

class Witness:
    """A violating vector together with the two facts that convict it.

    location is the element (property C, decomposition checks) or the pair
    of lower-set label tuples (properties I and sI) where the violation
    happened; the vector belongs to lhs_space and stays outside rhs_space,
    and verify() re-checks both memberships from scratch.
    """

    __slots__ = ("location", "vector", "lhs_space", "rhs_space")

    def __init__(self, location, vector, lhs_space, rhs_space):
        self.location = location
        self.vector = tuple(vector)
        self.lhs_space = lhs_space
        self.rhs_space = rhs_space

    def verify(self):
        return self.lhs_space.contains_vector(
            self.vector
        ) and not self.rhs_space.contains_vector(self.vector)

    def __repr__(self):
        vector = vector_text(self.vector, self.lhs_space.field)
        return f"Witness(at {self.location!r}, vector {vector})"


class CheckReport:
    """Outcome of one property check; the verdict is that no witness exists.

    work counts the check's effort: pairs_checked is the number of pairs
    (cover pairs, elements, pairs of lower sets) examined up to and
    including the failing one, and ranks_computed the ranks behind them:
    one per cover pair, three per element for (C), one per lower set for
    (I) and (sI).  These three hold exactly when the decomposition
    certificate does, and then report the full scan's counts, whatever
    decided them: (n, 3n) over n elements for (C), and L(L + 1)/2 pairs
    and L ranks over L lower sets, counted, not listed, for (I) and (sI).
    A failure of (C), (I) or (sI) is found by _pair_fails, and every
    witness is built by _witness.
    """

    __slots__ = ("property", "witness", "work")

    def __init__(self, property, witness, pairs, ranks):
        self.property = property
        self.witness = witness
        self.work = {"pairs_checked": pairs, "ranks_computed": ranks}

    @property
    def verdict(self):
        return self.witness is None

    def __repr__(self):
        return f"CheckReport({self.property}: {self.verdict}, work={self.work})"


class Decomposition:
    """Candidate or certified interaction components {s_a}."""

    __slots__ = ("components", "certified")

    def __init__(self, components, certified=False):
        self.components = dict(components)
        self.certified = certified

    def dims(self):
        return {lab: s.dim for lab, s in self.components.items()}

    def __repr__(self):
        state = "certified" if self.certified else "uncertified"
        return f"Decomposition({state}, dims {self.dims()})"


# ---------------------------------------------------------------------------
# the arrangement itself
# ---------------------------------------------------------------------------

class Arrangement:
    """Monotone map from a finite poset into the subspaces of F^d.

    Built through new_arrangement, which validates monotonicity, by
    extend_to_lower_sets, whose spaces are lower-set sums, or by
    interactions.FactorArrangement, whose factor spaces are monotone by
    cylinder refinement and are not rechecked; instances are immutable.
    Monotonicity makes F(B) = Σ_{b ∈ max B} F(b) for every subset B, and
    F(B) = F(B ∖ Z) for the members Z whose space is zero, so eval_mask
    and dim_of_mask sum the maximal nonzero members of B only, memoized
    by the bitmask of B's nonzero members.  A sum with one summand is that
    member's own space, and nothing is eliminated.
    """

    __slots__ = ("poset", "ambient_dim", "field", "spaces", "_nonzero", "_eval_memo", "_dim_memo")

    def __init__(self, poset, ambient_dim, field, spaces):
        self.poset = poset
        self.ambient_dim = ambient_dim
        self.field = field
        self.spaces = dict(spaces)
        # all bits but those of the members whose space is zero: few to sum
        self._nonzero = ~sum(1 << i for i, a in enumerate(poset.labels) if not self.spaces[a].dim)
        self._eval_memo = {}
        self._dim_memo = {}

    def _sum_echelon(self, top):
        """Kernel echelon of F(B) from top = max B, a bitmask."""
        labels = self.poset.labels
        summands = []
        # inline rather than posets._bits: generator setup shows on this hot path
        while top:
            low = top & -top
            summands.append(self.spaces[labels[low.bit_length() - 1]])
            top ^= low
        return sum_echelon(summands, self.field)

    def eval_mask(self, mask):
        """Canonical sum of the member spaces of a bitmask subset."""
        mask &= self._nonzero
        hit = self._eval_memo.get(mask)
        if hit is not None:
            return hit
        top = self.poset._maximal(mask)
        if top and not top & (top - 1):
            out = self.spaces[self.poset.labels[top.bit_length() - 1]]
        else:
            out = self._sum_echelon(top).subspace(self.ambient_dim)
        self._eval_memo[mask] = out
        self._dim_memo[mask] = out.dim
        return out

    def dim_of_mask(self, mask):
        """dim of the sum over a bitmask subset, without canonicalizing."""
        mask &= self._nonzero
        hit = self._dim_memo.get(mask)
        if hit is not None:
            return hit
        top = self.poset._maximal(mask)
        if top & (top - 1):
            rank = self._sum_echelon(top).rank
        else:
            rank = self.spaces[self.poset.labels[top.bit_length() - 1]].dim if top else 0
        self._dim_memo[mask] = rank
        return rank

    def __repr__(self):
        return (
            f"Arrangement({len(self.poset.labels)} elements, "
            f"ambient {self.ambient_dim} over {self.field!r})"
        )


def new_arrangement(poset, ambient_dim, field, spaces, location="spaces"):
    """Validated arrangement; spaces, a table that _subspace_table reads
    under location, must be monotone."""
    table = _subspace_table(poset, ambient_dim, field, spaces, location)
    report = check_monotonicity(poset, table)
    if not report.verdict:
        w = report.witness
        raise NotMonotone(w.location[0], w.location[1], w.vector, field)
    return Arrangement(poset, ambient_dim, field, table)


def _subspace_table(poset, ambient_dim, field, table, location):
    """table, an object mapping each element to a Subspace of F^ambient_dim
    or to generator rows, as a dict of Subspace values.  Missing elements
    are refused first, in poset order, then unknown ones, then each entry,
    both in table order; rows are read by subspace_from_generators and an
    entry is named f"{location}.{label}"."""
    if not isinstance(table, dict):
        raise InputError(f"{location}: expected an object")
    for lab in poset.labels:
        if lab not in table:
            raise InputError(f"{location}: no entry for element {lab!r}")
    for lab in table:
        if lab not in poset:
            raise InputError(f"{location}: unknown element {lab!r}")
    out = {}
    for lab, val in table.items():
        if not isinstance(val, Subspace):
            val = subspace_from_generators(ambient_dim, val, field, f"{location}.{lab}")
        elif val.ambient_dim != ambient_dim or val.field != field:
            raise InputError(
                f"{location}.{lab}: a subspace of F^{val.ambient_dim} over "
                f"{val.field!r}, expected F^{ambient_dim} over {field!r}"
            )
        out[lab] = val
    return out


def check_monotonicity(poset, spaces):
    """Cover-pair containment scan; containment along covers is transitive.

    Each cover pair costs one containment test, counted as one rank.
    """
    pairs = 0
    for ia, ib in poset.covers():
        pairs += 1
        a, b = poset.labels[ia], poset.labels[ib]
        if first_outside(spaces[a], spaces[b]) is not None:
            witness = _witness((a, b), spaces[a], spaces[b])
            return CheckReport("monotonicity", witness, pairs, pairs)
    return CheckReport("monotonicity", None, pairs, pairs)


# ---------------------------------------------------------------------------
# property checkers
# ---------------------------------------------------------------------------

def check_condition_C(arrangement):
    """Per-element check F(a) ∩ F(ǎ) ⊆ F(â*).

    On a finite poset (C) holds exactly when the certificate walk,
    _certified_sections, does, so that is read first; only a failed walk
    runs _first_failing_element for the first failing element and its
    witness.
    """
    n = len(arrangement.poset.labels)
    if _certified_sections(arrangement, _section_sources(arrangement, None)) is not None:
        return CheckReport("C", None, n, 3 * n)
    return _first_failing_element(arrangement)


def _first_failing_element(arrangement):
    """The report of the first element a, in element order, that fails (C).

    This is the pair test of _pair_fails on the lower sets â and ǎ, as
    â ∪ ǎ = ǎ ∪ {a} and â ∩ ǎ = â*, and a failure is their pair witness.
    F(â) = F(a) is a sum with one summand, read off F(a) itself, so
    element i counts as pair i + 1 and three ranks.  Called after a
    failed certificate, which promises a failure.
    """
    poset = arrangement.poset
    full = (1 << len(poset.labels)) - 1
    for i, a in enumerate(poset.labels):
        cheek = full & ~poset._up[i]
        if _pair_fails(arrangement, poset._down[i], cheek):
            witness = _pair_witness(arrangement, poset._down[i], cheek, a)
            return CheckReport("C", witness, i + 1, 3 * (i + 1))
    raise InternalContradiction("the certificate failed but every element satisfies (C)")


def _pair_fails(arrangement, mb, mc):
    """Whether F(B) ∩ F(C) ⊄ F(B ∩ C) for bitmask subsets B and C; as
    F(B ∩ C) ⊆ F(B) ∩ F(C) always, the memoized dimensions decide it."""
    dim = arrangement.dim_of_mask
    return dim(mb) + dim(mc) - dim(mb | mc) != dim(mb & mc)


def _witness(location, lhs, rhs):
    """The witness rule: the first canonical basis row of lhs outside rhs."""
    k = first_outside(lhs, rhs)
    if k is None:
        raise InternalContradiction(
            "dimension count promised a violating vector but none was found"
        )
    return Witness(location, lhs.basis[k], lhs, rhs)


def _pair_witness(arrangement, mb, mc, location):
    """Witness of F(B) ∩ F(C) ⊄ F(B ∩ C) for bitmask subsets B and C."""
    lhs = intersect(arrangement.eval_mask(mb), arrangement.eval_mask(mc))
    return _witness(location, lhs, arrangement.eval_mask(mb & mc))


def _pairwise_lower_set_scan(arrangement, cap, property_name):
    """Shared engine for (I) and (sI).

    Both reduce to the same per-pair dimension identity: the sum over
    ℬ ∩ 𝒞 always sits inside F(ℬ) ∩ F(𝒞), so containment one way (I) and
    equality (sI) each hold exactly when
        dim F(ℬ) + dim F(𝒞) − dim F(ℬ ∪ 𝒞) = dim F(ℬ ∩ 𝒞).
    Larger families reduce to pairs: lower sets are closed under
    intersection, so the family identity follows by induction.

    The certificate walk, _certified_sections, decides both: a certified
    decomposition gives F(ℬ) = ⊕_{b∈ℬ} s_b on every lower set, so every
    pair holds, and a failed walk means (C) fails at some a, a failing pair
    (â, ǎ).  So the lower sets are counted, not listed, which enforces the
    cap before any linear algebra and gives a holding scan its work counts;
    only a failing scan lists them, and ranks them through dim_of_mask, to
    locate its first failing pair.
    """
    count = _count_lower_sets(arrangement.poset, cap)
    if _certified_sections(arrangement, _section_sources(arrangement, None)) is not None:
        return CheckReport(property_name, None, count * (count + 1) // 2, count)
    masks = enumerate_lower_sets(arrangement.poset, cap)
    return _first_failing_pair(arrangement, masks, property_name)


def _section_rows(arrangement, i, rows):
    """The section rule: of rows spanning F(x), x = labels[i], keep greedily
    and in order up to w(x) = dim F(x) − dim F(x̂*) rows independent of
    F(x̂*) and of those kept before; w(x) kept rows span a complement of
    F(x̂*) in F(x).  F(x̂*) is summed as a kernel echelon, never
    canonicalized."""
    poset = arrangement.poset
    acc = arrangement._sum_echelon(poset._maximal(poset._down[i] & ~(1 << i)))
    width = arrangement.spaces[poset.labels[i]].dim - acc.rank
    kept = complement_rows(acc, rows, width)
    if len(kept) != width:
        raise InternalContradiction(f"the section at {poset.labels[i]!r} misses F(x)")
    return kept


def _first_failing_pair(arrangement, masks, property_name):
    """The report of the first pair of lower sets, masks in scan order,
    that fails the pair test.  Pairs with mi ⊆ mj hold trivially and rank
    nothing; the others go to _pair_fails, so the scan ranks only the
    lower sets of the pairs it reaches."""
    poset = arrangement.poset
    pairs = 0
    for i, mi in enumerate(masks):
        for mj in masks[i:]:
            pairs += 1
            if mi & ~mj == 0 or not _pair_fails(arrangement, mi, mj):
                continue
            location = (poset._labels_of(mi), poset._labels_of(mj))
            witness = _pair_witness(arrangement, mi, mj, location)
            return CheckReport(property_name, witness, pairs, len(masks))
    raise InternalContradiction("the certificate failed but no pair of lower sets fails")


def check_intersection_bruteforce(arrangement, cap=LOWER_SET_CAP):
    """F(ℬ) ∩ F(𝒞) ⊆ F(ℬ ∩ 𝒞) over every pair of lower sets."""
    return _pairwise_lower_set_scan(arrangement, cap, "I-bruteforce")


def check_strong_intersection(arrangement, cap=LOWER_SET_CAP):
    """∩ F(𝒜_j) = F(∩ 𝒜_j) over families of lower sets, by pair reduction."""
    return _pairwise_lower_set_scan(arrangement, cap, "sI")


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def pre_decompose(arrangement, seed=None):
    """Candidate components: a section image of F(a) ↠ F(a)/F(â*) per element.

    Each component spans the rows _section_rows keeps of F(a)'s canonical
    basis; F(â*) ⊆ F(a) holds by monotonicity.  An integer seed re-mixes
    that basis by a random invertible matrix first, yielding a different
    but equally valid section.
    """
    return Decomposition(_components(arrangement, _sections(arrangement, seed)))


def _sections(arrangement, seed=None):
    """The section rows of pre_decompose, in element order."""
    sources = enumerate(_section_sources(arrangement, seed))
    return [_section_rows(arrangement, i, rows) for i, rows in sources]


def _section_sources(arrangement, seed):
    """The rows each section is chosen from, in element order: F(x)'s
    stored rows or, for an integer seed, their mix by a random invertible
    matrix, drawn in element order; a mixed row is made when read."""
    spaces = [arrangement.spaces[a] for a in arrangement.poset.labels]
    if seed is None:
        return [space.exact_rows() for space in spaces]
    field, rng = arrangement.field, random.Random(seed)
    return [mix_rows(random_invertible(field, s.dim, rng), s.exact_rows(), field)
            for s in spaces]


def _certified_sections(arrangement, sources):
    """The certificate walk of the module docstring on sources, the rows
    of each element in element order, each row inside its element's space:
    each element's kept rows, in element order, when it holds, and None
    when some x misses w(x).  Elements go by the size of their downsets, a
    linear extension whatever the element order, so a holding walk on the
    rows of _section_sources returns pre_decompose's rows.  Every row kept
    below x is independent and lies in F(x), so w(x) ≥ 0."""
    down = arrangement.poset._down
    spaces = [arrangement.spaces[a] for a in arrangement.poset.labels]
    acc = IntEchelon(arrangement.field)
    kept = [()] * len(spaces)
    # zero sections add nothing to a count
    nonzero = 0
    for i in sorted(range(len(spaces)), key=lambda i: down[i].bit_count()):
        width = spaces[i].dim - sum(len(kept[j]) for j in _bits(down[i] & nonzero))
        own = kept[i] = complement_rows(acc, sources[i], width)
        if len(own) != width:
            return None
        nonzero |= bool(own) << i
    return kept


def _components(arrangement, rows):
    """The canonical components spanned by each element's rows, in element order."""
    field, n = arrangement.field, arrangement.ambient_dim
    labels = arrangement.poset.labels
    return {a: IntEchelon(field, own).subspace(n) for a, own in zip(labels, rows)}


def verify_decomposition(arrangement, decomposition):
    """Certificate check: global direct sum, and Σ_{b≤a} s_b = F(a) per element.

    The components, Subspace values or generator rows, are read by
    _subspace_table under "components", as new_arrangement reads spaces.
    Returns the report with a Decomposition of the components read whose
    certified flag records the verdict: (i) and (ii) hold exactly when each
    s_a ⊆ F(a) and the certificate walk then keeps every stored row of the
    components.  A failure does not say where they fail: a sum that is not
    direct gets the witness of _direct_sum_witness, and otherwise
    _first_rebuild_failure rebuilds the sums from the first element on, so
    the witness and the work counts are those of the first element, in
    element order, whose components below do not sum to its space.
    """
    poset = arrangement.poset
    comps = _subspace_table(poset, arrangement.ambient_dim, arrangement.field,
                            decomposition.components, "components")
    spaces = arrangement.spaces
    rows = [comps[lab].exact_rows() for lab in poset.labels]
    inside = all(first_outside(comps[a], spaces[a]) is None for a in poset.labels)
    kept = _certified_sections(arrangement, rows) if inside else None
    if kept is not None and list(map(len, kept)) == list(map(len, rows)):
        count = len(poset.labels)
        report = CheckReport("decomposition", None, count, count + 1)
        return report, Decomposition(comps, certified=True)
    if not is_direct_sum(comps.values()):
        witness = _direct_sum_witness(arrangement, comps)
        return CheckReport("decomposition", witness, 0, 1), Decomposition(comps)
    i, rebuilt = _first_rebuild_failure(arrangement, comps)
    # element i is pair i + 1 and, after the rank of (i), rank i + 2
    a = poset.labels[i]
    space = spaces[a]
    if first_outside(rebuilt, space) is not None:
        witness = _witness(a, rebuilt, space)
    else:
        witness = _witness(a, space, rebuilt)
    return CheckReport("decomposition", witness, i + 1, i + 2), Decomposition(comps)


def _first_rebuild_failure(arrangement, comps):
    """(i, rebuilt) for the first element i, in element order, whose
    components below sum to rebuilt ≠ F(i); called only once the
    certificate walk failed on a direct sum, which promises such an
    element."""
    poset = arrangement.poset
    field, n = arrangement.field, arrangement.ambient_dim
    parts = [comps[lab] for lab in poset.labels]
    # zero components add nothing to a sum
    for i, a in enumerate(poset.labels):
        below = [parts[j] for j in _bits(poset._down[i]) if parts[j].dim]
        rebuilt = sum_echelon(below, field).subspace(n)
        if rebuilt != arrangement.spaces[a]:
            return i, rebuilt
    raise InternalContradiction(
        "a component count failed but every element rebuilds its space"
    )


def _direct_sum_witness(arrangement, comps):
    """Pinned-element witness: some component meets the sum of the others."""
    labels = arrangement.poset.labels
    for x in labels:
        others = sum_echelon([comps[y] for y in labels if y != x], arrangement.field)
        meet = intersect(comps[x], others.subspace(arrangement.ambient_dim))
        if meet.dim:
            zero = zero_subspace(arrangement.ambient_dim, arrangement.field)
            return _witness(x, meet, zero)
    raise InternalContradiction(
        "rank deficit promised an overlapping component but none was found"
    )


def decompose(arrangement, seed=None):
    """Decomposition if one exists, else the witness refuting condition (C).

    On a finite poset decomposability is equivalent to (C), and any
    pre-decomposition of a (C)-arrangement is a decomposition.  So the
    certificate walk builds the candidate and stops at the first element
    that misses its w(x).  A certified candidate is canonicalized and
    returned; a failed one runs _first_failing_element, whose witness is
    returned, and which raises InternalContradiction when (C) holds.
    """
    rows = _certified_sections(arrangement, _section_sources(arrangement, seed))
    if rows is not None:
        return Decomposition(_components(arrangement, rows), certified=True)
    return _first_failing_element(arrangement).witness


def decomposition_of(arrangement, decomposition, vector):
    """The unique components {s_a(v)} with v = Σ s_a(v), s_a(v) ∈ s_a,
    read from the one relation v − Σ x_j r_j = 0 of v with the stored
    rows r_1, …, r_k of the components: the right block of the rows
    [r_j | e_j] and, last, [v | e_0]; contains_vector checks v's length."""
    if not decomposition.certified:
        raise InputError("need a certified decomposition to split vectors")
    field = arrangement.field
    labels = arrangement.poset.labels
    if not arrangement.eval_mask((1 << len(labels)) - 1).contains_vector(vector):
        raise InputError("vector is outside the sum of the arrangement's spaces")
    rows = [decomposition.components[lab].exact_rows() for lab in labels]
    flat = [r for own in rows for r in own]
    k, n = len(flat), arrangement.ambient_dim
    marked = [r + (0,) * j + (1,) + (0,) * (k - j) for j, r in enumerate(flat, 1)]
    # v's row goes through exact_row with its marker, so the relation is
    # v's own, not a multiple's; inserted last, it meets a settled echelon
    marked.append(field.exact_row(list(vector) + [1] + [0] * k))
    relation = _right_block(field, marked, n, k + 1)
    # certified components are independent, so a relation has v's pivot
    if relation.pivots[:1] != (0,):
        raise InternalContradiction(
            "vector inside the arrangement has no expansion in a certified decomposition"
        )
    # the pivot-one relation holds −x_j after its leading one, in row order
    coeffs = iter(relation.basis[0][1:])
    return {
        lab: tuple(
            field.parse(-sum(c * row[i] for c, row in zip(own_coeffs, own)))
            for i in range(n)
        )
        for lab, own in zip(labels, rows)
        for own_coeffs in [[next(coeffs) for _ in own]]
    }


# ---------------------------------------------------------------------------
# functorial operations
# ---------------------------------------------------------------------------

def pushforward(mapping, arrangement, target_poset):
    """f_* F on the target poset: (f_*F)(b) = Σ over {a | f(a) ≤ b} of F(a).

    The map must send every element into the target poset, which
    is_order_embedding checks first, and be monotone.  For order-embeddings
    the defining property (f_*F)(f(a)) = F(a) is re-checked afterwards.
    """
    source = arrangement.poset
    embedding = is_order_embedding(mapping, source, target_poset)
    # the order is the transitive closure of its covers
    for i, j in source.covers():
        a1, a2 = source.labels[i], source.labels[j]
        if not target_poset.leq(mapping[a1], mapping[a2]):
            raise InputError(f"map does not preserve {a1!r} ≤ {a2!r}")
    spaces = {}
    for b in target_poset.labels:
        mask = 0
        for i, a in enumerate(source.labels):
            if target_poset.leq(mapping[a], b):
                mask |= 1 << i
        spaces[b] = arrangement.eval_mask(mask)
    result = new_arrangement(
        target_poset, arrangement.ambient_dim, arrangement.field, spaces
    )
    if embedding:
        for a in source.labels:
            if result.spaces[mapping[a]] != arrangement.spaces[a]:
                raise InternalContradiction(
                    "pushforward along an order-embedding must restrict back "
                    f"to F, but differs at {a!r}"
                )
    return result


def extend_to_lower_sets(arrangement):
    """Arrangement on the lattice of all lower sets, ℬ ↦ F(ℬ) = Σ_{b∈ℬ} F(b),
    each summed from its parent: F(ℬ) = F(ℬ ∖ {x}) + F(x) for a maximal
    member x, not the highest bit, as element order need not be a linear
    extension.  As x̂* ⊆ ℬ ∖ {x}, only the w(x) section rows of F(x) over
    F(x̂*) are inserted.  Every space is a lower-set sum, so the lattice
    is monotone."""
    poset, field, n = arrangement.poset, arrangement.field, arrangement.ambient_dim
    lattice, masks = lower_set_lattice(poset)
    # every element x is the one maximal member of its downset x̂
    sections = list(_sections(arrangement))
    # masks come by size, the empty lower set first
    sums = {0: zero_subspace(n, field)}
    for m in masks[1:]:
        x = poset._maximal(m).bit_length() - 1
        acc = sums[m & ~(1 << x)].echelon()
        for row in sections[x]:
            acc.insert(row)
        sums[m] = acc.subspace(n)
    return Arrangement(lattice, n, field, dict(zip(lattice.labels, sums.values())))
