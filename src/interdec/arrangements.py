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
verify_decomposition walks the stored rows of components it did not build,
which certify exactly when every one is kept, and rebuilds sums only after
a failed walk on a direct sum, to locate the witness.

Everything is exact; verdicts carry re-verifiable witnesses on failure.
"""

from __future__ import annotations

import random

from .errors import (
    DimensionMismatch,
    InputError,
    InternalContradiction,
    NotMonotone,
    NotMonotoneMap,
    VectorOutsideArrangement,
)
from .linalg import (
    IntEchelon,
    Subspace,
    complement_rows,
    first_outside,
    intersect,
    is_direct_sum,
    mix_rows,
    random_invertible,
    solve_exact,
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
        return f"Witness(at {self.location!r}, vector {self.vector})"


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
    Monotonicity makes F(B) = Σ_{b ∈ max B} F(b) for every subset B, so
    eval_mask and dim_of_mask sum the maximal members of B only.  Those
    sums are memoized, keyed by the subset bitmask.
    """

    __slots__ = ("poset", "ambient_dim", "field", "spaces", "_eval_memo", "_dim_memo")

    def __init__(self, poset, ambient_dim, field, spaces):
        self.poset = poset
        self.ambient_dim = ambient_dim
        self.field = field
        self.spaces = dict(spaces)
        self._eval_memo = {}
        self._dim_memo = {}

    def _sum_echelon(self, mask):
        """Kernel echelon of F(B) for a bitmask subset B, from max B only."""
        labels = self.poset.labels
        summands = []
        m = self.poset._maximal(mask)
        # inline rather than posets._bits: generator setup shows on this hot path
        while m:
            low = m & -m
            summands.append(self.spaces[labels[low.bit_length() - 1]])
            m ^= low
        return sum_echelon(summands, self.field)

    def eval_mask(self, mask):
        """Canonical sum of the member spaces of a bitmask subset."""
        hit = self._eval_memo.get(mask)
        if hit is not None:
            return hit
        out = self._sum_echelon(mask).subspace(self.ambient_dim)
        self._eval_memo[mask] = out
        self._dim_memo[mask] = out.dim
        return out

    def dim_of_mask(self, mask):
        """dim of the sum over a bitmask subset, without canonicalizing."""
        hit = self._dim_memo.get(mask)
        if hit is not None:
            return hit
        rank = self._sum_echelon(mask).rank
        self._dim_memo[mask] = rank
        return rank

    def full_space_value(self):
        return self.eval_mask((1 << len(self.poset.labels)) - 1)

    def __repr__(self):
        return (
            f"Arrangement({len(self.poset.labels)} elements, "
            f"ambient {self.ambient_dim} over {self.field!r})"
        )


def new_arrangement(poset, ambient_dim, field, spaces):
    """Validated arrangement; spaces may be Subspace values or generator rows."""
    table = {}
    for lab in poset.labels:
        if lab not in spaces:
            raise InputError(f"no subspace given for element {lab!r}")
        val = spaces[lab]
        if not isinstance(val, Subspace):
            val = subspace_from_generators(ambient_dim, val, field)
        if val.ambient_dim != ambient_dim:
            raise DimensionMismatch(
                f"space at {lab!r} lives in dim {val.ambient_dim}, "
                f"arrangement ambient is {ambient_dim}"
            )
        if val.field != field:
            raise DimensionMismatch(
                f"space at {lab!r} is over {val.field!r}, arrangement is over {field!r}"
            )
        table[lab] = val
    for lab in spaces:
        if lab not in poset:
            raise InputError(f"subspace given for unknown element {lab!r}")
    report = check_monotonicity(poset, table)
    if not report.verdict:
        w = report.witness
        raise NotMonotone(w.location[0], w.location[1], w.vector, field)
    return Arrangement(poset, ambient_dim, field, table)


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
    F(â) = F(a) is a sum with one summand, which copies F(a)'s stored rows
    and eliminates nothing, so element i counts as pair i + 1 and three
    ranks.  Called after a failed certificate, which promises a failure.
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
    acc = arrangement._sum_echelon(poset._down[i] & ~(1 << i))
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
    of each element in element order: each element's kept rows, in element
    order, when it holds, and None when some x misses w(x) or keeps a row
    outside F(x).  Elements go by the size of their downsets, a linear
    extension whatever the element order, so a holding walk on the rows of
    _section_sources returns pre_decompose's rows.  Every row kept below x
    is independent and lies in F(x), so w(x) ≥ 0."""
    down = arrangement.poset._down
    spaces = [arrangement.spaces[a] for a in arrangement.poset.labels]
    acc = IntEchelon(arrangement.field)
    kept = [()] * len(spaces)
    # zero sections add nothing to a count
    nonzero = 0
    for i in sorted(range(len(spaces)), key=lambda i: down[i].bit_count()):
        width = spaces[i].dim - sum(len(kept[j]) for j in _bits(down[i] & nonzero))
        own = kept[i] = complement_rows(acc, sources[i], width)
        if len(own) != width or not all(map(spaces[i].contains_row, own)):
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

    Returns the report together with a copy of the decomposition whose
    certified flag records the verdict: (i) and (ii) hold exactly when the
    certificate walk keeps every stored row of the components.  A failed
    walk does not say where they fail: a sum that is not direct gets the
    witness of _direct_sum_witness, and otherwise _first_rebuild_failure
    rebuilds the sums from the first element on, so the witness and the
    work counts are those of the first element, in element order, whose
    components below do not sum to its space.
    """
    poset = arrangement.poset
    comps = decomposition.components
    for lab in poset.labels:
        if lab not in comps:
            raise InputError(f"decomposition misses element {lab!r}")
    for lab in comps:
        if lab not in poset:
            raise InputError(f"decomposition has component for unknown element {lab!r}")
    field, n = arrangement.field, arrangement.ambient_dim
    for lab in poset.labels:
        if comps[lab].ambient_dim != n or comps[lab].field != field:
            raise DimensionMismatch(f"component at {lab!r} does not fit the arrangement")

    rows = [comps[lab].exact_rows() for lab in poset.labels]
    kept = _certified_sections(arrangement, rows)
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
    space = arrangement.spaces[a]
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
    solved for in the pivot-one bases of the components."""
    if not decomposition.certified:
        raise InputError("need a certified decomposition to split vectors")
    field = arrangement.field
    target = tuple(field.parse(x) for x in vector)
    if len(target) != arrangement.ambient_dim:
        raise DimensionMismatch(
            f"vector has length {len(target)}, ambient dim is {arrangement.ambient_dim}"
        )
    if not arrangement.full_space_value().contains_vector(target):
        raise VectorOutsideArrangement(
            "vector is outside the sum of the arrangement's spaces"
        )
    labels = arrangement.poset.labels
    bases = [decomposition.components[lab].basis for lab in labels]
    coeffs = solve_exact([row for basis in bases for row in basis], target, field)
    if coeffs is None:
        raise InternalContradiction(
            "vector inside the arrangement has no expansion in a certified decomposition"
        )
    # the coefficients follow the bases in order
    coeffs = iter(coeffs)
    return {
        lab: tuple(
            field.parse(sum(c * row[i] for c, row in zip(own, basis)))
            for i in range(len(target))
        )
        for lab, basis in zip(labels, bases)
        for own in [[next(coeffs) for _ in basis]]
    }


# ---------------------------------------------------------------------------
# functorial operations
# ---------------------------------------------------------------------------

def pushforward(mapping, arrangement, target_poset):
    """f_* F on the target poset: (f_*F)(b) = Σ over {a | f(a) ≤ b} of F(a).

    The map must be monotone.  For order-embeddings the defining property
    (f_*F)(f(a)) = F(a) is re-checked after construction.
    """
    source = arrangement.poset
    images = {}
    for lab in source.labels:
        if lab not in mapping:
            raise NotMonotoneMap(f"map is not defined on element {lab!r}")
        images[lab] = mapping[lab]
        target_poset.index(images[lab])
    # the order is the transitive closure of its covers
    for i, j in source.covers():
        a1, a2 = source.labels[i], source.labels[j]
        if not target_poset.leq(images[a1], images[a2]):
            raise NotMonotoneMap(f"map does not preserve {a1!r} ≤ {a2!r}")
    spaces = {}
    for b in target_poset.labels:
        mask = 0
        for i, a in enumerate(source.labels):
            if target_poset.leq(images[a], b):
                mask |= 1 << i
        spaces[b] = arrangement.eval_mask(mask)
    result = new_arrangement(
        target_poset, arrangement.ambient_dim, arrangement.field, spaces
    )
    if is_order_embedding(images, source, target_poset):
        for a in source.labels:
            if result.spaces[images[a]] != arrangement.spaces[a]:
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
