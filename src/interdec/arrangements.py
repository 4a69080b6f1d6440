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
So decompose() builds one pre-decomposition and certifies it; only a failed
certificate runs the (C) check, whose witness then explains the failure.

The certificate is checked by counting.  (i) the global sum is direct, one
rank.  Given (i), (ii) Σ_{b≤a} s_b = F(a) holds exactly when every element
has s_a ⊆ F(a) and Σ_{b≤a} dim s_b = dim F(a): monotonicity puts the sum
inside F(a), directness gives it dimension Σ_{b≤a} dim s_b, and equal
dimensions give equality.  Only verify_decomposition, once that count has
failed, rebuilds the sums from the first element on, to locate the witness.

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
    enumerate_lower_sets,
    interval_elements,
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
    including the failing one, and ranks_computed the ranks behind them.
    (I) and (sI) take one rank per lower set, each from an echelon grown
    from its parent's by a section, and succeed when every such step grew
    by its whole section, which covers every pair at once; they then report
    the full scan's counts, L(L + 1)/2 pairs and L ranks over L lower sets.
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

    Built through new_arrangement, which validates monotonicity; instances
    are immutable.  Monotonicity makes F(B) = Σ_{b ∈ max B} F(b) for every
    subset B, so eval_mask and dim_of_mask sum the maximal members of B
    only.  Those sums are memoized, keyed by the subset bitmask.
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
        small, big = spaces[a], spaces[b]
        k = first_outside(small, big)
        if k is not None:
            witness = Witness((a, b), small.basis[k], small, big)
            return CheckReport("monotonicity", witness, pairs, pairs)
    return CheckReport("monotonicity", None, pairs, pairs)


def eval_lower_set(arrangement, members):
    """Σ_{b in members} F(b); only the maximal members are summed, the
    others lie inside them by monotonicity."""
    return arrangement.eval_mask(arrangement.poset._mask_of(members))


# ---------------------------------------------------------------------------
# property checkers
# ---------------------------------------------------------------------------

def check_condition_C(arrangement):
    """Per-element check F(a) ∩ F(ǎ) ⊆ F(â*).

    Since every b < a satisfies a ≰ b, F(â*) sits inside F(a) ∩ F(ǎ)
    already, so the containment holds exactly when the two dimensions
    agree; that needs three subset-sum ranks per element.  A failure is
    the pair witness of â and ǎ, since F(â) = F(a) and â ∩ ǎ = â*.
    """
    poset = arrangement.poset
    n = len(poset.labels)
    full = (1 << n) - 1
    pairs = 0
    ranks = 0
    for i, a in enumerate(poset.labels):
        pairs += 1
        bit = 1 << i
        cheek_mask = full & ~poset._up[i]
        strict_mask = poset._down[i] & ~bit
        dim_a = arrangement.spaces[a].dim
        dim_cheek = arrangement.dim_of_mask(cheek_mask)
        dim_join = arrangement.dim_of_mask(cheek_mask | bit)
        dim_strict = arrangement.dim_of_mask(strict_mask)
        ranks += 3
        if dim_a + dim_cheek - dim_join == dim_strict:
            continue
        witness = _pair_witness(arrangement, poset._down[i], cheek_mask, a)
        return CheckReport("C", witness, pairs, ranks)
    return CheckReport("C", None, pairs, ranks)


def _basis_vector_outside(source, target):
    """First canonical basis vector of source that is not in target."""
    k = first_outside(source, target)
    if k is None:
        raise InternalContradiction(
            "dimension count promised a violating vector but none was found"
        )
    return source.basis[k]


def _pair_witness(arrangement, mb, mc, location):
    """Witness of F(B) ∩ F(C) ⊄ F(B ∩ C) for bitmask subsets B and C."""
    lhs = intersect(arrangement.eval_mask(mb), arrangement.eval_mask(mc))
    rhs = arrangement.eval_mask(mb & mc)
    return Witness(location, _basis_vector_outside(lhs, rhs), lhs, rhs)


def _pairwise_lower_set_scan(arrangement, cap, property_name):
    """Shared engine for (I) and (sI).

    Both reduce to the same per-pair dimension identity: the sum over
    ℬ ∩ 𝒞 always sits inside F(ℬ) ∩ F(𝒞), so containment one way (I) and
    equality (sI) each hold exactly when
        dim F(ℬ) + dim F(𝒞) − dim F(ℬ ∪ 𝒞) = dim F(ℬ ∩ 𝒞).
    Larger families reduce to pairs: lower sets are closed under
    intersection, so the family identity follows by induction.

    The pair identity says d(ℬ) = dim F(ℬ) is modular on the distributive
    lattice of lower sets, and since d(∅) = 0 that holds exactly when
        d(ℬ) = Σ_{x ∈ ℬ} w(x),   w(x) = dim F(x) − dim F(x̂*),
    for every lower set ℬ (Birkhoff's valuations).  Modularity gives the
    sum by induction: for x maximal in ℬ, ℬ = (ℬ ∖ {x}) ∪ x̂ and
    (ℬ ∖ {x}) ∩ x̂ = x̂*.  Conversely, the sums over ℬ and 𝒞 add up to those
    over ℬ ∪ 𝒞 and ℬ ∩ 𝒞.  _lower_set_echelons grows each ℬ from its parent
    ℬ ∖ {x} by the w(x) rows of x's section, so the sum identity holds on
    every lower set exactly when each step grew by all of them (by induction
    along the parents one way, counting rows the other), and the walk alone
    decides both properties.  Then the work counts are those of the full
    scan this covers, L(L + 1)/2 pairs and L ranks for L lower sets.  Else
    _first_failing_pair rescans the pairs in order on the walk's dimensions,
    so the witness and the counts are the first failing pair's.
    """
    masks = enumerate_lower_sets(arrangement.poset, cap)
    dims, stalled = {}, False
    for m, acc, grew in _lower_set_echelons(arrangement, masks):
        dims[m] = acc.rank
        stalled = stalled or not grew
    if stalled:
        return _first_failing_pair(arrangement, masks, dims, property_name)
    count = len(masks)
    return CheckReport(property_name, None, count * (count + 1) // 2, count)


def _section_rows(arrangement, i, rows):
    """The section rule: of rows spanning F(x), x = labels[i], keep greedily
    and in order those independent of F(x̂*) and of the rows kept before;
    they span a complement of F(x̂*) in F(x), of dimension w(x)."""
    strict = arrangement.poset._down[i] & ~(1 << i)
    return complement_rows(arrangement.eval_mask(strict), rows)


def _lower_set_echelons(arrangement, masks):
    """Yield (mask, kernel echelon of F(mask), grew) for the lower sets
    masks, in enumerate_lower_sets order, each grown from its parent.

    For x maximal in a lower set L, F(L) = F(L ∖ {x}) + span s_x, where s_x
    is x's section of _section_rows: F(x) = F(x̂*) + span s_x and
    x̂* ⊆ L ∖ {x}.  So L's echelon is a copy of its parent's plus the
    |s_x| = w(x) rows of s_x, and grew says each of them enlarged it (the
    empty set grows trivially).  The element order need not be a linear
    extension, so x comes from the maximal members, not the highest bit.
    Sets come by size, so only the echelons of the current and the previous
    size are kept.  A caller may reduce a yielded echelon in place: it stays
    an echelon of the same span, and the children copy that.
    """
    poset = arrangement.poset
    sections = [
        _section_rows(arrangement, i, arrangement.spaces[a].exact_rows())
        for i, a in enumerate(poset.labels)
    ]
    previous, current, size = {}, {}, 0
    for m in masks:
        if m.bit_count() != size:
            previous, current, size = current, {}, m.bit_count()
        grew = True
        if m:
            x = poset._maximal(m).bit_length() - 1
            acc = previous[m & ~(1 << x)].copy()
            grew = all([acc.insert(row) for row in sections[x]])
        else:
            acc = IntEchelon(arrangement.field)
        current[m] = acc
        yield m, acc, grew


def _first_failing_pair(arrangement, masks, dims, property_name):
    """The report of the first pair of lower sets, in scan order, whose
    dimensions break the pair identity; dims holds d of every lower set."""
    poset = arrangement.poset
    pairs = 0
    for i, mi in enumerate(masks):
        di = dims[mi]
        for mj in masks[i:]:
            pairs += 1
            if di + dims[mj] - dims[mi | mj] == dims[mi & mj]:
                continue
            location = (poset._labels_of(mi), poset._labels_of(mj))
            witness = _pair_witness(arrangement, mi, mj, location)
            return CheckReport(property_name, witness, pairs, len(masks))
    raise InternalContradiction(
        "a lower set did not grow by its section but every pair passed"
    )


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
    poset = arrangement.poset
    field = arrangement.field
    rng = random.Random(seed) if seed is not None else None
    components = {}
    for i, a in enumerate(poset.labels):
        space = arrangement.spaces[a]
        rows = space.exact_rows()
        if rng is not None:
            rows = mix_rows(random_invertible(field, space.dim, rng), rows, field)
        kept = _section_rows(arrangement, i, rows)
        components[a] = IntEchelon(field, kept).subspace(arrangement.ambient_dim)
    return Decomposition(components, certified=False)


def verify_decomposition(arrangement, decomposition):
    """Certificate check: global direct sum, and Σ_{b≤a} s_b = F(a) per element.

    Returns the report together with a copy of the decomposition whose
    certified flag records the verdict, which _certificate_failure decides
    by counting.  When (ii) fails there, _first_rebuild_failure rebuilds the
    sums from the first element on, so the witness and the work counts are
    those of the first element, in element order, whose components below
    do not sum to its space; when element order is not a linear extension,
    the count can first fail at another element.
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

    failure = _certificate_failure(arrangement, comps)
    if failure is None:
        count = len(poset.labels)
        report = CheckReport("decomposition", None, count, count + 1)
        return report, Decomposition(comps, certified=True)
    if failure == "(i)":
        witness = _direct_sum_witness(arrangement, comps)
        return CheckReport("decomposition", witness, 0, 1), Decomposition(comps)
    i, rebuilt = _first_rebuild_failure(arrangement, comps)
    # element i is pair i + 1 and, after the rank of (i), rank i + 2
    a = poset.labels[i]
    space = arrangement.spaces[a]
    if first_outside(rebuilt, space) is not None:
        lhs, rhs = rebuilt, space
    else:
        lhs, rhs = space, rebuilt
    witness = Witness(a, _basis_vector_outside(lhs, rhs), lhs, rhs)
    return CheckReport("decomposition", witness, i + 1, i + 2), Decomposition(comps)


def _certificate_failure(arrangement, comps):
    """Which part of the certificate of the components comps fails: None
    when it holds, "(i)" when their sum is not direct, and "(ii)" when
    some element a has s_a ⊄ F(a) or Σ_{b≤a} dim s_b ≠ dim F(a).

    Given (i), that count is (ii): by monotonicity, which new_arrangement
    certifies, Σ_{b≤a} s_b ⊆ Σ_{b≤a} F(b) = F(a); a subfamily of a direct
    family is direct, so that sum has dimension Σ_{b≤a} dim s_b; and equal
    dimensions give equality.  Conversely equality gives both tests.  So
    (ii) costs one containment test and one sum of integers per element,
    and no subset sum.  The count does not say where the rebuilt sums
    first differ; verify_decomposition asks _first_rebuild_failure.
    """
    poset = arrangement.poset
    parts = [comps[lab] for lab in poset.labels]
    # (i) the sum of all components is direct
    if not is_direct_sum(parts):
        return "(i)"
    # (ii) each component lies in its space, and the components below each
    # element have its dimension in total
    dims = [s.dim for s in parts]
    for i, a in enumerate(poset.labels):
        space = arrangement.spaces[a]
        below = sum(dims[j] for j in _bits(poset._down[i]))
        if below != space.dim or first_outside(parts[i], space) is not None:
            return "(ii)"
    return None


def _first_rebuild_failure(arrangement, comps):
    """(i, rebuilt) for the first element i, in element order, whose
    components below sum to rebuilt ≠ F(i); called only once the count
    route of _certificate_failure failed on a direct sum, which promises
    such an element."""
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
            return Witness(
                x,
                meet.basis[0],
                meet,
                zero_subspace(arrangement.ambient_dim, arrangement.field),
            )
    raise InternalContradiction(
        "rank deficit promised an overlapping component but none was found"
    )


def decompose(arrangement, seed=None):
    """Decomposition if one exists, else the witness refuting condition (C).

    On a finite poset decomposability is equivalent to (C), and any
    pre-decomposition of a (C)-arrangement is a decomposition.  So the
    verdict is the certificate of one pre-decomposition: a certified
    candidate is returned as is, and only a failed one runs the (C) check,
    whose witness is returned.  Only the certificate's verdict is read, and
    _certificate_failure decides it by counting, so no certificate witness
    is built and no sum below an element is rebuilt.  A failed certificate
    on an arrangement with (C) can only mean a bug and raises
    InternalContradiction.
    """
    comps = pre_decompose(arrangement, seed=seed).components
    if _certificate_failure(arrangement, comps) is None:
        return Decomposition(comps, certified=True)
    report = check_condition_C(arrangement)
    if report.verdict:
        raise InternalContradiction(
            "condition (C) holds but a pre-decomposition failed verification"
        )
    return report.witness


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

def restrict(arrangement, members):
    """Arrangement on the induced subposet, spaces copied."""
    induced = arrangement.poset.induced(members)
    spaces = {lab: arrangement.spaces[lab] for lab in induced.labels}
    return new_arrangement(induced, arrangement.ambient_dim, arrangement.field, spaces)


def interval_restrict(arrangement, a, b):
    """Arrangement on the interval [a, b], spaces copied.

    The bottom keeps F(a), which by monotonicity is F(â), the sum over
    the downset of a in the parent.
    """
    return restrict(arrangement, interval_elements(arrangement.poset, a, b))


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
    """Arrangement on the lattice of all lower sets, ℬ ↦ F(ℬ), each space
    grown from its parent's by _lower_set_echelons."""
    lattice, masks = lower_set_lattice(arrangement.poset)
    n = arrangement.ambient_dim
    walk = _lower_set_echelons(arrangement, masks)
    spaces = {lab: acc.subspace(n) for lab, (_, acc, _) in zip(lattice.labels, walk)}
    return new_arrangement(lattice, n, arrangement.field, spaces)
