"""Finite posets and the order-theoretic subsets everything else is built on.

A poset is stored as its reflexive-transitive closure: one bitmask per
element for the elements above it and one for the elements below it.
Cover pairs come from Poset.covers(); lower_set_lattice builds the
inclusion lattice of the lower sets and owns their "{a,b}" labels.

For an element a the derived subsets are
    downset(a) = {b | b ≤ a}
    cheek(a)   = {b | a ≰ b}
and a subset B is a lower set when it holds every element below a member
of B.

Derived subsets come back as frozensets of labels; functions that take a
subset accept any iterable of labels.  enumerate_lower_sets returns member
bitmasks instead (bit i is element i), the form the checkers work in.
Listing and counting share one split: a lower set misses ↑x or holds ↓x.
_lower_sets unrolls it and _count_lower_sets counts by it, so a caller that
needs only their number, or only the cap, pays for no listing.

Every Poset has unique labels, the lattice's "{a,b}" names included: two
lower sets with the same name (elements "a,b", "a" and "b", say) raise
DuplicateLabel.
"""

from __future__ import annotations

from .errors import (
    CapExceeded,
    CycleDetected,
    DuplicateLabel,
    NotComparable,
    UnknownElement,
    UnknownLabel,
)

LOWER_SET_CAP = 4096


class Poset:
    """Immutable finite poset over opaque string labels."""

    __slots__ = ("labels", "_index", "_up", "_down")

    def __init__(self, labels, up_masks, down_masks=None):
        """Internal constructor: up_masks must already be a reflexive-
        transitive, antisymmetric closure, and down_masks, if given, its
        transpose.  A repeated label raises DuplicateLabel.  Use build_poset
        for raw input."""
        self.labels = tuple(labels)
        self._index = _label_index(self.labels)
        self._up = tuple(up_masks)
        if down_masks is None:
            down_masks = [0] * len(self.labels)
            for a, mask in enumerate(self._up):
                for b in _bits(mask):
                    down_masks[b] |= 1 << a
        self._down = tuple(down_masks)

    def __contains__(self, label):
        return label in self._index

    def __repr__(self):
        return f"Poset({len(self.labels)} elements)"

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"no element {label!r}") from None

    def leq(self, a, b):
        """a ≤ b."""
        return bool(self._up[self.index(a)] >> self.index(b) & 1)

    def covers(self):
        """Cover pairs (i, j), i ⋖ j, as element indices, ordered by j then i.

        The lower covers of j are the maximal elements of its strict
        downset, so the cost is Σ |downset| rather than N²."""
        for j, down in enumerate(self._down):
            for i in _bits(self._maximal(down & ~(1 << j))):
                yield i, j

    # -- mask plumbing ------------------------------------------------------

    def _mask_of(self, members):
        mask = 0
        for label in members:
            mask |= 1 << self.index(label)
        return mask

    def _maximal(self, mask):
        """Members of mask with no other member above them.

        Walks down from the highest index and drops each visited member's
        downset, so when element order is a linear extension only the
        maximal members are visited."""
        out = 0
        rest = mask
        while rest:
            i = rest.bit_length() - 1
            if self._up[i] & mask == 1 << i:
                out |= 1 << i
            rest &= ~self._down[i]
        return out

    def _labels_of(self, mask):
        return tuple(self.labels[i] for i in _bits(mask))

    def induced(self, members):
        """Standalone poset on a subset, with the inherited order."""
        mask = self._mask_of(members)
        kept = list(_bits(mask))
        pos = {i: j for j, i in enumerate(kept)}
        ups = [sum(1 << pos[j] for j in _bits(self._up[i] & mask)) for i in kept]
        return Poset([self.labels[i] for i in kept], ups)


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _label_index(labels):
    """Position of each label; raises DuplicateLabel at the first repeat."""
    index = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise DuplicateLabel(f"duplicate element {lab!r}")
        index[lab] = i
    return index


def build_poset(labels, relations):
    """Poset from labels and a list of (a, b) pairs meaning a ≤ b.

    The stored order is the reflexive-transitive closure of the pairs;
    a closure that violates antisymmetry is rejected.
    """
    labels = list(labels)
    index = _label_index(labels)
    n = len(labels)
    up = [1 << i for i in range(n)]
    for pair in relations:
        a, b = pair
        if a not in index:
            raise UnknownLabel(f"relation mentions unknown element {a!r}")
        if b not in index:
            raise UnknownLabel(f"relation mentions unknown element {b!r}")
        up[index[a]] |= 1 << index[b]
    # Warshall closure on bitmask rows
    for k in range(n):
        bit = 1 << k
        row_k = up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row_k
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise CycleDetected(
                    f"elements {labels[i]!r} and {labels[j]!r} are mutually related"
                )
    return Poset(labels, up)


# ---------------------------------------------------------------------------
# the derived subsets
# ---------------------------------------------------------------------------

def downset(poset, a):
    """â = {b | b ≤ a}; always a lower set."""
    return frozenset(poset._labels_of(poset._down[poset.index(a)]))


def cheek(poset, a):
    """ǎ = {b | a ≰ b}; always a lower set."""
    i = poset.index(a)
    full = (1 << len(poset.labels)) - 1
    return frozenset(poset._labels_of(full & ~poset._up[i]))


def is_lower_set(poset, members):
    mask = poset._mask_of(members)
    return all(poset._down[i] & ~mask == 0 for i in _bits(mask))


def enumerate_lower_sets(poset, cap=LOWER_SET_CAP):
    """Member bitmasks of all lower sets, sorted by (size, element order).

    Raises CapExceeded when more than cap exist; the count can be
    exponential in the poset size, so brute-force callers stay desk-scale.
    """
    return _in_lower_set_order(poset, _lower_sets(poset, cap))


def _count_lower_sets(poset, cap):
    """The number of lower sets, listing none; raises CapExceeded past cap.

    The count is the product of the counts of the connected components of
    the comparability graph.  Inside a component P, a lower set either
    misses x, and is then a lower set of P ∖ ↑x, or holds x, and is then
    ↓x with a lower set of P ∖ ↓x, so N(P) = N(P ∖ ↑x) + N(P ∖ ↓x),
    memoized by mask.  Every partial count is checked against the cap as
    it is made, so the work stays bounded by the cap, as the enumeration's
    is: counting lower sets is #P-complete in general (Provan & Ball 1983).
    An explicit stack stands in for recursion, whose depth can reach the
    poset size.
    """
    _check_cap(cap)
    total = 1
    for component in _components(poset):
        total *= _count_component(poset, component, cap)
        if total > cap:
            raise CapExceeded(f"poset has more than {cap} lower sets")
    return total


def _components(poset):
    """Member masks of the connected components of the comparability
    graph, made one at a time, so a caller that stops early pays only for
    those it took."""
    rest = (1 << len(poset.labels)) - 1
    while rest:
        component = 0
        frontier = 1 << (rest.bit_length() - 1)
        while frontier:
            component |= frontier
            reach = 0
            for i in _bits(frontier):
                reach |= poset._up[i] | poset._down[i]
            frontier = reach & ~component
        rest &= ~component
        yield component


def _count_component(poset, component, cap):
    """N(component) by N(P) = N(P ∖ ↑x) + N(P ∖ ↓x), x the highest member,
    the split _lower_sets unrolls; raises CapExceeded as soon as a count
    passes cap."""
    memo = {0: 1}
    stack = [component]
    while stack:
        mask = stack[-1]
        if mask in memo:
            stack.pop()
            continue
        x = mask.bit_length() - 1
        without = mask & ~poset._up[x]
        holding = mask & ~poset._down[x]
        if without not in memo:
            stack.append(without)
        elif holding not in memo:
            stack.append(holding)
        else:
            count = memo[without] + memo[holding]
            if count > cap:
                raise CapExceeded(f"poset has more than {cap} lower sets")
            memo[mask] = count
            stack.pop()
    return memo[component]


def _check_cap(cap):
    if cap < 1:
        raise CapExceeded("cap must allow at least the empty lower set")


def _lower_sets(poset, cap):
    """Member masks of all lower sets, unsorted; raises CapExceeded at the
    (cap + 1)-th.

    This unrolls the split _count_component counts by: with x the highest
    undecided element, a lower set either misses ↑x or holds ↓x.  Taken
    elements stay a lower set and dropped ones an upper set, so every
    branch ends in a lower set, and L lower sets take 2L − 1 steps.
    """
    _check_cap(cap)
    out = []
    stack = [(0, (1 << len(poset.labels)) - 1)]
    while stack:
        taken, rest = stack.pop()
        if not rest:
            if len(out) == cap:
                raise CapExceeded(f"poset has more than {cap} lower sets")
            out.append(taken)
            continue
        x = rest.bit_length() - 1
        stack.append((taken, rest & ~poset._up[x]))
        stack.append((taken | poset._down[x], rest & ~poset._down[x]))
    return out


def _in_lower_set_order(poset, masks):
    # reversed bits, descending: the lowest index where two sets differ decides
    n = len(poset.labels)
    return sorted(masks, key=lambda m: (m.bit_count(), -int(f"{m:0{n}b}"[::-1], 2)))


def lower_set_label(labels):
    """Element name of a lower set in its lattice: "{a,b}"."""
    return "{" + ",".join(labels) + "}"


def lower_set_lattice(poset):
    """The lower sets ordered by inclusion, named by lower_set_label, and
    their member masks, both in enumerate_lower_sets order (at most
    LOWER_SET_CAP of them).

    L's lower covers are L ∖ {x} for the maximal x of L, which sort before
    L, so down(L) is L's own bit OR-ed with their down-masks, filled from
    the front, and each cover's up-mask takes in up(L), filled from the end.
    """
    masks = _in_lower_set_order(poset, _lower_sets(poset, LOWER_SET_CAP))
    position = {m: k for k, m in enumerate(masks)}
    lower_covers = [[position[m & ~(1 << x)] for x in _bits(poset._maximal(m))]
                    for m in masks]
    downs = [1 << k for k in range(len(masks))]
    for k, below in enumerate(lower_covers):
        for c in below:
            downs[k] |= downs[c]
    ups = [1 << k for k in range(len(masks))]
    for k in range(len(masks) - 1, -1, -1):
        for c in lower_covers[k]:
            ups[c] |= ups[k]
    labels = [lower_set_label(poset._labels_of(m)) for m in masks]
    return Poset(labels, ups, downs), masks


def interval_elements(poset, a, b):
    """[a, b] = {c | a ≤ c ≤ b}; demands a ≤ b."""
    ia, ib = poset.index(a), poset.index(b)
    if not poset._up[ia] >> ib & 1:
        raise NotComparable(f"{a!r} is not below {b!r}")
    return frozenset(poset._labels_of(poset._up[ia] & poset._down[ib]))


def is_order_embedding(mapping, source, target):
    """True iff f(a1) ≤ f(a2) exactly when a1 ≤ a2 (forces injectivity)."""
    imgs = []
    for lab in source.labels:
        if lab not in mapping:
            raise UnknownElement(f"map is not defined on {lab!r}")
        imgs.append(target.index(mapping[lab]))
    n = len(source.labels)
    for i in range(n):
        for j in range(n):
            fwd = bool(source._up[i] >> j & 1)
            back = bool(target._up[imgs[i]] >> imgs[j] & 1)
            if fwd != back:
                return False
    return True
