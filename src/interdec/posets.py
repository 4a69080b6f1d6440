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
Listing and counting share one split: a lower set misses ↑x or holds ↓x,
for any x.  _lower_sets unrolls it on the lowest undecided x, which lists
each size in scan order, and _count_lower_sets counts by it on the highest,
which bit_length finds in O(1); a caller that needs only their number, or
only the cap, pays for no listing.

Every Poset has unique labels, the lattice's "{a,b}" names included: two
lower sets with the same name (elements "a,b", "a" and "b", say) raise
InputError.
"""

from __future__ import annotations

from .errors import CapExceeded, InputError

LOWER_SET_CAP = 4096


class Poset:
    """Immutable finite poset over opaque string labels."""

    __slots__ = ("labels", "_index", "_up", "_down")

    def __init__(self, labels, up_masks, down_masks, index=None):
        """Internal constructor: up_masks must already be a reflexive-
        transitive, antisymmetric closure, and down_masks its transpose.
        A repeated label raises InputError, unless index, the _label_index
        of labels, is given.  Use build_poset for raw input."""
        self.labels = tuple(labels)
        self._index = _label_index(self.labels) if index is None else index
        self._up = tuple(up_masks)
        self._down = tuple(down_masks)

    def __contains__(self, label):
        return label in self._index

    def __repr__(self):
        return f"Poset({len(self.labels)} elements)"

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"no element {label!r}") from None

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

        Takes the highest member left, climbs from it to a maximal member,
        each step to the lowest-indexed member above, and drops that
        member's downset.  When element order is a linear extension the
        highest member left is maximal; when it is reversed one step
        reaches the top; either way few members are visited."""
        out = 0
        rest = mask
        while rest:
            i = rest.bit_length() - 1
            above = self._up[i] & mask
            while above != 1 << i:
                i = next(_bits(above ^ 1 << i))
                above = self._up[i] & mask
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
        downs = [sum(1 << pos[j] for j in _bits(self._down[i] & mask)) for i in kept]
        return Poset([self.labels[i] for i in kept], ups, downs)


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _label_index(labels):
    """Position of each label; raises InputError at the first non-string or repeat."""
    index = {}
    for i, lab in enumerate(labels):
        if not isinstance(lab, str):
            raise InputError(f"element {lab!r} is not a string")
        if lab in index:
            raise InputError(f"duplicate element {lab!r}")
        index[lab] = i
    return index


def build_poset(labels, relations, location="poset"):
    """Poset from a list of string labels and a list of (a, b) label pairs
    meaning a ≤ b.

    Shapes are checked before meaning, each error naming its place under
    location: the labels, the relations and each relation, then repeated
    labels, unknown ones and cycles.  The stored order is the reflexive-
    transitive closure of the pairs.  The down masks are summed along the
    pairs, lowest elements first: a < b makes ↑a larger than ↑b, so
    sorting by |↑a| is a linear extension.
    """
    if not isinstance(labels, (list, tuple)) or not all(isinstance(lab, str) for lab in labels):
        raise InputError(f"{location}.elements: expected a list of strings")
    if not isinstance(relations, (list, tuple)):
        raise InputError(f"{location}.relations: expected a list of pairs")
    for k, pair in enumerate(relations):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(
            isinstance(lab, str) for lab in pair
        ):
            raise InputError(f"{location}.relations[{k}]: expected a pair of element labels")
    index = _label_index(labels)
    n = len(labels)
    up = [1 << i for i in range(n)]
    below = [[] for _ in range(n)]
    for a, b in relations:
        for lab in (a, b):
            if lab not in index:
                raise InputError(f"relation mentions unknown element {lab!r}")
        up[index[a]] |= 1 << index[b]
        below[index[b]].append(index[a])
    # Warshall closure on bitmask rows
    for k in range(n):
        bit = 1 << k
        row_k = up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row_k
    # i ≤ j ≤ i exactly when ↑i = ↑j; the lowest such pair is named
    if len(set(up)) < n:
        first = {}
        twins = [(first.setdefault(mask, j), j) for j, mask in enumerate(up)]
        i, j = min(pair for pair in twins if pair[0] != pair[1])
        raise InputError(f"elements {labels[i]!r} and {labels[j]!r} are mutually related")
    down = [1 << i for i in range(n)]
    for b in sorted(range(n), key=lambda b: -up[b].bit_count()):
        for a in below[b]:
            down[b] |= down[a]
    return Poset(labels, up, down, index)


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
    return sorted(_lower_sets(poset, cap), key=int.bit_count)


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
    """N(component) by N(P) = N(P ∖ ↑x) + N(P ∖ ↓x), the split _lower_sets
    unrolls, x the highest member (O(1) by bit_length); raises CapExceeded
    as soon as a count passes cap."""
    memo = {0: 1}
    stack = [component]
    while stack:
        mask = stack[-1]
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
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise InputError(f"cap must be an integer, got {cap!r}")
    if cap < 1:
        raise CapExceeded("cap must allow at least the empty lower set")


def _lower_sets(poset, cap):
    """Member masks of all lower sets, each size in scan order; raises
    CapExceeded at the (cap + 1)-th.

    With x the lowest undecided element, a lower set either misses ↑x or
    holds ↓x.  Taken elements stay a lower set and dropped ones an upper
    set, so every branch ends in a lower set, and L lower sets take 2L − 1
    steps.  The holding branch pops first, so of two sets the one holding
    the lowest index where they differ comes out first.
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
        x = next(_bits(rest))
        stack.append((taken, rest & ~poset._up[x]))
        stack.append((taken | poset._down[x], rest & ~poset._down[x]))
    return out


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
    masks = sorted(_lower_sets(poset, LOWER_SET_CAP), key=int.bit_count)
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
        raise InputError(f"{a!r} is not below {b!r}")
    return frozenset(poset._labels_of(poset._up[ia] & poset._down[ib]))


def is_order_embedding(mapping, source, target):
    """True iff f(a1) ≤ f(a2) exactly when a1 ≤ a2 (forces injectivity)."""
    imgs = []
    for lab in source.labels:
        if lab not in mapping:
            raise InputError(f"map is not defined on element {lab!r}")
        imgs.append(target.index(mapping[lab]))
    n = len(source.labels)
    for i in range(n):
        for j in range(n):
            fwd = bool(source._up[i] >> j & 1)
            back = bool(target._up[imgs[i]] >> imgs[j] & 1)
            if fwd != back:
                return False
    return True
