"""Factor spaces of a finite product E = Π E_i and their interaction terms.

Functions E → F form the ambient space F^E.  For a subset a of the
variables, the factor subspace F(a) holds the functions that only depend
on the coordinates in a; these subspaces assemble into an arrangement over
the powerset of the variable set, ordered by inclusion.  That arrangement
is always decomposable, and the components s_a are the interaction terms:
s_∅ the constants, s_{i} the pure effects, higher subsets the genuine
joint interactions (Lauritzen, Graphical Models, 1996, Annex B.2).

Everything here is in closed form, and nothing is eliminated.  Write a_y
for the cylinder indicator 1[x_a = y] of a joint value y of the variables
in a.  F(a) is spanned by the a_y, one per y ∈ Π_{i∈a} E_i, and s_a by the
a_y whose values all lie below the last one, y_i < |E_i| − 1.  Both are
0/1 rows with disjoint supports, which linalg._indicator_subspace takes as
the kernel's canonical rows as they stand.  Rows are built only when asked
for: the dimension table builds none.
"""

from __future__ import annotations

import itertools
from math import prod

from .arrangements import Arrangement, Decomposition
from .errors import CapExceeded, InputError, InternalContradiction
from .linalg import QQ, _indicator_subspace
from .posets import _bits, build_poset, lower_set_lattice

POINT_LIMIT = 4096


class ProductSpace:
    """The finite set E = Π E_i with a fixed point enumeration.

    Points are tuples of value indices, one per variable in declaration
    order, enumerated mixed-radix with the first variable most
    significant: for sizes (2,2) the order is 00, 01, 10, 11.
    Labels are strings and cardinalities ints; an error names its place
    under location, as `variables[1].cardinality: expected an integer`.
    """

    __slots__ = ("labels", "cardinalities", "total_points", "points")

    def __init__(self, labels, cardinalities, location="variables"):
        labels = tuple(labels)
        cardinalities = tuple(cardinalities)
        if len(labels) != len(cardinalities):
            raise InputError("need exactly one cardinality per variable label")
        for k, (lab, card) in enumerate(zip(labels, cardinalities)):
            if not isinstance(lab, str):
                raise InputError(f"{location}[{k}].label: expected a string")
            if not isinstance(card, int) or isinstance(card, bool):
                raise InputError(f"{location}[{k}].cardinality: expected an integer")
        if len(set(labels)) != len(labels):
            raise InputError("variable labels must be distinct")
        total = 1
        for lab, card in zip(labels, cardinalities):
            if card < 1:
                raise InputError(f"variable {lab!r} has empty domain (cardinality {card})")
            total *= card
        if total > POINT_LIMIT:
            raise CapExceeded(f"product space has {total} points, limit is {POINT_LIMIT}")
        self.labels = labels
        self.cardinalities = cardinalities
        self.total_points = total
        self.points = tuple(itertools.product(*map(range, cardinalities)))

    def variable_index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"no variable {label!r}") from None

    def __repr__(self):
        sizes = "x".join(str(c) for c in self.cardinalities) or "1"
        return f"ProductSpace({sizes}, {self.total_points} points)"


def _cylinders(product, idxs, values):
    """The point indices of each cylinder {x | x_i = y_i for i in idxs}, one
    ascending list per y in values.

    A point's index is Σ_i x_i · stride_i, mixed-radix.  Each cylinder is
    its base Σ_{i∈idxs} y_i · stride_i plus the offsets of the other
    coordinates, which come out ascending when built in point order.
    """
    cards = product.cardinalities
    strides = [prod(cards[i + 1:]) for i in range(len(cards))]
    offsets = [0]
    for i, card in enumerate(cards):
        if i not in idxs:
            offsets = [o + v * strides[i] for o in offsets for v in range(card)]
    bases = (sum(v * strides[i] for v, i in zip(y, idxs)) for y in values)
    return [[base + o for o in offsets] for base in bases]


def factor_subspace(product, variables, field=QQ):
    """Functions on E depending only on the given variables.

    Spanned by the indicator functions of the cylinder sets {x | x_a = y},
    one per joint value y of the chosen variables, in lexicographic order
    of y, which is the order of their first points.  The cylinders
    partition E, so the indicators are independent and dim = Π_{i in a} |E_i|.
    """
    idxs = sorted(product.variable_index(v) for v in set(variables))
    values = itertools.product(*(range(product.cardinalities[i]) for i in idxs))
    supports = _cylinders(product, idxs, values)
    return _indicator_subspace(product.total_points, supports, field)


def _component_key(point, tops):
    """The key rule: a point z is the key (a, z_a) of the component row a_y
    with y = z_a, where a = {i : z_i < |E_i| − 1} and tops[i] = |E_i| − 1."""
    a = tuple(i for i, (v, top) in enumerate(zip(point, tops)) if v < top)
    return a, tuple(point[i] for i in a)


class FactorArrangement:
    """The factor subspaces indexed by the powerset of the variables.

    poset is the inclusion-ordered powerset, and subsets maps each of its
    elements to its tuple of variable labels.  The spaces F(a) and the
    components s_a are built on first use.
    """

    __slots__ = (
        "product", "field", "poset", "subsets", "_arrangement", "_keys", "_decomposition",
    )

    def __init__(self, product, field, poset, subsets):
        self.product = product
        self.field = field
        self.poset = poset
        self.subsets = subsets
        self._arrangement = None
        self._keys = None
        self._decomposition = None

    @property
    def arrangement(self):
        """The Arrangement a ↦ F(a), built on first use.

        Monotonicity is cylinder refinement: for a ⊆ b every cylinder of a
        is a union of cylinders of b, so F(a) ⊆ F(b), and new_arrangement's
        dense recheck is skipped.  Its Π(|E_i| + 1) rows of |E| entries
        each are refused with CapExceeded, before any row is built,
        when they would hold more than POINT_LIMIT² entries.
        """
        if self._arrangement is None:
            product = self.product
            rows = prod(card + 1 for card in product.cardinalities)
            if rows * product.total_points > POINT_LIMIT**2:
                raise CapExceeded(
                    f"the factor arrangement has {rows} rows of {product.total_points} "
                    f"entries, more than the cap of {POINT_LIMIT**2} entries"
                )
            spaces = {
                name: factor_subspace(product, self.subsets[name], self.field)
                for name in self.poset.labels
            }
            self._arrangement = Arrangement(
                self.poset, product.total_points, self.field, spaces
            )
        return self._arrangement

    def _certified_keys(self):
        """name ↦ (a, the values y of the rows a_y of s_a, in point order),
        certified once by _certify_keys."""
        if self._keys is None:
            self._keys = _certify_keys(self)
        return self._keys

    def decomposition(self):
        """The certified decomposition into interaction terms, built once:
        s_a is spanned by the rows a_y of its certified keys."""
        if self._decomposition is None:
            product = self.product
            components = {
                name: _indicator_subspace(
                    product.total_points, _cylinders(product, a, ys), self.field
                )
                for name, (a, ys) in self._certified_keys().items()
            }
            self._decomposition = Decomposition(components, certified=True)
        return self._decomposition

    def __repr__(self):
        return f"FactorArrangement({self.product!r})"


def _certify_keys(factor):
    """The component keys per poset element, from _component_key, each
    certified structurally; a failure is a bug and raises
    InternalContradiction.

    Checked in O(points × variables) steps, plus 3^n additions for n
    variables:
      - each element a holds Π_{i∈a} (|E_i| − 1) keys, the closed form;
      - Σ_{b⊆a} of those counts is dim F(a) = Π_{i∈a} |E_i|;
      - the keys at a are distinct, with every y_i < |E_i| − 1, so that
        z ↦ (a, z_a) is a bijection from the points onto the keys
        K = {(a, y) : y_i < |E_i| − 1 for i ∈ a}.

    Why this certifies the decomposition, over every field.  For one
    variable, {1} ∪ {1[x_i = v] : v < |E_i| − 1} is a basis of the functions
    of x_i: against the point indicators, in value order with 1 last, its
    matrix is unitriangular.  Tensoring these bases gives a basis of F^E,
    and the tensor with a non-constant factor exactly at a is the row a_y.
    So the rows of all the keys K are independent, which is (i): the sum of
    the s_a is direct.  Each a_y with a ⊆ b depends on x_b only, so s_a ⊆
    F(b); with the counts, the count argument of
    arrangements.verify_decomposition gives (ii), Σ_{b⊆a} s_b = F(a); F is
    monotone by cylinder refinement.
    """
    product = factor.product
    cards = product.cardinalities
    tops = [card - 1 for card in cards]
    poset = factor.poset
    members = [
        tuple(sorted(map(product.variable_index, factor.subsets[name])))
        for name in poset.labels
    ]
    position = {a: i for i, a in enumerate(members)}
    values = [[] for _ in members]
    for point in product.points:
        a, y = _component_key(point, tops)
        values[position[a]].append(y)
    counts = [len(ys) for ys in values]
    for name, a, count in zip(poset.labels, members, counts):
        closed = prod(cards[i] - 1 for i in a)
        if count != closed:
            raise InternalContradiction(
                f"component dimension {count} at {name} disagrees with the "
                f"closed form {closed}"
            )
    # zero counts add nothing to a sum
    nonzero = sum(1 << j for j, count in enumerate(counts) if count)
    for i, (name, a) in enumerate(zip(poset.labels, members)):
        below = sum(counts[j] for j in _bits(poset._down[i] & nonzero))
        if below != prod(cards[k] for k in a):
            raise InternalContradiction(
                f"the components below {name} have dimension {below} in all, "
                f"not dim F({name})"
            )
    for name, a, ys in zip(poset.labels, members, values):
        if len(set(ys)) != len(ys) or any(
            v >= tops[k] for y in ys for v, k in zip(y, a)
        ):
            raise InternalContradiction(
                f"the keys at {name} are not its values below |E_i| − 1, each once"
            )
    return {name: (a, ys) for name, a, ys in zip(poset.labels, members, values)}


def build_factor_arrangement(product, field=QQ):
    """The factor arrangement a ↦ F(a) over the inclusion-ordered powerset.

    The powerset is the lower-set lattice of the antichain on the sorted
    variable labels, so subsets come by size, then in sorted order.  No
    space is built here; see FactorArrangement.
    """
    if 2 ** len(product.labels) > POINT_LIMIT:
        raise CapExceeded(
            f"powerset has {2 ** len(product.labels)} subsets, cap is {POINT_LIMIT}"
        )
    antichain = build_poset(sorted(product.labels), [])
    poset, masks = lower_set_lattice(antichain)
    subsets = {name: antichain._labels_of(m) for name, m in zip(poset.labels, masks)}
    return FactorArrangement(product, field, poset, subsets)


def interaction_dimensions(factor_arrangement):
    """dim s_a per subset of variables: the certified key counts, each equal
    to the closed form Π_{i∈a} (|E_i| − 1) (see _certify_keys).  No row is
    built."""
    keys = factor_arrangement._certified_keys()
    return {name: len(ys) for name, (_, ys) in keys.items()}
