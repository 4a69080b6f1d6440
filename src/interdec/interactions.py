"""Factor spaces of a finite product E = Π E_i and their interaction terms.

Functions E → F form the ambient space F^E.  For a subset a of the
variables, the factor subspace F(a) holds the functions that only depend
on the coordinates in a; these subspaces assemble into an arrangement over
the powerset of the variable set, ordered by inclusion.  That arrangement
is always decomposable, and the components s_a are the interaction terms:
s_∅ the constants, s_{i} the pure effects, higher subsets the genuine
joint interactions.  interaction_dimensions reports dim s_a per subset,
cross-checked against the closed form dim s_a = Π_{i∈a} (|E_i| − 1).
"""

from __future__ import annotations

import itertools
import json
from math import prod

from .arrangements import (
    Decomposition,
    decompose,
    new_arrangement,
)
from .errors import (
    DuplicateLabel,
    EmptyVariableDomain,
    InternalContradiction,
    SizeLimitExceeded,
    UnknownVariable,
)
from .linalg import QQ, IntEchelon
from .posets import build_poset, lower_set_lattice

POINT_LIMIT = 4096


class ProductSpace:
    """The finite set E = Π E_i with a fixed point enumeration.

    Points are tuples of value indices, one per variable in declaration
    order, enumerated mixed-radix with the first variable most
    significant: for sizes (2,2) the order is 00, 01, 10, 11.
    """

    __slots__ = ("labels", "cardinalities", "total_points", "points")

    def __init__(self, labels, cardinalities):
        labels = tuple(labels)
        cardinalities = tuple(cardinalities)
        if len(labels) != len(cardinalities):
            raise EmptyVariableDomain(
                "need exactly one cardinality per variable label"
            )
        if len(set(labels)) != len(labels):
            raise DuplicateLabel("variable labels must be distinct")
        total = 1
        for lab, card in zip(labels, cardinalities):
            if card < 1:
                raise EmptyVariableDomain(
                    f"variable {lab!r} has empty domain (cardinality {card})"
                )
            total *= card
        if total > POINT_LIMIT:
            raise SizeLimitExceeded(
                f"product space has {total} points, limit is {POINT_LIMIT}"
            )
        self.labels = labels
        self.cardinalities = cardinalities
        self.total_points = total
        self.points = tuple(itertools.product(*map(range, cardinalities)))

    def variable_index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownVariable(f"no variable {label!r}") from None

    def __repr__(self):
        sizes = "x".join(str(c) for c in self.cardinalities) or "1"
        return f"ProductSpace({sizes}, {self.total_points} points)"


def build_product_space(labels, cardinalities):
    return ProductSpace(labels, cardinalities)


def factor_subspace(product, variables, field=QQ):
    """Functions on E depending only on the given variables.

    Spanned by the indicator functions of the cylinder sets {x | x_a = y},
    one per joint value y of the chosen variables; the cylinders partition
    E, so the indicators are independent and dim = Π_{i in a} |E_i|.
    """
    idxs = sorted(product.variable_index(v) for v in set(variables))
    rows = {}
    for col, point in enumerate(product.points):
        key = tuple(point[i] for i in idxs)
        row = rows.get(key)
        if row is None:
            row = [0] * product.total_points
            rows[key] = row
        row[col] = 1
    gens = [rows[key] for key in sorted(rows)]
    return IntEchelon(field, gens).subspace(product.total_points)


class FactorArrangement:
    """The factor subspaces indexed by the powerset of the variables.

    subsets maps each poset element to its tuple of variable labels.
    """

    __slots__ = ("product", "arrangement", "subsets", "_decomposition")

    def __init__(self, product, arrangement, subsets):
        self.product = product
        self.arrangement = arrangement
        self.subsets = subsets
        self._decomposition = None

    def decomposition(self):
        """The certified decomposition into interaction terms, computed once.

        Factor arrangements always decompose, so a witness here is a bug.
        """
        if self._decomposition is None:
            out = decompose(self.arrangement)
            if not isinstance(out, Decomposition):
                field = self.arrangement.field
                rendered = json.dumps([field.format(x) for x in out.vector])
                raise InternalContradiction(
                    "a factor arrangement failed to decompose: condition C fails "
                    f"at {out.location!r}, witness vector {rendered}"
                )
            self._decomposition = out
        return self._decomposition

    def __repr__(self):
        return f"FactorArrangement({self.product!r})"


def build_factor_arrangement(product, field=QQ):
    """Arrangement a ↦ F(a) over the inclusion-ordered powerset.

    The powerset is the lower-set lattice of the antichain on the sorted
    variable labels, so subsets come by size, then in sorted order.
    Monotonicity (a ⊆ b means F(a) ⊆ F(b)) is certified by construction
    validation, not assumed.
    """
    if 2 ** len(product.labels) > POINT_LIMIT:
        raise SizeLimitExceeded(
            f"powerset has {2 ** len(product.labels)} subsets, cap is {POINT_LIMIT}"
        )
    antichain = build_poset(sorted(product.labels), [])
    poset, masks = lower_set_lattice(antichain)
    subsets = {name: antichain._labels_of(m) for name, m in zip(poset.labels, masks)}
    spaces = {
        name: factor_subspace(product, subsets[name], field) for name in poset.labels
    }
    arrangement = new_arrangement(poset, product.total_points, field, spaces)
    return FactorArrangement(product, arrangement, subsets)


def interaction_dimensions(factor_arrangement):
    """dim s_a per subset of variables, from an actual decomposition.

    Every dimension is cross-checked against the closed form
    Π_{i∈a} (|E_i| − 1), which uses the cardinalities only; a disagreement
    is a bug, not a data condition.
    """
    product = factor_arrangement.product
    sizes = dict(zip(product.labels, product.cardinalities))
    components = factor_arrangement.decomposition().components
    dims = {}
    for name in factor_arrangement.arrangement.poset.labels:
        oracle = prod(sizes[v] - 1 for v in factor_arrangement.subsets[name])
        got = components[name].dim
        if got != oracle:
            raise InternalContradiction(
                f"component dimension {got} at {name} disagrees with the "
                f"closed form {oracle}"
            )
        dims[name] = got
    return dims
