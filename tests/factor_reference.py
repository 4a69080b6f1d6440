"""The elimination route to factor spaces, the differential reference for
the closed form in `interdec.interactions`.

Each F(a) is the kernel's echelon of the dense cylinder indicators, the
arrangement goes through `new_arrangement`, which re-proves monotonicity
by reduction, and the components come from the generic `decompose` and
its certificate.
"""

from interdec.arrangements import Decomposition, decompose, new_arrangement
from interdec.linalg import IntEchelon
from interdec.posets import build_poset, lower_set_lattice


def reference_factor_subspace(product, variables, field):
    """Echelon of the dense cylinder indicators 1[x_a = y], sorted by y."""
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


def reference_factor_arrangement(product, field):
    """a ↦ F(a) over the powerset, validated by new_arrangement."""
    antichain = build_poset(sorted(product.labels), [])
    poset, masks = lower_set_lattice(antichain)
    spaces = {
        name: reference_factor_subspace(product, antichain._labels_of(m), field)
        for name, m in zip(poset.labels, masks)
    }
    return new_arrangement(poset, product.total_points, field, spaces)


def reference_components(arrangement):
    """The generic decomposition's certified components."""
    outcome = decompose(arrangement)
    assert isinstance(outcome, Decomposition) and outcome.certified
    return outcome.components
