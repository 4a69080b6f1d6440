"""Posets, subspace arrangements, and exact interaction decompositions.

The pieces, bottom up: exact linear algebra over ℚ or GF(p) with canonical
subspaces (linalg), finite posets and their lower sets (posets), monotone
subspace arrangements with the intersection-property checkers and the
decomposition synthesizer (arrangements), and the factor-space arrangement
of a finite product of variables with its interaction dimensions
(interactions).  fileio reads and writes the JSON formats the command line
uses.
"""

from .arrangements import (
    Arrangement,
    CheckReport,
    Decomposition,
    Witness,
    check_condition_C,
    check_intersection_bruteforce,
    check_monotonicity,
    check_strong_intersection,
    decompose,
    decomposition_of,
    extend_to_lower_sets,
    new_arrangement,
    pre_decompose,
    pushforward,
    verify_decomposition,
)
from .errors import (
    CapExceeded,
    InputError,
    InterdecError,
    InternalContradiction,
    NotMonotone,
)
from .interactions import (
    FactorArrangement,
    ProductSpace,
    build_factor_arrangement,
    factor_subspace,
    interaction_dimensions,
)
from .linalg import (
    GF,
    QQ,
    Subspace,
    complement_within,
    contains,
    full_space,
    intersect,
    is_direct_sum,
    subspace_from_generators,
    sum_subspaces,
    zero_subspace,
)
from .posets import (
    Poset,
    build_poset,
    cheek,
    downset,
    enumerate_lower_sets,
    interval_elements,
    is_lower_set,
    is_order_embedding,
)

__version__ = "0.1.0"
