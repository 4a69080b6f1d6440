"""The full pair loop over lower sets, the reference for (I) and (sI).

The checkers decide both properties by the decomposition certificate, the
same one `decompose` reads, and a failing scan ranks lower sets through
`dim_of_mask`.  This loop decides them by ranks alone, by its own route:
every lower set is ranked by `rank_of_rows` over the stored rows of all
its members, with no maximal-member shortcut and no memo, and the pair
identity is tested on every pair in scan order.
"""

from interdec.linalg import first_outside, intersect, rank_of_rows
from interdec.posets import enumerate_lower_sets


def full_pair_scan(arrangement):
    """Reference (I)/(sI) scan: rank every lower set, then test the pair
    identity on every pair in scan order and convict the first failure.
    Returns (verdict, witness location, witness vector, work)."""
    poset = arrangement.poset
    masks = enumerate_lower_sets(poset)
    rows = [arrangement.spaces[lab].exact_rows() for lab in poset.labels]
    dims = {
        m: rank_of_rows(
            [row for i, own in enumerate(rows) if m >> i & 1 for row in own],
            arrangement.field,
        )
        for m in masks
    }
    pairs = 0
    for i, mi in enumerate(masks):
        for mj in masks[i:]:
            pairs += 1
            if dims[mi] + dims[mj] - dims[mi | mj] == dims[mi & mj]:
                continue
            lhs = intersect(arrangement.eval_mask(mi), arrangement.eval_mask(mj))
            rhs = arrangement.eval_mask(mi & mj)
            vector = lhs.basis[first_outside(lhs, rhs)]
            location = (poset._labels_of(mi), poset._labels_of(mj))
            return False, location, vector, {"pairs_checked": pairs, "ranks_computed": len(masks)}
    return True, None, None, {"pairs_checked": pairs, "ranks_computed": len(masks)}


def scan_outcome(report):
    """A checker's report in full_pair_scan's form; a witness must verify."""
    witness = report.witness
    if witness is None:
        return report.verdict, None, None, report.work
    assert witness.verify()
    return report.verdict, witness.location, witness.vector, report.work
