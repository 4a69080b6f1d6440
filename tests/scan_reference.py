"""Reference scans for (I), (sI) and (C), by ranks alone.

The checkers decide (C), (I) and (sI) by the decomposition certificate,
the same one `decompose` reads, and a failing (C), (I) or (sI) scan ranks
subset sums through `dim_of_mask`.  These loops take their own route:
every set is ranked by `rank_of_rows` over the stored rows of all its
members, with no maximal-member shortcut and no memo.  The full pair
loop tests the pair identity on every pair of lower sets in scan order;
the (C) scan tests dim F(a) + dim F(ǎ) − dim F(ǎ ∪ {a}) = dim F(â*)
element by element.
"""

from interdec.linalg import first_outside, intersect, rank_of_rows, subspace_from_generators
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


def full_c_scan(arrangement):
    """Reference (C) scan: for each element a in element order, rank F(ǎ),
    F(ǎ ∪ {a}) and F(â*) and convict the first a whose dimensions break
    the pair identity, with a vector of F(a) ∩ F(ǎ) outside F(â*).
    Returns (verdict, witness location, witness vector, work)."""
    poset = arrangement.poset
    field, n = arrangement.field, arrangement.ambient_dim
    spaces = [arrangement.spaces[lab] for lab in poset.labels]

    def rows_of(members):
        return [row for b in members for row in spaces[b].exact_rows()]

    for i, a in enumerate(poset.labels):
        cheek = [j for j, b in enumerate(poset.labels) if not poset.leq(a, b)]
        strict = [j for j, b in enumerate(poset.labels) if b != a and poset.leq(b, a)]
        work = {"pairs_checked": i + 1, "ranks_computed": 3 * (i + 1)}
        d_cheek, d_join, d_strict = (
            rank_of_rows(rows_of(members), field) for members in (cheek, cheek + [i], strict)
        )
        if spaces[i].dim + d_cheek - d_join == d_strict:
            continue
        lhs = intersect(spaces[i], subspace_from_generators(n, rows_of(cheek), field))
        rhs = subspace_from_generators(n, rows_of(strict), field)
        return False, a, lhs.basis[first_outside(lhs, rhs)], work
    count = len(spaces)
    return True, None, None, {"pairs_checked": count, "ranks_computed": 3 * count}


def scan_outcome(report):
    """A checker's report in full_pair_scan's form; a witness must verify."""
    witness = report.witness
    if witness is None:
        return report.verdict, None, None, report.work
    assert witness.verify()
    return report.verdict, witness.location, witness.vector, report.work
