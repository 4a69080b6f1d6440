"""Seeded input documents and the fixed job list of each workload.

A job is one call of an entry point on one generated document: an
`interdec` CLI command (`{"kind": "cli", "argv": [...]}`) or the library
call `extend_to_lower_sets` followed by `check_condition_C`
(`{"kind": "extend", "path": ...}`).  A workload is a fixed list of jobs;
the seed only selects the documents.  Generation happens here, in the
parent process and before any timing, and uses nothing from `interdec` or
from the repository's tests, so editing either cannot change a workload.

Every job carries a `check` entry for the oracle in `oracle.py`; the pass
runner ignores it.
"""

from __future__ import annotations

import json
import random
import string
from fractions import Fraction

from oracle import down_closure, rank

GF101 = 101
GF7 = 7


# ---------------------------------------------------------------------------
# entries, vectors, documents
# ---------------------------------------------------------------------------

def _entry(rng, p):
    if p is not None:
        return rng.randrange(p)
    if rng.random() < 0.15:
        return Fraction(rng.randint(-3, 3), rng.randint(2, 3))
    return Fraction(rng.randint(-2, 2))


def _format(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _vector(rng, d, p):
    while True:
        v = [_entry(rng, p) for _ in range(d)]
        if any(v):
            return v


def _independent_rows(rng, k, d, p):
    """k random rows of F^d that are linearly independent (k ≤ d)."""
    while True:
        rows = [_vector(rng, d, p) for _ in range(k)]
        if rank(rows, p) == k:
            return rows


def _arrangement_doc(p, d, elements, relations, spaces):
    return {
        "field": "rational" if p is None else {"mod": p},
        "ambient_dim": d,
        "poset": {"elements": list(elements), "relations": [list(r) for r in relations]},
        "spaces": {
            e: [[_format(x) for x in row] for row in spaces[e]] for e in elements
        },
    }


def _random_relations(rng, elements, density):
    order = list(elements)
    rng.shuffle(order)
    return [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < density
    ]


def planted_doc(rng, p, d, elements, relations, dims, basis=None):
    """A decomposable arrangement with component dimensions dims (Σ dims ≤ d).

    The components are disjoint slices of a basis of F^d (random unless
    given), so their sum is direct; F(a) is generated by the components
    below a, in shuffled order and sometimes with a redundant combination row.
    """
    if basis is None:
        basis = _independent_rows(rng, d, d, p)
    comps, at = {}, 0
    for e in elements:
        comps[e] = basis[at:at + dims[e]]
        at += dims[e]
    below = down_closure(elements, relations)
    spaces = {}
    for a in elements:
        rows = [row for b in elements if b in below[a] for row in comps[b]]
        rng.shuffle(rows)
        if len(rows) >= 2 and rng.random() < 0.3:
            x, y = rng.sample(rows, 2)
            rows.append([u + v if p is None else (u + v) % p for u, v in zip(x, y)])
        spaces[a] = rows
    return _arrangement_doc(p, d, elements, relations, spaces)


def monotone_doc(rng, p, d, elements, relations, counts):
    """An arbitrary monotone arrangement: F(a) is generated by the random
    vectors attached to the elements below a, counts[e] of them at e.  It
    may or may not decompose."""
    gens = {e: [_vector(rng, d, p) for _ in range(counts[e])] for e in elements}
    below = down_closure(elements, relations)
    spaces = {
        a: [row for b in elements if b in below[a] for row in gens[b]] for a in elements
    }
    return _arrangement_doc(p, d, elements, relations, spaces)


def antichain_of_lines(rng, n, d, independent=False):
    """n generic lines in ℚ^d on an antichain, listed in a seeded order.

    The line vectors themselves come from a fixed generator (independent
    ones when asked, which needs n ≤ d) and the seed only flips their signs
    and orders the elements, so every seed costs the same elimination work.
    """
    content = random.Random(f"lines:{n}:{d}:{independent}")
    rows = _independent_rows(content, n, d, None) if independent else [
        _vector(content, d, None) for _ in range(n)
    ]
    elements = [f"e{i}" for i in range(n)]
    spaces = {e: [[-x for x in row] if rng.random() < 0.5 else row]
              for e, row in zip(elements, rows)}
    rng.shuffle(elements)
    return _arrangement_doc(None, d, elements, [], spaces)


def _variable_labels(rng, k):
    labels = set()
    while len(labels) < k:
        labels.add(rng.choice(string.ascii_uppercase) + rng.choice(string.ascii_lowercase))
    labels = sorted(labels)
    rng.shuffle(labels)
    return labels


def _model_doc(labels, cards):
    return {
        "variables": [{"label": lab, "cardinality": c} for lab, c in zip(labels, cards)]
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Builder:
    """Collects documents (written under the pass directory) and jobs."""

    def __init__(self):
        self.docs = {}
        self.jobs = []

    def doc(self, name, doc):
        self.docs[name] = doc
        return name

    def cli(self, argv, **check):
        self.jobs.append({"kind": "cli", "argv": list(argv), "check": check})

    def write(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        for name, doc in self.docs.items():
            (directory / name).write_text(json.dumps(doc))


FACTOR_RUNGS_QQ = [(2,) * 4, (3, 3, 3), (4, 4, 4), (3, 3, 3, 3)]
FACTOR_RUNGS_GF101 = [(2,) * 5, (3, 3, 3, 3), (2,) * 6]
FACTOR_EXPORT = (2,) * 5


def factor_ladder(rng, qq=FACTOR_RUNGS_QQ, gf=FACTOR_RUNGS_GF101, export=FACTOR_EXPORT):
    # Why: few, large matrices and no lower-set enumeration.  The ℚ rungs
    # spend most of their time in the Fraction `rref`, the GF(101) rungs in
    # the `IntEchelon` rank path behind `dim_of_mask`; a faster exact kernel
    # or maximal-element subset sums show here first.
    b = Builder()
    for k, (cards, p) in enumerate([(c, None) for c in qq] + [(c, GF101) for c in gf]):
        labels = _variable_labels(rng, len(cards))
        path = b.doc(f"model{k}.json", _model_doc(labels, cards))
        flag = [] if p is None else ["--field", f"mod:{p}"]
        b.cli(flag + ["interactions", path], type="interactions",
              labels=labels, cards=list(cards), p=p, emit_bases=False)
    labels = _variable_labels(rng, len(export))
    path = b.doc("model-export.json", _model_doc(labels, export))
    common = {"labels": labels, "cards": list(export)}
    b.cli(["interactions", path, "--emit-bases", "--export-arrangement", "export.json"],
          type="interactions", p=None, emit_bases=True, export="export.json", **common)
    b.cli(["decompose", "export.json"], type="factor_decompose", **common)
    b.cli(["check", "export.json", "--property", "C"], type="factor_C", **common)
    return b


def lower_set_scan(rng, big=12, failing=(12, 5), chains=(6, 3), extend=(10, 5)):
    # Why: the work is the pure-Python pair loop over 4096 lower sets,
    # `enumerate_lower_sets`, lattice construction and the O(N²) cover scan
    # in `check_monotonicity`; subset sums are a small share and `rref` is
    # almost idle.  Deleting duplicated scan/lattice code should move this
    # workload, while a faster elimination kernel should leave it unchanged.
    b = Builder()
    holds = b.doc("antichain-independent.json", antichain_of_lines(rng, big, big, True))
    b.cli(["check", holds, "--property", "sI"], type="arrangement", command="sI",
          doc=holds, expect=True)
    n_chains, length = chains
    elements, relations = [], []
    for c in range(n_chains):
        chain = [f"c{c}_{j}" for j in range(length)]
        elements += chain
        relations += list(zip(chain, chain[1:]))
    planted = {e: 1 for e in elements}
    d = len(elements)
    basis = _independent_rows(random.Random(f"chains:{chains}"), d, d, None)
    chained = b.doc("chains.json", planted_doc(
        rng, None, d, elements, relations, planted, basis))
    b.cli(["check", chained, "--property", "I"], type="arrangement", command="I",
          doc=chained, planted=planted)
    fails = b.doc("antichain-dependent.json", antichain_of_lines(rng, *failing))
    for prop in ("I", "sI"):
        b.cli(["check", fails, "--property", prop], type="arrangement", command=prop,
              doc=fails, expect=False)
    # 13 elements: 2^13 lower sets, over the CLI's default cap of 4096 = 2^12.
    over = b.doc("antichain-over-cap.json", antichain_of_lines(rng, 13, 4))
    b.cli(["check", over, "--property", "sI"], type="cap")
    base = b.doc("antichain-extend.json", antichain_of_lines(rng, *extend))
    b.jobs.append({"kind": "extend", "path": base,
                   "check": {"type": "extend", "doc": base, "expect": False}})
    return b


def random_mix(rng, n_docs=400):
    # Why: the same linalg and arrangements code as factor_ladder but on
    # many tiny matrices, so per-call overhead in fileio, cli and
    # new_arrangement dominates and both outcomes (certificates and
    # witnesses) run.  A kernel that wins on big matrices but costs more per
    # call shows here; ~2000 jobs per pass give stable latency percentiles.
    # The sizes, order densities, planted dimensions and generator counts run
    # through a fixed grid, and each document's order relations come from a
    # generator of its own, the same for every seed: the number of lower sets
    # fixes the cost of the slowest jobs, so seeded orders would move the
    # tail from seed to seed.  Seeds change the vectors and the labelling.
    b = Builder()
    for k in range(n_docs):
        p = None if k % 2 == 0 else GF7
        shape = k // 4
        n = 1 + shape % 8
        d = 1 + (shape // 8) % 8
        elements = [f"x{i}" for i in range(n)]
        rng.shuffle(elements)
        relations = _random_relations(
            random.Random(f"random_mix-order:{k}"), sorted(elements), (0.0, 0.25, 0.5)[shape % 3])
        counts = {f"x{i}": (i + k) % 3 for i in range(n)}
        planted = None
        if (k // 2) % 2 == 0:
            budget = d
            planted = {}
            for i in range(n):
                planted[f"x{i}"] = min(budget, counts[f"x{i}"])
                budget -= planted[f"x{i}"]
            doc = planted_doc(rng, p, d, elements, relations, planted)
        else:
            doc = monotone_doc(rng, p, d, elements, relations, counts)
        path = b.doc(f"doc{k:03d}.json", doc)
        group = {"doc": path, "planted": planted, "group": k}
        for prop in ("C", "I", "sI"):
            b.cli(["check", path, "--property", prop], type="arrangement",
                  command=prop, **group)
        b.cli(["decompose", path], type="arrangement", command="decompose", **group)
        b.cli(["decompose", path, "--seed", "1"], type="arrangement",
              command="decompose-seeded", **group)
    return b


WORKLOADS = {
    "factor_ladder": factor_ladder,
    "lower_set_scan": lower_set_scan,
    "random_mix": random_mix,
}


def build(name, seed):
    """The workload's documents and jobs for one seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
