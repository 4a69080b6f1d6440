"""Spans and boundary counts around the public functions of interdec's modules.

`install` replaces every public function of `linalg`, `posets`,
`arrangements`, `interactions` and `fileio` (plus the lower-set scan engine
and the methods `IntEchelon.insert`, `Arrangement.eval_mask` and
`Arrangement.dim_of_mask`) by a wrapper that records a span, and patches
every binding of each replaced name: the defining module, every interdec
module that imported it, and the package namespace.  The pass runner adds
the `cli` span around the console entry point and a `bench.job` root span
per job.

A span is (name id, start, end, parent index, job id, overhead), kept in
memory and written out when the pass ends.  The overhead is the time the
wrapper spent on its own bookkeeping and counting, read off its clock around
the wrapped call.  A span's self time is its duration minus the durations
and overheads of its child spans.  The rest of a wrapped call's cost escapes
that clock: entering and leaving the wrapper, the call through
`*args, **kwargs` and the clock read that ends the span, together about
half a microsecond per call on a 2-core x86-64 VM.  It lands in the self
time of the caller or the callee, so a function making many small traced
calls shows more self time than it costs untraced.  run.py prints how far
the self times exceed the untraced passes' job time.

Counts are computed at the wrapper from arguments and results only, so
they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("linalg", "posets", "arrangements", "interactions", "fileio")

RENAMED = {
    "fileio.load_json": "fileio.load",
    "fileio.dump_json": "fileio.dump",
    "arrangements._pairwise_lower_set_scan": "arrangements.lower_set_scan",
}

COUNTS = (
    "linalg.rref.cells",
    "linalg.echelon.insert.grew",
    "posets.enumerate_lower_sets.sets",
    "arrangements.check_monotonicity.pairs",
    "arrangements.lower_set_scan.pairs",
    "arrangements.eval_mask.memo_hits",
    "arrangements.eval_mask.rows_in",
    "arrangements.dim_of_mask.memo_hits",
    "arrangements.dim_of_mask.rows_in",
    "fileio.dump.bytes",
)

METHODS = {
    ("linalg", "IntEchelon", "insert"): "linalg.echelon.insert",
    ("arrangements", "Arrangement", "eval_mask"): "arrangements.eval_mask",
    ("arrangements", "Arrangement", "dim_of_mask"): "arrangements.dim_of_mask",
}


class Recorder:
    """In-memory span store for one pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = []
        self.job = -1
        self.counts = dict.fromkeys(COUNTS, 0)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before(args) and after(args, result) count."""
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w0 = perf_counter()
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.job, t0 - w0)
                raise
            t1 = perf_counter()
            stack.pop()
            if after is not None:
                after(args, result)
            spans[idx] = (nid, t0, t1, parent, self.job, (t0 - w0) + (perf_counter() - t1))
            return result

        return traced

    # -- boundary counts ----------------------------------------------------

    def _counters(self):
        counts = self.counts

        def rref_cells(args):
            counts["linalg.rref.cells"] += args[0].rows * args[0].cols

        def insert_grew(args, grew):
            counts["linalg.echelon.insert.grew"] += bool(grew)

        def lower_sets(args, result):
            counts["posets.enumerate_lower_sets.sets"] += len(result)

        def pairs(name):
            def count(args, report):
                counts[name] += report.work["pairs_checked"]
            return count

        def dumped(args, text):
            counts["fileio.dump.bytes"] += len(text.encode())

        def mask_sum(name, memo_attr):
            def count(args):
                arrangement, mask = args[0], args[1]
                if mask in getattr(arrangement, memo_attr):
                    counts[name + ".memo_hits"] += 1
                    return
                labels, spaces = arrangement.poset.labels, arrangement.spaces
                rows = 0
                while mask:
                    low = mask & -mask
                    rows += spaces[labels[low.bit_length() - 1]].dim
                    mask ^= low
                counts[name + ".rows_in"] += rows
            return count

        return {
            "linalg.rref": (rref_cells, None),
            "linalg.echelon.insert": (None, insert_grew),
            "posets.enumerate_lower_sets": (None, lower_sets),
            "arrangements.check_monotonicity": (
                None, pairs("arrangements.check_monotonicity.pairs")),
            "arrangements.lower_set_scan": (
                None, pairs("arrangements.lower_set_scan.pairs")),
            "fileio.dump": (None, dumped),
            "arrangements.eval_mask": (
                mask_sum("arrangements.eval_mask", "_eval_memo"), None),
            "arrangements.dim_of_mask": (
                mask_sum("arrangements.dim_of_mask", "_dim_memo"), None),
        }

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the functions and patch every binding."""
        counters = self._counters()
        replaced = {}
        for layer in MODULES:
            module = importlib.import_module(f"interdec.{layer}")
            for attr, obj in list(vars(module).items()):
                qualified = f"{layer}.{attr}"
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                if attr.startswith("_") and qualified not in RENAMED:
                    continue
                name = RENAMED.get(qualified, qualified)
                replaced[id(obj)] = (obj, self.wrap(name, obj, *counters.get(name, (None, None))))
        for module_name, module in list(sys.modules.items()):
            if module_name != "interdec" and not module_name.startswith("interdec."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        for (layer, cls_name, method), name in METHODS.items():
            cls = getattr(importlib.import_module(f"interdec.{layer}"), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(name, original, *counters.get(name, (None, None))))

    # -- summary ------------------------------------------------------------

    def summary(self):
        """Per-name calls and self time, per-layer self time, counts, the
        measured tracing overhead and the sum of all self times."""
        spans = self.spans
        cover = [0.0] * len(spans)
        for nid, t0, t1, parent, job, ovh in spans:
            if parent >= 0:
                cover[parent] += (t1 - t0) + ovh
        calls = Counter()
        self_s = Counter()
        overhead = 0.0
        for i, (nid, t0, t1, parent, job, ovh) in enumerate(spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += (t1 - t0) - cover[i]
            if parent >= 0:
                overhead += ovh
        out = {"trace.overhead_s": overhead, "trace.self_s": sum(self_s.values())}
        layers = Counter()
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            layers[name.split(".")[0]] += self_s[name]
        for layer, total in layers.items():
            out[f"{layer}.self_s"] = total
        out.update(self.counts)
        counts = self.counts
        out["linalg.echelon.insert_yield"] = _ratio(
            counts["linalg.echelon.insert.grew"], calls["linalg.echelon.insert"])
        for name in ("arrangements.eval_mask", "arrangements.dim_of_mask"):
            out[f"{name}.memo_hit_ratio"] = _ratio(counts[f"{name}.memo_hits"], calls[name])
        return out

    def dump(self, path, jobs):
        """Write the spans: names, job labels, and one row per span."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "jobs": jobs, "spans": self.spans}, fh)


def _ratio(part, whole):
    return part / whole if whole else 0.0
