"""One pass of a workload: every job once, in this fresh interpreter.

    python3 bench/passrun.py JOBS.json RESULT.json TRACE(0|1) [SPANS.json]

Run by run.py with the pass directory as working directory and the
repository's `src` on PYTHONPATH.  CLI jobs call the `interdec` console
entry point (`interdec.cli.main`) in-process, exactly as the console script
does, with stdout and stderr captured; exit codes come from its SystemExit.
The pass's wall time is the sum of its job times, after the imports.  An
untraced pass samples the machine's speed during every job with gauge.py
and reports each job's mean probe time `g` next to its time `t` (from
which the sampler's own time is taken off).  With TRACE 1 the spans of
tracing.py are installed and written to SPANS.json at the end, and the
sampler's timer stays off.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import interdec.cli
from interdec import arrangements, fileio

import gauge


def run_cli(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            entry(args=argv, prog_name="interdec")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue()


def run_extend(path):
    """extend_to_lower_sets on a loaded arrangement, then condition C on the result."""
    base = fileio.arrangement_from_doc(fileio.load_json(path), location=path)
    lattice = arrangements.extend_to_lower_sets(base)
    report = arrangements.check_condition_C(lattice)
    witness = None
    if report.witness is not None:
        witness = {
            "location": report.witness.location,
            "vector": fileio.render_vector(lattice.field, report.witness.vector),
        }
    doc = {
        "elements": len(lattice.poset.labels),
        "verdict": report.verdict,
        "witness": witness,
    }
    return 0, json.dumps(doc) + "\n"


def run_job(entry, job):
    try:
        if job["kind"] == "cli":
            code, out = run_cli(entry, job["argv"])
        else:
            code, out = run_extend(job["path"])
        return code, out, None
    except Exception:  # recorded as a failed job; the pass goes on
        return None, "", traceback.format_exc()


def main(argv):
    jobs_path, result_path, trace = argv[1], argv[2], argv[3] == "1"
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    entry = interdec.cli.main.main
    run = run_job
    recorder = None
    if trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
        entry = recorder.wrap("cli", entry)
        run = recorder.wrap("bench.job", run_job)
    # The traced passes give self times, so no handler may run inside
    # their spans; they only take the samples before and after the jobs.
    sampler = gauge.Sampler()
    sampler.sample()
    if not trace:
        sampler.start()
    results = []
    for k, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = k
        spent = sampler.spent
        t0 = perf_counter()
        code, out, error = run(entry, job)
        t1 = perf_counter()
        results.append({"t": t1 - t0 - (sampler.spent - spent), "span": (t0, t1),
                        "code": code, "out": out, "error": error})
    if not trace:
        sampler.stop()
    sampler.sample()
    for r in results:
        r["g"] = sampler.mean_during(*r.pop("span"))
    wall = sum(r["t"] for r in results)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "peak_rss_kb": peak_kb, "jobs": results}
    if recorder is not None:
        result["layers"] = recorder.summary()
        recorder.dump(argv[4], [job.get("argv") or ["extend", job["path"]] for job in jobs])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
