"""interdec benchmark: seeded CLI workloads, end-to-end times, traced per-layer breakdown.

Run from the repository root:

    python3 bench/run.py --workload factor_ladder --seed 1 --seconds 30 --trace 0

The workloads and their reasons are in workloads.py and README.md.  A run
generates the workload's documents from the seed, times import of the
package in fresh interpreters (setup_s), then runs passes: each pass is the
workload's whole job list, once, in a fresh interpreter (passrun.py).  The
number of passes is fixed by --seconds and the workload's nominal pass time
on a 2-core machine, so the sample count and the tail percentile do not
depend on how fast a particular run happens to be.  The run stays on one
CPU, and every time it reports is scaled by gauge.py to a fixed reference
speed of the machine, measured while the work runs.

Every answer is checked by oracle.py, which does not use interdec's linear
algebra.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones in BENCHMARK.json, with --trace 1 the per-layer
ones, taken from passes that alternate with untraced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Seconds one pass takes on a 2-core x86-64 VM under Python 3.11 at the
# commit that introduced the benchmark; only used to size runs.
NOMINAL_PASS_S = {"factor_ladder": 7.5, "lower_set_scan": 7.5, "random_mix": 3.3}
MIN_PASSES = 2
SETUP_PROBES = 12
RUN_DEADLINE_S = 165.0
TAIL_BEYOND = 10

# Times the import, then reads the gauge in the same process; the gauge
# module is put on the path only after the import, so it cannot stand in
# for a module of the package.
PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import interdec, interdec.cli\n"
    "t = time.perf_counter() - t\n"
    f"sys.path.append({str(HERE)!r})\n"
    "import gauge\n"
    "print(repr(t), repr(gauge.reading()))\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pass_plan(workload, seconds, trace):
    """Untraced/traced flags of the passes, in order."""
    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    if not trace:
        return [False] * passes
    return [False, True] * max(1, round(passes / 2))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile); the largest sample when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


# ---------------------------------------------------------------------------
# judging answers
# ---------------------------------------------------------------------------

class Judge:
    """Oracle verdicts on one workload's answers."""

    def __init__(self, builder, passdir):
        self.builder = builder
        self.passdir = passdir
        self._docs = {}

    def arrangement(self, name):
        if name not in self._docs:
            self._docs[name] = oracle.ArrangementDoc(self.builder.docs[name])
        return self._docs[name]

    def __call__(self, k, code, out):
        try:
            return self._judge(self.builder.jobs[k]["check"], code, out)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed answer ({type(exc).__name__}: {exc})"

    def _judge(self, check, code, out):
        kind = check["type"]
        if kind == "interactions":
            problem = oracle.check_interactions_answer(
                check["labels"], check["cards"], check["p"], code, out, check["emit_bases"])
            if problem is None and "export" in check:
                text = (self.passdir / check["export"]).read_text()
                problem = oracle.check_exported_factor_arrangement(
                    check["labels"], check["cards"], text)
            return problem
        if kind == "factor_decompose":
            doc = json.loads(out)
            if code != 0 or doc.get("certified") is not True:
                return f"factor decompose: exit {code}, not certified"
            return oracle.check_components(check["labels"], check["cards"], None, doc["components"])
        if kind == "factor_C":
            doc = json.loads(out)
            if code != 0 or doc.get("verdict") is not True or doc.get("witness") is not None:
                return f"factor check C: exit {code}, verdict {doc.get('verdict')!r}"
            return None
        if kind == "cap":
            return None if code == 3 and out == "" else f"cap job: exit {code}, stdout {out[:60]!r}"
        if kind == "extend":
            return oracle.check_extension_answer(
                self.arrangement(check["doc"]), code, out, check["expect"])
        arr = self.arrangement(check["doc"])
        problem = oracle.check_arrangement_answer(
            arr, check["command"], code, out, check.get("planted"))
        if problem is None and check.get("expect") is not None:
            got = oracle.verdict_of(check["command"], out)
            if got is not check["expect"]:
                return f"{check['command']}: verdict {got}, expected {check['expect']}"
        return problem


def reference_problems(builder, passdir, answers):
    """The oracle's problem with each job's answer in the first pass, or None.

    Later passes must repeat these answers exactly, so they share the verdicts.
    """
    judge = Judge(builder, passdir)
    grouped = group_problems(builder, answers)
    problems = []
    for k, (code, out) in enumerate(answers):
        problem = judge(k, code, out) if code is not None else None
        if problem is None:
            problem = grouped.get(builder.jobs[k]["check"].get("group"))
        problems.append(problem)
    return problems


def group_problems(builder, answers):
    """Per document: the C verdict agrees with both decompose answers, and I with sI."""
    verdicts = {}
    for k, job in enumerate(builder.jobs):
        group = job["check"].get("group")
        code, out = answers[k]
        if group is None or code not in (0, 1):
            continue
        try:
            verdicts.setdefault(group, {})[job["check"]["command"]] = oracle.verdict_of(
                job["check"]["command"], out)
        except (KeyError, ValueError):
            continue
    bad = {}
    for group, v in verdicts.items():
        c_side = {v.get("C"), v.get("decompose"), v.get("decompose-seeded")}
        if len(c_side) != 1:
            bad[group] = f"C verdict and decompose disagree: {v}"
        elif v.get("I") != v.get("sI"):
            bad[group] = f"I and sI verdicts disagree: {v}"
    return bad


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def import_time(deadline):
    """Seconds a fresh interpreter takes to import interdec and interdec.cli,
    scaled by the gauge reading it takes right after."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing interdec failed:\n{proc.stderr}")
    seconds, reading = map(float, proc.stdout.split())
    return seconds * gauge.BURST_REF_S / reading


def scaled(job):
    """A job's time at the gauge's reference speed."""
    return job["t"] * gauge.REF_S / job["g"]


def run_pass(passdir, traced, index, deadline, spans_path):
    result_path = passdir / f"result{index}.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), "jobs.json", str(result_path),
           "1" if traced else "0", str(spans_path)]
    try:
        proc = subprocess.run(
            cmd, cwd=passdir, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, "pass timed out"
    if proc.returncode != 0 or not result_path.exists():
        return None, f"pass runner exited {proc.returncode}:\n{proc.stderr[-2000:]}"
    with open(result_path) as fh:
        return json.load(fh), None


def measure(args, passdir):
    deadline = time.monotonic() + RUN_DEADLINE_S
    builder = workloads.build(args.workload, args.seed)
    builder.write(passdir)
    spans_path = WORK / "trace" / f"{args.workload}-spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    (passdir / "jobs.json").write_text(json.dumps(
        [{key: v for key, v in job.items() if key != "check"} for job in builder.jobs]))

    import_time(deadline)  # may compile bytecode, which users pay once
    plan = pass_plan(args.workload, args.seconds, args.trace)
    probes_per_pass = -(-SETUP_PROBES // len(plan))
    setup = []
    n_jobs = len(builder.jobs)
    attempted = failed = 0
    problems = []
    passes = []
    reference = None
    for index, traced in enumerate(plan):
        # spread over the run, so that setup_s sees the same machine as the passes
        setup += [import_time(deadline) for _ in range(probes_per_pass)]
        result, error = run_pass(passdir, traced, index, deadline, spans_path)
        attempted += n_jobs
        if result is None:
            failed += n_jobs
            problems.append(error)
            break
        answers = [(j["code"], j["out"]) for j in result["jobs"]]
        if reference is None:
            reference = answers
            verdicts = reference_problems(builder, passdir, answers)
        for k, job in enumerate(result["jobs"]):
            problem = job["error"]
            if problem is None and answers[k] != reference[k]:
                problem = "stdout or exit code differs from the first pass"
            if problem is None:
                problem = verdicts[k]
            if problem is not None:
                failed += 1
                problems.append(f"job {k} {builder.jobs[k].get('argv')}: {problem}")
        passes.append((traced, result))
    return setup, passes, attempted, failed, problems


def end_to_end(setup, passes, attempted, failed):
    plain = [r for traced, r in passes if not traced]
    # Repeated passes time the same jobs again, so the percentiles are taken
    # over one sample per distinct job, its median over the passes: ten
    # repeats of the slowest job are not ten samples of the workload's tail.
    per_job = [statistics.median(scaled(r["jobs"][k]) for r in plain)
               for k in range(len(plain[0]["jobs"]))]
    tail_s, pct = tail(per_job)
    raw_wall = statistics.median(r["wall_s"] for r in plain)
    print(f"{len(per_job)} jobs x {len(plain)} passes; job_s_p50 is the median and "
          f"job_s_tail p{pct:.2f} of the {len(per_job)} per-job medians; times are "
          f"scaled to the gauge's reference speed (unscaled wall_s {raw_wall:.4g} s)")
    return {
        "wall_s": statistics.median(sum(scaled(j) for j in r["jobs"]) for r in plain),
        "job_s_p50": statistics.median(per_job),
        "job_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in plain),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(passes, names):
    plain = [r for traced, r in passes if not traced]
    traced = [r for is_traced, r in passes if is_traced]
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in names if name != "trace_overhead"
    }
    out["trace_overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
    )
    # The self times should account for the job time of the untraced passes;
    # the wrapper's cost that its own clock misses shows as the excess.
    traced_self = statistics.median(r["layers"]["trace.self_s"] for r in traced)
    plain_jobs = statistics.median(sum(j["t"] for j in r["jobs"]) for r in plain)
    print(f"trace: {len(traced)} traced passes; the self times sum to {traced_self:.4g} s, "
          f"{traced_self / plain_jobs:.3f} x the untraced passes' job time {plain_jobs:.4g} s")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "interdec" / "cli.py").is_file():
        print(f"error: no interdec source tree at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    gauge.pin_to_one_cpu()
    passdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup, passes, attempted, failed, problems = measure(args, passdir)
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    if not any(not traced for traced, _ in passes) or (
            args.trace and not any(traced for traced, _ in passes)):
        print("error: no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        declared = benchmark["per_layer"]
        values = per_layer(passes, [m["name"] for m in declared])
    else:
        declared = benchmark["end_to_end"]
        values = end_to_end(setup, passes, attempted, failed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
