"""Self-test of the benchmark on tiny job lists.

    python3 -m pytest -q bench

Checks that every metric in BENCHMARK.json is emitted with its unit, that a
corrupted answer of each shape is caught by the oracle and counted in the
failures, that the spans of a traced pass nest under one root per job
with the self times and measured overheads summing to it, and that the
gauge samples the machine's speed while work runs.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time

import pytest

import gauge
import oracle
import run
import workloads

TINY = {
    "factor_ladder": lambda rng: workloads.factor_ladder(
        rng, qq=[(2, 2)], gf=[(2, 3)], export=(2, 2)),
    "lower_set_scan": lambda rng: workloads.lower_set_scan(
        rng, big=4, failing=(4, 2), chains=(2, 2), extend=(4, 2)),
    "random_mix": lambda rng: workloads.random_mix(rng, n_docs=16),
}

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    for name, build in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, build)


def run_bench(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    result = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


# ---------------------------------------------------------------------------
# corrupted answers
# ---------------------------------------------------------------------------

def corrupting(monkeypatch, job_index, corrupt):
    """Make every pass report corrupt(stdout) for one job."""
    real = run.run_pass

    def fake(*args, **kwargs):
        result, error = real(*args, **kwargs)
        job = result["jobs"][job_index]
        job["out"] = corrupt(job["out"])
        return result, error

    monkeypatch.setattr(run, "run_pass", fake)


def edit_json(edit):
    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc) + "\n"
    return corrupt


def first_job(workload, seed, predicate):
    builder = TINY[workload](random.Random(f"{workload}:{seed}"))
    return next(k for k, job in enumerate(builder.jobs) if predicate(job))


def test_wrong_dimension_table_is_counted(tiny, capsys, monkeypatch):
    def bump(doc):
        label = next(iter(doc["dimensions"]))
        doc["dimensions"][label] += 1

    corrupting(monkeypatch, 0, edit_json(bump))
    result = run_bench(capsys, "factor_ladder", 0)
    assert result["correct"] is False
    assert result["failed"] == run.MIN_PASSES
    assert result["metrics"]["ok_frac"]["value"] == 1 - run.MIN_PASSES / result["attempted"]


def test_non_witness_pair_vector_is_counted(tiny, capsys, monkeypatch):
    k = first_job("lower_set_scan", 3, lambda job: job["check"].get("expect") is False
                  and job["check"]["type"] == "arrangement")

    def zero(doc):
        doc["witness"]["vector"] = [0] * len(doc["witness"]["vector"])

    corrupting(monkeypatch, k, edit_json(zero))
    result = run_bench(capsys, "lower_set_scan", 0)
    assert result["failed"] == run.MIN_PASSES


def test_changed_exit_code_of_the_cap_job_is_counted(tiny, capsys, monkeypatch):
    k = first_job("lower_set_scan", 3, lambda job: job["check"]["type"] == "cap")
    corrupting(monkeypatch, k, lambda out: "{}\n")
    result = run_bench(capsys, "lower_set_scan", 0)
    assert result["failed"] == run.MIN_PASSES


def test_broken_certified_decomposition_is_counted(tiny, capsys, monkeypatch):
    k = first_job("factor_ladder", 3, lambda job: job["check"]["type"] == "factor_decompose")

    def double(doc):
        comps = doc["components"]
        comps["{}"] = comps["{}"] * 2

    corrupting(monkeypatch, k, edit_json(double))
    result = run_bench(capsys, "factor_ladder", 0)
    assert result["failed"] == run.MIN_PASSES


THREE_LINES = {
    "field": "rational",
    "ambient_dim": 2,
    "poset": {"elements": ["a1", "a2", "a3"], "relations": []},
    "spaces": {"a1": [[1, 0]], "a2": [[0, 1]], "a3": [[1, 1]]},
}

CHAIN = {
    "field": {"mod": 7},
    "ambient_dim": 3,
    "poset": {"elements": ["x", "y"], "relations": [["x", "y"]]},
    "spaces": {"x": [[1, 0, 0]], "y": [[1, 0, 0], [0, 1, 0]]},
}


def test_c_witness_shape():
    arr = oracle.ArrangementDoc(THREE_LINES)
    assert oracle.check_c_witness(arr, {"location": "a1", "vector": [1, 0]}) is None
    assert oracle.check_c_witness(arr, {"location": "a1", "vector": ["1/2", 0]}) is None
    # in the cheek sum but not in F(a1)
    assert oracle.check_c_witness(arr, {"location": "a1", "vector": [1, 1]})
    # zero lies in F(â*)
    assert oracle.check_c_witness(arr, {"location": "a1", "vector": [0, 0]})
    # a chain decomposes: nothing in F(y) ∩ F(y̌) = 0 can be a witness
    chain = oracle.ArrangementDoc(CHAIN)
    assert oracle.check_c_witness(chain, {"location": "y", "vector": [0, 1, 0]})


def test_pair_witness_shape():
    arr = oracle.ArrangementDoc(THREE_LINES)
    good = {"location": [["a1"], ["a2", "a3"]], "vector": [1, 0]}
    assert oracle.check_pair_witness(arr, good) is None
    assert oracle.check_pair_witness(arr, {**good, "vector": [0, 1]})
    assert oracle.check_pair_witness(arr, {**good, "vector": [0, 0]})
    chain = oracle.ArrangementDoc(CHAIN)
    # {y} is not a lower set of the chain x ≤ y
    not_lower = {"location": [["y"], ["x"]], "vector": [1, 0, 0]}
    assert "not a lower set" in oracle.check_pair_witness(chain, not_lower)


def test_decomposition_check():
    chain = oracle.ArrangementDoc(CHAIN)
    assert oracle.check_decomposition(chain, {"x": [[1, 0, 0]], "y": [[0, 1, 0]]}) is None
    assert oracle.check_decomposition(chain, {"x": [[1, 0, 0]], "y": [[1, 1, 0]]}) is None
    assert oracle.check_decomposition(chain, {"x": [[1, 0, 0]], "y": [[1, 0, 0]]})
    assert oracle.check_decomposition(chain, {"x": [[1, 0, 0]], "y": [[0, 0, 1]]})


def test_interactions_dimension_table():
    out = json.dumps({
        "variables": [{"label": "A", "cardinality": 2}, {"label": "B", "cardinality": 3}],
        "total_points": 6,
        "dimensions": {"{}": 1, "{A}": 1, "{B}": 2, "{A,B}": 2},
    })
    assert oracle.check_interactions_answer(["A", "B"], [2, 3], None, 0, out, False) is None
    wrong = out.replace('"{A,B}": 2', '"{A,B}": 3')
    assert oracle.check_interactions_answer(["A", "B"], [2, 3], None, 0, wrong, False)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def traced_pass(tmp_path, workload):
    builder = TINY[workload](random.Random(f"{workload}:5"))
    builder.write(tmp_path)
    (tmp_path / "jobs.json").write_text(json.dumps(builder.jobs))
    subprocess.run(
        [sys.executable, str(run.HERE / "passrun.py"), "jobs.json", "result.json", "1",
         "spans.json"],
        cwd=tmp_path, env=run.child_env(), check=True,
    )
    return (json.loads((tmp_path / "result.json").read_text()),
            json.loads((tmp_path / "spans.json").read_text()))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_spans_nest_under_one_root_per_job(tmp_path, workload):
    result, spans = traced_pass(tmp_path, workload)
    roots = [s for s in spans["spans"] if s[3] < 0]
    assert len(roots) == len(result["jobs"])
    assert {spans["names"][s[0]] for s in roots} == {"bench.job"}
    # Bookkeeping: children nest inside their parent and the same job, and
    # per job the self times plus the measured overheads give the root span.
    # That holds by the definition of self time; whether the self times also
    # account for the untraced job time is what run.py's trace line reports.
    cover = [0.0] * len(spans["spans"])
    for nid, t0, t1, parent, job, ovh in spans["spans"]:
        if parent >= 0:
            outer = spans["spans"][parent]
            assert outer[1] <= t0 <= t1 <= outer[2] and outer[4] == job
            cover[parent] += t1 - t0 + ovh
    accounted = [0.0] * len(result["jobs"])
    for (nid, t0, t1, parent, job, ovh), covered in zip(spans["spans"], cover):
        accounted[job] += t1 - t0 - covered + (ovh if parent >= 0 else 0.0)
    for (nid, t0, t1, parent, job, ovh) in roots:
        assert accounted[job] == pytest.approx(t1 - t0, abs=1e-9)


def test_every_binding_is_patched():
    script = (
        "import interdec, interdec.cli, interdec.arrangements as A, interdec.linalg as L\n"
        "from tracing import Recorder\n"
        "Recorder().install()\n"
        "assert interdec.cli.decompose is A.decompose is interdec.decompose\n"
        "assert A.subspace_from_generators is L.subspace_from_generators\n"
        "assert hasattr(A.decompose, '__wrapped__')\n"
        "assert hasattr(L.IntEchelon.insert, '__wrapped__')\n"
        "assert hasattr(A.Arrangement.dim_of_mask, '__wrapped__')\n"
        "assert hasattr(A._pairwise_lower_set_scan, '__wrapped__')\n"
    )
    env = run.child_env()
    env["PYTHONPATH"] += ":" + str(run.HERE)
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


# ---------------------------------------------------------------------------
# gauge
# ---------------------------------------------------------------------------

def test_sampler_follows_the_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    sampler = gauge.Sampler()
    sampler.start()
    start = time.perf_counter()
    end = time.process_time() + 0.2
    while time.process_time() < end:
        sum(i * i for i in range(1000))
    stop = time.perf_counter()
    sampler.stop()
    assert signal.getsignal(signal.SIGPROF) is before
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent < stop - start
    assert all(start <= t <= stop for t, _ in sampler.samples)
    mean = sampler.mean_during(start, stop)
    assert min(g for _, g in sampler.samples) <= mean <= max(g for _, g in sampler.samples)
    # a span with no sample within WINDOW_S takes the nearest one
    assert sampler.mean_during(stop + 10, stop + 10) == sampler.samples[-1][1]


def test_scaled_times_are_inverse_to_the_gauge():
    job = {"t": 2.0, "g": 2 * gauge.REF_S}
    assert run.scaled(job) == pytest.approx(1.0)
    assert run.scaled({**job, "g": gauge.REF_S}) == pytest.approx(2.0)
