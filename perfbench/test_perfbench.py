"""Tests of the benchmark itself: seeded inputs, names, tiny runs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The tiny
runs start real child processes (sweep rounds, the daemon), so they
cover the same paths as ``perfbench/run.py`` at a fraction of the size.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = 0.01


def _sweep_pairs(workload, seed, loops):
    return [(job.ddg.name, job.machine.name)
            for job in workloads.sweep_jobs(workload, seed, loops)]


@pytest.fixture(scope="module")
def corpus():
    from repro.workloads.synth import generate_corpus
    return generate_corpus()


@pytest.mark.parametrize("workload", ["ring-sweep", "unroll-sweep"])
def test_sweep_job_list_is_a_function_of_the_seed(workload, corpus):
    first = _sweep_pairs(workload, 7, corpus)
    assert first == _sweep_pairs(workload, 7, corpus)
    assert first != _sweep_pairs(workload, 8, corpus)
    loops = {loop for loop, _machine in first}
    assert len(loops) == workloads.sweep_loop_count()
    assert len(first) == len(loops) * len(
        workloads.sweep_machines(workload))


def test_service_plan_is_a_function_of_the_seed():
    from repro.workloads.kernels import KERNELS
    names = list(KERNELS)
    first = workloads.service_plan(7, names)
    assert first == workloads.service_plan(7, names)
    assert first.bodies() == workloads.service_plan(7, names).bodies()
    other = workloads.service_plan(8, names)
    assert first.requests != other.requests
    synth = [spec["loop"]["synth"]["index"] for spec in first.population
             if "synth" in spec["loop"]]
    # one synth index in each slice of the corpus index range
    slices = {i * workloads.SERVICE_SYNTH_SPECS // workloads.CORPUS_SIZE
              for i in synth}
    assert slices == set(range(workloads.SERVICE_SYNTH_SPECS))


def test_metric_names_and_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    assert set(e2e) == set(run.END_TO_END)
    assert set(layers) == set(tracer.LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(
        workloads.WORKLOADS)
    for name in list(e2e) + list(layers):
        assert NAME.fullmatch(name), name
    for name, m in e2e.items():
        assert m["unit"] == run.END_TO_END[name]
        assert 0 < m["bound"] <= 0.25
    assert max(e2e.values(), key=lambda m: m["bound"])["name"] == \
        "setup_s"
    for name, m in layers.items():
        assert (m["unit"], m["better"]) == tracer.LAYER_METRICS[name]


def test_tiny_untraced_run_reports_every_end_to_end_metric(tmp_path):
    out = run.run_workload("ring-sweep", 3, 1, False, scale=TINY,
                           setup_samples=2, work_root=tmp_path)
    result = out["result"]
    assert result["correct"], out["report"]["problems"]
    assert result["attempted"] == len(
        workloads.RING_CLUSTERS) * workloads.sweep_loop_count(TINY)
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    prov = out["report"]["provenance"]
    assert prov["latency_samples_per_round"] == result["attempted"]
    assert prov["kernels"] and prov["src_sha256"]
    assert not list(tmp_path.iterdir())  # work files cleaned up


#: Spans each traced workload must emit: every layer that runs on it.
SWEEP_SPANS = {"ir.copyins", "ir.ddgarrays", "sched.mii", "sched.schedule",
               "regalloc.queues", "verify", "runner.fingerprint",
               "runner.cache.get", "runner.cache.put", "runner.executor",
               "runner.job"}
EXPECTED_SPANS = {
    "ring-sweep": SWEEP_SPANS,
    "unroll-sweep": SWEEP_SPANS | {"ir.unroll"},
    "service-replay": SWEEP_SPANS | {"service.jobspec",
                                     "service.engine.submit",
                                     "service.daemon.request",
                                     "service.daemon.respond"},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_passes_checks_and_emits_every_layer(
        workload, tmp_path, monkeypatch):
    seen = []
    layer_metrics = tracer.layer_metrics

    def spy(dumps, *args):
        seen.extend(s[1] for d in dumps for s in d["spans"])
        return layer_metrics(dumps, *args)
    monkeypatch.setattr(tracer, "layer_metrics", spy)
    out = run.run_workload(workload, 5, 1, True, scale=TINY,
                           setup_samples=2, work_root=tmp_path)
    result = out["result"]
    assert result["correct"], out["report"]["problems"]
    assert set(result["metrics"]) == set(tracer.LAYER_METRICS)
    assert EXPECTED_SPANS[workload] <= set(seen)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["verify.calls"] > 0
    assert metrics["runner.executor.self_s"] > 0
    if workload == "service-replay":
        assert metrics["service.engine.submit_calls"] > 0
        assert metrics["runner.cache.hit_ratio"] > 0
    assert "overhead_ratio" in out["report"]["tracing"]
