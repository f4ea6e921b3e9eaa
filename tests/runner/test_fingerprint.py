"""Job-key stability and sensitivity.

The whole caching story rests on keys being (a) identical for identical
jobs -- across objects, interpreter runs and processes -- and (b)
different for any input change that could change the result.
"""

import multiprocessing

import pytest

from repro.machine.presets import clustered_machine, qrf_machine
from repro.runner import (CompileJob, PipelineOptions, ddg_signature,
                          job_key, machine_signature)
from repro.workloads.kernels import kernel


def _key_of(name: str) -> str:
    """Top-level so a worker process can compute the same key."""
    return CompileJob(kernel(name), qrf_machine(4)).key


def test_key_is_deterministic_across_objects():
    assert _key_of("daxpy") == _key_of("daxpy")


def test_key_is_stable_across_processes():
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        child_keys = pool.map(_key_of, ["daxpy", "dot", "fir4"])
    assert child_keys == [_key_of("daxpy"), _key_of("dot"), _key_of("fir4")]


def test_key_is_hex_sha256():
    key = _key_of("daxpy")
    assert len(key) == 64
    assert int(key, 16) >= 0


def test_key_changes_with_loop():
    assert _key_of("daxpy") != _key_of("dot")


def test_key_changes_with_machine():
    ddg = kernel("daxpy")
    assert (CompileJob(ddg, qrf_machine(4)).key
            != CompileJob(ddg, qrf_machine(6)).key)
    assert (CompileJob(ddg, qrf_machine(12)).key
            != CompileJob(ddg, clustered_machine(4)).key)


def test_key_changes_with_options():
    ddg = kernel("daxpy")
    m = qrf_machine(4)
    base = CompileJob(ddg, m, PipelineOptions()).key
    assert CompileJob(ddg, m, PipelineOptions(do_unroll=True)).key != base
    assert CompileJob(ddg, m, PipelineOptions(allocate=False)).key != base
    assert (CompileJob(ddg, m, PipelineOptions(extras=("crf_registers",))).key
            != base)


def test_key_never_aliases_across_schedulers():
    """On a single-cluster machine the scheduler runs: a different
    engine is a different job, and cached IMS results must never answer
    for SMS.  A ring ignores the scheduler, so there it splits no key."""
    ddg = kernel("daxpy")
    m = qrf_machine(4)
    keys = {CompileJob(ddg, m, PipelineOptions(scheduler=s)).key
            for s in ("ims", "sms")}
    assert len(keys) == 2
    assert (CompileJob(ddg, m, PipelineOptions()).key
            == CompileJob(ddg, m, PipelineOptions(scheduler="ims")).key)
    cm = clustered_machine(4)
    ring_keys = {CompileJob(ddg, cm, PipelineOptions(scheduler=s)).key
                 for s in ("ims", "sms")}
    assert ring_keys == {CompileJob(ddg, cm, PipelineOptions()).key}


def test_key_never_aliases_across_partitioners():
    """On a ring the partitioner runs: a different engine (or MOVEs) is
    a different job, so cached affinity results never answer for the
    agglomerative engine.  A single-cluster machine ignores both fields,
    so there they split no key."""
    from repro.sched.partitioners import PARTITIONERS

    ddg = kernel("daxpy")
    cm = clustered_machine(4)
    keys = {CompileJob(ddg, cm, PipelineOptions(partitioner=p)).key
            for p in PARTITIONERS}
    keys.add(CompileJob(ddg, cm, PipelineOptions(use_moves=True)).key)
    assert len(keys) == len(PARTITIONERS) + 1
    assert (CompileJob(ddg, cm, PipelineOptions()).key
            == CompileJob(ddg, cm,
                          PipelineOptions(partitioner="affinity")).key)
    m = qrf_machine(12)
    flat_keys = {CompileJob(ddg, m, PipelineOptions(partitioner=p)).key
                 for p in PARTITIONERS}
    flat_keys.add(CompileJob(ddg, m, PipelineOptions(use_moves=True)).key)
    assert flat_keys == {CompileJob(ddg, m, PipelineOptions()).key}


def test_unknown_engine_name_never_becomes_a_job():
    """A key leaves out the engine its machine ignores, so an unknown
    name there would compile to a failure cold and replay a cached
    success warm; options refuse the name instead."""
    for field in ("scheduler", "partitioner"):
        with pytest.raises(KeyError, match=f"unknown {field} 'bogus'"):
            PipelineOptions(**{field: "bogus"})


def test_schema_version_is_current():
    from repro.runner import SCHEMA_VERSION
    assert SCHEMA_VERSION == 7


def test_key_changes_with_trip_count():
    a, b = kernel("daxpy"), kernel("daxpy")
    b.trip_count += 1
    m = qrf_machine(4)
    assert CompileJob(a, m).key != CompileJob(b, m).key


def test_ddg_signature_ignores_bookkeeping_names():
    a, b = kernel("daxpy"), kernel("daxpy")
    sig_a, sig_b = ddg_signature(a), ddg_signature(b)
    assert sig_a == sig_b
    assert sig_a["ops"] and sig_a["edges"]


def test_machine_signature_covers_cluster_topology():
    sig = machine_signature(clustered_machine(5))
    assert sig["kind"] == "clustered"
    assert sig["n_clusters"] == 5
    assert sig["cluster"]["kind"] == "single"
    flat = machine_signature(clustered_machine(5).flattened())
    assert flat["kind"] == "single"
    assert sig != flat


def test_job_key_helper_matches_job_property():
    ddg = kernel("dot")
    m = qrf_machine(6)
    opts = PipelineOptions(copies=True, allocate=True)
    assert CompileJob(ddg, m, opts).key == job_key(ddg, m, opts.signature(m))


def test_canonical_json_matches_json_dumps():
    """The prebuilt encoder writes exactly what ``json.dumps`` writes."""
    import json

    from repro.runner.fingerprint import canonical_json

    values = [
        {"b": [1, 2.5, None, True], "a": {"z": -0.0, "y": 1e-300,
                                          "x": float("inf")}},
        {"naïve": "Ωmega ☃ \"quoted\"\n", "ascii": "plain"},
        [{"k": (1, 2)}, [], {}, 3.141592653589793, 10**30],
        {"options": {"extras": ["sched_stats"], "verify": None},
         "loop": {"synth": {"seed": 7, "index": 700}}},
        "just a string", 42, None, 0.1 + 0.2,
    ]
    for value in values:
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"))
