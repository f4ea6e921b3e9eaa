"""Tracing layer: spans, counters, job capture, cross-process merge."""

import pytest

from repro.obs import trace as tr


@pytest.fixture()
def traced():
    """Enable tracing on a clean aggregate; restore the disabled
    default afterwards (the whole suite assumes tracing is off)."""
    was_enabled = tr.tracing_enabled()
    tr.enable_tracing()
    tr.reset_tracing()
    yield
    tr.reset_tracing()
    if not was_enabled:
        tr.disable_tracing()


def test_disabled_span_is_shared_noop():
    assert not tr.tracing_enabled()
    assert tr.span("x") is tr.span("y") is tr._NULL_SPAN
    with tr.span("pipeline.anything"):
        pass
    tr.trace_count("nothing")
    snap = tr.trace_snapshot()
    assert snap == {"stages": {}, "counters": {}}


def test_enabled_span_records_aggregate(traced):
    for _ in range(3):
        with tr.span("stage.a"):
            pass
    with tr.span("stage.b"):
        pass
    snap = tr.trace_snapshot()
    a = snap["stages"]["stage.a"]
    assert a["count"] == 3
    assert a["total_s"] >= a["max_s"] >= a["min_s"] >= 0.0
    assert sum(a["buckets"]) == 3
    assert snap["stages"]["stage.b"]["count"] == 1


def test_spans_nest_without_corrupting_parents(traced):
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    snap = tr.trace_snapshot()
    assert snap["stages"]["outer"]["count"] == 1
    assert snap["stages"]["inner"]["count"] == 2
    # outer's time includes the inner spans
    assert snap["stages"]["outer"]["total_s"] >= \
        snap["stages"]["inner"]["total_s"]


def test_counters_accumulate(traced):
    tr.trace_count("ev")
    tr.trace_count("ev", 4)
    assert tr.trace_snapshot()["counters"]["ev"] == 5


def test_job_capture_reports_only_the_delta(traced):
    with tr.span("stage.pre"):
        pass
    tr.trace_count("pre", 7)
    with tr.job_capture() as cap:
        with tr.span("stage.job"):
            pass
        with tr.span("stage.pre"):
            pass
        tr.trace_count("pre", 2)
    summary = cap.summary
    assert summary["stages"]["stage.job"]["count"] == 1
    assert summary["stages"]["stage.pre"]["count"] == 1
    assert summary["counters"] == {"pre": 2}


def test_merge_job_trace_folds_foreign_summary(traced):
    with tr.span("stage.local"):
        pass
    foreign = {"stages": {"stage.local": {
        "count": 2, "total_s": 0.5, "min_s": 0.1, "max_s": 0.4,
        "buckets": [0] * (len(tr.BUCKETS) + 1)}},
        "counters": {"worker.events": 3}}
    tr.merge_job_trace(foreign)
    snap = tr.trace_snapshot()
    assert snap["stages"]["stage.local"]["count"] == 3
    assert snap["stages"]["stage.local"]["max_s"] >= 0.4
    assert snap["counters"]["worker.events"] == 3
    tr.merge_job_trace(None)  # harmless


def test_histogram_buckets_are_log_spaced_and_cumulative_ready(traced):
    tr._TRACER.record("s", 0.00005)   # below the first edge
    tr._TRACER.record("s", 0.05)      # mid
    tr._TRACER.record("s", 99.0)      # beyond the last edge -> +Inf
    b = tr.trace_snapshot()["stages"]["s"]["buckets"]
    assert len(b) == len(tr.BUCKETS) + 1
    assert b[0] == 1 and b[-1] == 1 and sum(b) == 3


def test_stage_breakdown_renders_coverage(traced):
    tr._TRACER.record("pipeline.schedule", 0.06)
    tr._TRACER.record("pipeline.allocate", 0.03)
    tr._TRACER.record("sched.ii_attempt", 0.05)  # nested: not covered
    tr.trace_count("sched.ii_accepted", 2)
    out = tr.stage_breakdown(tr.trace_snapshot(), wall_s=0.1)
    assert "pipeline.schedule" in out
    assert "sched.ii_accepted" in out
    # only pipeline.* spans count toward coverage: 0.09 of 0.1 wall
    assert "stage sum 0.0900s over wall 0.1000s (90.0% covered)" in out


def test_pipeline_emits_stage_spans(traced):
    from repro.machine.presets import qrf_machine
    from repro.sim.checker import run_pipeline
    from repro.workloads.kernels import kernel

    run_pipeline(kernel("daxpy"), qrf_machine(4))
    snap = tr.trace_snapshot()
    stages = {name for name in snap["stages"]
              if name.startswith("pipeline.")}
    # compile_loop's stages plus simulation; the MII comes from the
    # engine, so there is no pipeline.mii stage on success
    assert stages == {"pipeline.frontend", "pipeline.schedule",
                      "pipeline.allocate", "pipeline.verify",
                      "pipeline.simulate"}
    assert snap["counters"]["sched.ii_accepted"] >= 1
    assert "sched.ii_attempt" in snap["stages"]


def test_run_jobs_merges_worker_traces(traced):
    from repro.machine.presets import qrf_machine
    from repro.runner import RunnerConfig, run_jobs
    from repro.runner import pool as pool_mod
    from repro.runner.job import CompileJob
    from repro.workloads.kernels import kernel

    # workers inherit the tracing flag when they fork: force a fresh
    # pool now (tracing on), and retire it after so no traced worker
    # leaks extras into later parallel tests
    pool_mod.close_all_sessions()
    try:
        jobs = [CompileJob(ddg=kernel(k), machine=qrf_machine(4))
                for k in ("daxpy", "dot", "saxpy2", "vadd")]
        results = run_jobs(jobs, RunnerConfig(n_workers=2))
    finally:
        pool_mod.close_all_sessions()
    assert all(not r.outcome.failed for r in results)
    # every job shipped a per-job summary home on extras...
    assert all(r.extras.get("trace") for r in results)
    # ...and the parent aggregate saw all four schedules
    snap = tr.trace_snapshot()
    assert snap["stages"]["pipeline.schedule"]["count"] >= len(jobs)
