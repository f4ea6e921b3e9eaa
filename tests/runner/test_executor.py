"""Executor invariants: ordered results, parallel == serial, fallback."""

import pytest

from repro.machine.presets import clustered_machine, qrf_machine
from repro.runner import (CompileJob, PipelineOptions, RunnerConfig,
                          ShardedResultCache, run_jobs, sweep)
from repro.runner import executor as executor_mod
from repro.workloads.corpus import paper_corpus
from repro.workloads.kernels import all_kernels, kernel


@pytest.fixture(scope="module")
def corpus_sample():
    """A stride through the paper corpus plus the hand-written kernels."""
    loops = paper_corpus()
    return loops[::60] + all_kernels()[:8]


def test_results_come_back_in_job_order():
    jobs = [CompileJob(kernel(n), qrf_machine(4))
            for n in ("daxpy", "dot", "fir4", "vadd")]
    results = run_jobs(jobs)
    assert [r.outcome.loop for r in results] == ["daxpy", "dot", "fir4",
                                                 "vadd"]
    assert [r.key for r in results] == [j.key for j in jobs]


def test_parallel_equals_serial_on_paper_corpus(corpus_sample):
    jobs = sweep(corpus_sample, [qrf_machine(4), clustered_machine(4)],
                 [dict(copies=True, allocate=False)]).jobs
    serial = run_jobs(jobs)
    parallel = run_jobs(jobs, RunnerConfig(n_workers=3))
    assert parallel == serial


def test_parallel_equals_serial_with_unrolling(corpus_sample):
    jobs = sweep(corpus_sample[:10], [qrf_machine(12)],
                 [dict(do_unroll=True, copies=True, allocate=True)]).jobs
    assert run_jobs(jobs, RunnerConfig(n_workers=2)) == run_jobs(jobs)


def test_cache_makes_second_sweep_incremental(tmp_path, corpus_sample):
    cache = ShardedResultCache(tmp_path)
    jobs = sweep(corpus_sample[:6], [qrf_machine(4)]).jobs
    config = RunnerConfig(cache=cache)
    first = run_jobs(jobs, config)
    assert not any(r.cached for r in first)
    second = run_jobs(jobs, config)
    assert all(r.cached for r in second)
    assert second == first
    assert cache.stats()["stores"] == len(jobs)


def test_cache_is_shared_between_serial_and_parallel(tmp_path,
                                                     corpus_sample):
    cache = ShardedResultCache(tmp_path)
    jobs = sweep(corpus_sample[:6], [qrf_machine(4)]).jobs
    serial = run_jobs(jobs, RunnerConfig(cache=cache))
    parallel = run_jobs(jobs, RunnerConfig(n_workers=2, cache=cache))
    assert all(r.cached for r in parallel)
    assert parallel == serial


def test_partial_cache_fills_only_the_gaps(tmp_path):
    cache = ShardedResultCache(tmp_path)
    half = [CompileJob(kernel(n), qrf_machine(4))
            for n in ("daxpy", "dot")]
    full = half + [CompileJob(kernel(n), qrf_machine(4))
                   for n in ("fir4", "vadd")]
    run_jobs(half, RunnerConfig(cache=cache))
    results = run_jobs(full, RunnerConfig(cache=cache))
    assert [r.cached for r in results] == [True, True, False, False]


def test_progress_callback_ticks_every_job(tmp_path):
    cache = ShardedResultCache(tmp_path)
    jobs = [CompileJob(kernel(n), qrf_machine(4))
            for n in ("daxpy", "dot", "fir4")]
    seen = []
    run_jobs(jobs, RunnerConfig(cache=cache,
                                progress=lambda d, t: seen.append((d, t))))
    assert seen == [(1, 3), (2, 3), (3, 3)]
    # cache hits tick too
    seen.clear()
    run_jobs(jobs, RunnerConfig(cache=cache,
                                progress=lambda d, t: seen.append((d, t))))
    assert seen == [(1, 3), (2, 3), (3, 3)]


def test_pool_failure_falls_back_to_serial(monkeypatch):
    def broken_context():
        raise OSError("no processes for you")

    monkeypatch.setattr(executor_mod, "_pool_context", broken_context)
    jobs = [CompileJob(kernel(n), qrf_machine(4))
            for n in ("daxpy", "dot", "fir4")]
    results = run_jobs(jobs, RunnerConfig(n_workers=4))
    assert results == run_jobs(jobs)


def test_empty_job_list():
    assert run_jobs([]) == []
    assert run_jobs([], RunnerConfig(n_workers=4)) == []


def test_failed_outcomes_survive_parallel_and_cache(tmp_path):
    from repro.machine.presets import narrow_test_machine
    from repro.workloads.synth import SynthConfig, generate_loop
    import random

    # wide loops on a 1-FU-per-class machine: some fail to schedule
    cfg = SynthConfig(n_loops=12)
    rng = random.Random(3)
    loops = [generate_loop(rng, cfg, i) for i in range(cfg.n_loops)]
    jobs = sweep(loops, [narrow_test_machine()],
                 [dict(copies=True, allocate=False)]).jobs
    cache = ShardedResultCache(tmp_path)
    serial = run_jobs(jobs)
    parallel = run_jobs(jobs, RunnerConfig(n_workers=2, cache=cache))
    replayed = run_jobs(jobs, RunnerConfig(cache=cache))
    assert parallel == serial
    assert replayed == serial
    assert all(r.cached for r in replayed)


def test_raising_progress_callback_never_reruns_settled_jobs(tmp_path):
    """A flaky observer mid-fan-out costs the pool session, not the
    sweep: settled jobs are final (no job executes more than the retry
    bound allows) and the tick stream stays monotonic and complete."""
    from repro import faults
    from repro.runner import pool as pool_mod

    pool_mod.close_all_sessions()
    ledger = tmp_path / "attempts.ledger"
    faults.enable_faults(f"seed=0;ledger={ledger}")
    try:
        jobs = sweep(all_kernels()[:8], [qrf_machine(4)],
                     [dict(copies=True, allocate=False)]).jobs
        ticks = []

        def progress(done, total):
            ticks.append((done, total))
            if done == len(jobs) // 2:
                raise RuntimeError("flaky observer")

        results = run_jobs(jobs, RunnerConfig(n_workers=2,
                                              progress=progress))
    finally:
        faults.disable_faults()
        pool_mod.close_all_sessions()
    assert results == run_jobs(jobs)
    # monotonic and complete: one tick per job, no double-counting of
    # the jobs that settled before the callback blew up
    assert [d for d, _ in ticks] == list(range(1, len(jobs) + 1))
    assert all(t == len(jobs) for _, t in ticks)
    attempts = faults.read_ledger(str(ledger))
    assert set(attempts) == {j.key for j in jobs}
    # settled-then-lost in-flight work may legitimately re-run once on
    # the serial path; nothing runs beyond the 1 + retries bound
    assert max(attempts.values()) <= 2


def test_chunks_keep_each_loop_together_costliest_first():
    """Workers get loop-major streams: a loop's tasks are contiguous
    across the chunk sequence, loops go costliest-first by summed cost,
    and a loop's own tasks costliest-first."""
    from repro.runner.pool import _loop_major_chunks

    # (seq, ddg_index, machine_index, options, key), loops interleaved
    tasks = [(seq, seq % 3, seq // 3, None, f"k{seq}") for seq in range(12)]
    cost = {seq: float(seq) for seq in range(12)}
    chunks = _loop_major_chunks(tasks, cost, 5)
    assert [len(c) for c in chunks] == [5, 5, 2]
    flat = [task for c in chunks for task in c]
    assert sorted(flat) == tasks
    # loop 2 sums 2+5+8+11, loop 1 sums 1+4+7+10, loop 0 sums 0+3+6+9
    assert [t[1] for t in flat] == [2] * 4 + [1] * 4 + [0] * 4
    assert [t[0] for t in flat[:4]] == [11, 8, 5, 2]


class TestPersistentPool:
    def test_pool_survives_across_run_jobs_calls(self, corpus_sample):
        from repro.runner import pool as pool_mod

        pool_mod.close_all_sessions()
        jobs = sweep(corpus_sample[:8], [qrf_machine(4)],
                     [dict(copies=True, allocate=False)]).jobs
        first = run_jobs(jobs, RunnerConfig(n_workers=2))
        session = pool_mod._SESSIONS[2]
        assert session.spawns == 1
        # same loop/machine objects: the second sweep reuses the workers
        more = sweep(corpus_sample[:8], [qrf_machine(4)],
                     [dict(copies=True, allocate=True)]).jobs
        run_jobs(more, RunnerConfig(n_workers=2))
        assert session.spawns == 1
        assert session.reuses >= 1
        assert first == run_jobs(jobs)          # parity with serial
        pool_mod.close_all_sessions()

    def test_new_payload_objects_restart_workers(self, corpus_sample):
        from repro.runner import pool as pool_mod

        pool_mod.close_all_sessions()
        run_jobs(sweep(corpus_sample[:4], [qrf_machine(4)], None).jobs,
                 RunnerConfig(n_workers=2))
        session = pool_mod._SESSIONS[2]
        assert session.spawns == 1
        # a machine object the workers have never seen forces a respawn
        run_jobs(sweep(corpus_sample[:4], [qrf_machine(6)], None).jobs,
                 RunnerConfig(n_workers=2))
        assert session.spawns == 2
        pool_mod.close_all_sessions()

    def test_table_cap_recycles_the_session_mid_stream(self, monkeypatch,
                                                       corpus_sample):
        from repro.runner import pool as pool_mod

        pool_mod.close_all_sessions()
        monkeypatch.setattr(pool_mod, "MAX_TABLE_ENTRIES", 4)
        jobs_a = sweep(corpus_sample[:4], [qrf_machine(4)], None).jobs
        jobs_b = sweep(corpus_sample[4:8], [qrf_machine(4)], None).jobs
        first = run_jobs(jobs_a, RunnerConfig(n_workers=2))
        session = pool_mod._SESSIONS[2]
        assert session.spawns == 1
        assert session.counters()["ddgs"] == 4       # 4 + 1 > the cap
        second = run_jobs(jobs_b, RunnerConfig(n_workers=2))
        # the cap tripped mid-stream: the session recycled itself and
        # restarted the tables from only the second call's objects
        assert session.spawns == 2
        counters = session.counters()
        assert counters["ddgs"] == 4
        assert counters["machines"] == 1
        assert first == run_jobs(jobs_a)             # parity kept
        assert second == run_jobs(jobs_b)
        pool_mod.close_all_sessions()

    def test_cost_estimator_prefers_cache_history(self, tmp_path):
        from repro.runner import pool as pool_mod

        cache = ShardedResultCache(tmp_path)
        job = CompileJob(kernel("daxpy"), qrf_machine(4))
        run_jobs([job], RunnerConfig(cache=cache))
        cost = pool_mod.cost_estimator(cache)
        recorded = cost(job)
        assert recorded > 0
        # an unseen (loop, machine) pair falls back to the op heuristic
        other = CompileJob(kernel("dot"), qrf_machine(6))
        assert cost(other) == pytest.approx(1e-4 * other.ddg.n_ops)

    def test_unordered_dispatch_returns_ordered_results(self,
                                                        corpus_sample):
        from repro.runner import pool as pool_mod

        pool_mod.close_all_sessions()
        jobs = sweep(corpus_sample, [qrf_machine(4)],
                     [dict(copies=True, allocate=False)]).jobs
        parallel = run_jobs(jobs, RunnerConfig(n_workers=3))
        assert [r.key for r in parallel] == [j.key for j in jobs]
        pool_mod.close_all_sessions()
