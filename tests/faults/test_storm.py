"""Seeded fault storms against the sweep runner (the acceptance suite).

The contract under ISSUE 9: a storm of worker crashes, hangs and cache
faults injected into a 100+ job sweep still yields one result per job
in request order, byte-identical to a fault-free run; no job executes
more than ``1 + max_retries`` times; and the cache stays verifiably
uncorrupted (torn shard tails are isolated, never replayed).
"""

import pytest

from repro import faults
from repro.machine.presets import qrf_machine
from repro.runner import RunnerConfig, ShardedResultCache, \
    run_jobs, sweep
from repro.runner import pool as pool_mod
from repro.runner.job import CompileJob
from repro.workloads.kernels import all_kernels, kernel


def _grid():
    """The storm grid: every hand-written kernel x 2 machines x 2
    option sets -- 120 jobs, all on machines that can schedule them."""
    return sweep(all_kernels(), [qrf_machine(4), qrf_machine(8)],
                 [dict(copies=True, allocate=False),
                  dict(copies=True, allocate=True)]).jobs


def test_fault_storm_matches_the_fault_free_run(tmp_path):
    jobs = _grid()
    assert len(jobs) >= 100
    baseline = run_jobs(jobs)

    ledger = tmp_path / "attempts.ledger"
    faults.enable_faults(
        f"seed=11;pool.worker=crash:0.05,hang:0.03:0.75;"
        f"cache.put=torn:0.2;ledger={ledger}")
    cache = ShardedResultCache(tmp_path / "cache")
    storm = run_jobs(jobs, RunnerConfig(
        n_workers=2, cache=cache, job_deadline_s=0.5, max_retries=1))
    session = pool_mod._SESSIONS.get(2)
    counters = session.counters() if session is not None else {}
    faults.disable_faults()
    pool_mod.close_all_sessions()

    # one result per job, in request order, byte-identical: the
    # injected faults cost retries and respawns, never correctness
    assert [r.key for r in storm] == [j.key for j in jobs]
    assert storm == baseline
    assert not any(r.outcome.error for r in storm)

    # the supervision actually exercised its recovery paths (the seed
    # is fixed, so this is deterministic, not flaky)
    assert counters.get("respawns", 0) >= 1
    assert counters.get("quarantines", 0) >= 1

    # no job executed more than 1 + max_retries times, and every
    # ledger line names a job from this sweep
    attempts = faults.read_ledger(str(ledger))
    assert attempts
    assert set(attempts) <= {j.key for j in jobs}
    assert max(attempts.values()) <= 2

    # the cache is verifiably uncorrupted: a fresh process-view loads
    # only whole records, and replaying the sweep through it still
    # reproduces the fault-free results (torn jobs just recompile)
    fresh = ShardedResultCache(tmp_path / "cache")
    assert all(rec.get("key") for rec in fresh.iter_records())
    replay = run_jobs(jobs, RunnerConfig(cache=fresh))
    assert replay == baseline
    assert any(r.cached for r in replay)          # survivors replayed


def test_injected_job_errors_become_results_and_are_never_cached(tmp_path):
    jobs = [CompileJob(kernel(n), qrf_machine(4)) for n in ("daxpy", "dot")]
    cache = ShardedResultCache(tmp_path / "cache")
    faults.enable_faults("seed=1;job.execute=raise:1")
    broken = run_jobs(jobs, RunnerConfig(cache=cache))
    assert [r.key for r in broken] == [j.key for j in jobs]
    assert all(r.outcome.failed for r in broken)
    assert all("FaultError" in r.outcome.error for r in broken)
    assert cache.stats()["stores"] == 0           # errors never cached

    faults.disable_faults()
    clean = run_jobs(jobs, RunnerConfig(cache=cache))
    assert not any(r.cached for r in clean)       # nothing was pinned
    assert not any(r.outcome.failed for r in clean)
    assert cache.stats()["stores"] == len(jobs)


def test_cache_get_faults_degrade_to_recompute(tmp_path):
    jobs = [CompileJob(kernel(n), qrf_machine(4)) for n in ("fir4", "vadd")]
    cache = ShardedResultCache(tmp_path / "cache")
    warm = run_jobs(jobs, RunnerConfig(cache=cache))
    faults.enable_faults("seed=3;cache.get=raise:1")
    replay = run_jobs(jobs, RunnerConfig(cache=cache))
    # every lookup raised; the sweep recompiled and matched anyway
    assert replay == warm
    assert not any(r.cached for r in replay)


def test_cache_put_faults_do_not_lose_the_sweep(tmp_path):
    jobs = [CompileJob(kernel(n), qrf_machine(4)) for n in ("scale", "iir1")]
    faults.enable_faults("seed=4;cache.put=raise:1")
    cache = ShardedResultCache(tmp_path / "cache")
    results = run_jobs(jobs, RunnerConfig(cache=cache))
    assert not any(r.outcome.failed for r in results)
    faults.disable_faults()
    # nothing durable was written: a fresh view replays nothing
    fresh = ShardedResultCache(tmp_path / "cache")
    assert all(fresh.peek(j.key) is None for j in jobs)


def test_torn_writes_are_isolated_per_append(tmp_path):
    jobs = [CompileJob(kernel(n), qrf_machine(4))
            for n in ("daxpy", "dot", "fir4", "vadd", "scale", "iir1")]
    faults.enable_faults("seed=6;cache.put=torn:1")
    cache = ShardedResultCache(tmp_path / "cache")
    results = run_jobs(jobs, RunnerConfig(cache=cache))
    faults.disable_faults()

    fresh = ShardedResultCache(tmp_path / "cache")
    fresh._load()
    # every append was torn inside its final record: the loader counts
    # the partial lines and keeps whatever records stayed whole
    assert fresh.stats()["corrupt"] >= 1
    kept = {rec["key"] for rec in fresh.iter_records()}
    assert kept < {j.key for j in jobs}
    by_key = {r.key: r for r in results}
    for key in kept:
        assert fresh.peek(key) == by_key[key]
