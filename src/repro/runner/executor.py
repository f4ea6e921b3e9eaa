"""Parallel job executor with caching and ordered, deterministic results.

``run_jobs`` is the single entry point every experiment driver funnels
through.  The contract:

* results come back **in job order**, regardless of worker count;
* ``execute_job`` is pure, so ``n_workers=1`` and ``n_workers=N`` produce
  identical result lists (a tested invariant -- parallel sweeps must be
  byte-identical to serial ones);
* jobs whose key is already in the cache are replayed without compiling;
* one job is one failure domain: worker crashes and hangs are absorbed
  by the pool session's watchdog/retry/quarantine supervision, in-job
  exceptions become error-kind failed results (never cached), and cache
  I/O failures degrade lookups to misses and stores to no-ops -- a
  sweep is never lost to a broken pool, a poisonous job or a bad disk.
"""

from __future__ import annotations

import logging
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro import faults as _faults
from repro.obs import trace as _trace

from . import pool as pool_mod
from .cache import ShardedResultCache
from .job import CompileJob, JobResult
from .pipeline import execute_job

log = logging.getLogger("repro.runner.executor")


@dataclass
class RunnerConfig:
    """How a sweep executes: parallelism, caching, progress, supervision.

    ``progress`` is called as ``progress(done, total)`` after every job
    settles (cache hit or fresh compile).  ``chunk_size`` overrides how
    many tasks each worker pulls at once; by default the persistent pool
    derives it from the job count and cuts loop-major, cost-ranked
    chunks.  ``job_deadline_s`` is the fan-out watchdog (None disables
    it); ``max_retries`` bounds how many dispatch rounds a job may ride
    before it is quarantined to the serial path (the serial run counts
    as the final retry, so a job executes at most ``1 + max_retries``
    times).
    """

    n_workers: int = 1
    cache: Optional[ShardedResultCache] = None
    progress: Optional[Callable[[int, int], None]] = None
    chunk_size: Optional[int] = None
    job_deadline_s: Optional[float] = pool_mod.DEFAULT_JOB_DEADLINE_S
    max_retries: int = pool_mod.DEFAULT_MAX_RETRIES


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the corpus); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _fan_out(jobs: Sequence[CompileJob], config: RunnerConfig,
             results: list, tick: Callable[[], None]) -> None:
    """Ordered fan-out over the persistent pool into *results*.

    The pool session (one per worker count) survives across ``run_jobs``
    calls: workers are initialized once with the deduplicated machine /
    corpus payload and reuse their scheduling arenas job to job.  Worker
    crashes and hangs are the session's problem (watchdog + respawn +
    quarantine, the pool stays alive); only a failure of the fan-out
    machinery itself -- or of the caller's own callbacks -- still
    discards the session.  Either way :func:`compile_and_store` runs
    the jobs left unsettled serially, so a sweep is never lost.
    """
    merge_traces = _trace.tracing_enabled()

    def on_result(seq: int, result: JobResult) -> None:
        results[seq] = result
        if merge_traces:
            # worker-side spans never reach this process's aggregate;
            # the per-job summary on the result is how they come home
            _trace.merge_job_trace(result.extras.get("trace"))
        tick()

    try:
        with _trace.span("runner.dispatch"):
            session = pool_mod.get_session(config.n_workers,
                                           _pool_context)
            quarantined = session.run(
                jobs, on_result, pool_mod.cost_estimator(config.cache),
                chunk_size=config.chunk_size,
                deadline_s=config.job_deadline_s,
                max_retries=config.max_retries)
            if quarantined:
                _trace.trace_count("runner.quarantined",
                                   len(quarantined))
    except Exception as exc:
        pool_mod.discard_session(config.n_workers, cause=exc)


def _cache_get(cache: ShardedResultCache, key: str) -> Optional[JobResult]:
    """A lookup that treats cache I/O failure as a miss (counted)."""
    try:
        return cache.get(key)
    except Exception as exc:
        _trace.trace_count("runner.cache_errors")
        log.warning("cache lookup failed (%s: %s); treating as a miss",
                    type(exc).__name__, exc)
        return None


def compile_and_store(jobs: Sequence[CompileJob], config: RunnerConfig,
                      tick: Callable[[], None] = lambda: None
                      ) -> list[JobResult]:
    """The compile-and-store half of :func:`run_jobs`, for jobs whose
    cache lookup already missed; one result per job, in order."""
    fresh: list = [None] * len(jobs)
    if config.n_workers > 1 and len(jobs) > 1:
        _fan_out(jobs, config, fresh, tick)
    # serially: every job, or what the pool did not deliver (quarantined
    # repeat offenders, everything after a discarded session).  Settled
    # seqs are final: a reported job must not run twice (exactly-once)
    for seq, job in enumerate(jobs):
        if fresh[seq] is None:
            _faults.on_job_execute(job.key)
            fresh[seq] = execute_job(job)
            tick()
    if config.cache is not None:
        # error-kind results are transient infrastructure failures,
        # not compilation outcomes: caching one would pin the fault
        durable = [r for r in fresh if not r.outcome.error]
        try:
            config.cache.put_many(durable)
        except Exception as exc:
            _trace.trace_count("runner.cache_errors")
            log.warning(
                "cache store of %d result(s) failed (%s: %s); sweep "
                "results are unaffected", len(durable),
                type(exc).__name__, exc)
    return fresh


def run_jobs(jobs: Sequence[CompileJob],
             config: Optional[RunnerConfig] = None) -> list[JobResult]:
    """Execute *jobs*, returning one :class:`JobResult` per job, in order.

    With no *config* this is a plain serial, uncached sweep -- the exact
    behaviour the experiment drivers had before the runner existed.
    """
    config = config or RunnerConfig()
    jobs = list(jobs)
    total = len(jobs)
    results: list[Optional[JobResult]] = [None] * total
    settled = 0

    def tick() -> None:
        nonlocal settled
        settled += 1
        if config.progress is not None:
            config.progress(settled, total)

    pending: list[int] = []
    traced = _trace.tracing_enabled()
    with _trace.span("runner.cache_lookup"):
        for i, job in enumerate(jobs):
            hit = (_cache_get(config.cache, job.key)
                   if config.cache is not None else None)
            if hit is not None:
                results[i] = hit
                tick()
            else:
                pending.append(i)
    if traced and config.cache is not None:
        _trace.trace_count("runner.cache_hits", total - len(pending))
        _trace.trace_count("runner.cache_misses", len(pending))

    if pending:
        fresh = compile_and_store([jobs[i] for i in pending], config, tick)
        for i, result in zip(pending, fresh):
            results[i] = result

    return results  # type: ignore[return-value]
