"""Shared benchmark helpers.

Every experiment benchmark runs one paper experiment end to end on the
bench corpus (a stratified subsample; set ``REPRO_FULL_CORPUS=1`` for all
1258 loops), times it, and records the rendered table under
``benchmarks/results/`` so EXPERIMENTS.md can quote it.  The figures'
*shape* invariants are asserted untimed by the tier-1 suite
``tests/paper/test_paper_shapes.py``.

Benchmarks execute through the sweep runner; the same knobs the CLI
exposes as ``--jobs``/``--no-cache``/``--cache-dir`` arrive here through
the environment:

* ``REPRO_JOBS=N``      -- worker processes (default 1 = serial),
* ``REPRO_NO_CACHE=1``  -- disable the content-addressed result cache
  (the default here, unlike the CLI: a benchmark that replays cached
  results measures nothing),
* ``REPRO_CACHE_DIR``   -- cache location when caching is enabled.
"""

from __future__ import annotations

import os
import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Arena-counter snapshot taken at the previous telemetry record, so a
#: multi-benchmark pytest process reports per-benchmark *deltas* of the
#: monotonic counters instead of the process-cumulative totals.
_ARENA_BASE: dict = {}


def _arena_delta() -> dict:
    """Arena counters accumulated since the last record in this process
    (``pooled_mrts`` is a level, not a counter, and passes through)."""
    from repro.sched import arena_counters

    global _ARENA_BASE
    now = arena_counters()
    delta = {k: now[k] - _ARENA_BASE.get(k, 0)
             for k in ("generation", "resets", "hits", "allocs")}
    delta["pooled_mrts"] = now["pooled_mrts"]
    _ARENA_BASE = now
    return delta

#: Environment knobs mirrored from the CLI's runner flags.
JOBS_ENV = "REPRO_JOBS"
NO_CACHE_ENV = "REPRO_NO_CACHE"


def runner_from_env():
    """Build the benchmarks' :class:`repro.runner.RunnerConfig` from env.

    Returns None (the drivers' serial, uncached default) unless the
    environment asks for workers or caching, so timing runs measure the
    real pipeline by default.
    """
    from repro.runner import RunnerConfig, ShardedResultCache

    n_workers = int(os.environ.get(JOBS_ENV, "1") or "1")
    use_cache = os.environ.get(NO_CACHE_ENV, "1") != "1"
    if n_workers <= 1 and not use_cache:
        return None
    return RunnerConfig(n_workers=n_workers,
                        cache=ShardedResultCache() if use_cache else None)


def record(name: str, rendered: str) -> None:
    """Persist a rendered experiment table next to the benchmarks."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
    # also echo into the benchmark log
    print(f"\n{rendered}\n")


def record_bench_json(name: str, wall_s: float, *,
                      corpus_size: int | None = None, **metrics) -> None:
    """Write this run's ``BENCH_<name>.json`` telemetry record (repo
    root; see :mod:`telemetry`) -- wall time, corpus size and headline
    metrics.  Every benchmark calls this so the perf trajectory is never
    empty and CI's perf-smoke job has something to gate on.

    The scheduling-arena counters (buffer hits / allocations / attempt
    resets, see :mod:`repro.sched.arena`) ride along in every record's
    metrics, and ``ARENA_COUNTERS.json`` beside the records keeps one
    entry *per benchmark name* in the same schema-2 envelope as the
    BENCH records (``metrics`` maps bench name to counters;
    read-modify-write, so separate pytest invocations -- how CI's
    perf-smoke job runs -- accumulate instead of clobbering each
    other): the artifact CI uploads so arena effectiveness is
    observable run over run.  The counters are read from *this*
    process's arena (the ``scope`` field says so): under
    ``REPRO_JOBS > 1`` the scheduling happens in pool workers whose
    arenas fork per process, so serial runs -- the perf-smoke default --
    are the meaningful trajectory.

    When tracing is enabled (``REPRO_TRACE=1``), the per-stage span
    aggregate accumulated so far in this process rides along under
    ``metrics["trace"]``, so a traced benchmark run leaves its stage
    breakdown in the committed record."""
    import datetime
    import json

    import telemetry

    from repro.obs.trace import trace_snapshot, tracing_enabled

    counters = dict(_arena_delta(), scope="parent-process")
    extra = {"arena": counters}
    if tracing_enabled():
        snap = trace_snapshot()
        extra["trace"] = {"stages": snap["stages"],
                          "counters": snap["counters"]}
    telemetry.write_bench_json(name, wall_s, corpus_size=corpus_size,
                               metrics={**metrics, **extra})
    snapshot_path = telemetry.bench_dir() / "ARENA_COUNTERS.json"
    try:
        existing = json.loads(snapshot_path.read_text())
        per_bench = existing.get("metrics") if isinstance(existing, dict) \
            else None
        if not isinstance(per_bench, dict):
            per_bench = {}         # schema-1 / flat / corrupt: start over
    except (OSError, ValueError):
        per_bench = {}
    per_bench[name] = counters
    envelope = {
        "schema": telemetry.SCHEMA_VERSION,
        "name": "arena_counters",
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "provenance": telemetry.provenance(),
        "metrics": per_bench,
    }
    snapshot_path.write_text(
        json.dumps(envelope, indent=1, sort_keys=True) + "\n")


def run_recorded(benchmark, name: str, fn, *,
                 corpus_size: int | None = None, metrics=None):
    """Run *fn* once under the pytest-benchmark fixture and persist its
    telemetry record.

    ``metrics`` is either a dict or a callable mapping the result to a
    dict (evaluated after the run, so headline numbers come from the
    measured result).  Returns *fn*'s result.
    """
    holder: dict[str, float] = {}

    def timed():
        t0 = time.perf_counter()
        out = fn()
        holder["wall"] = time.perf_counter() - t0
        return out

    result = benchmark.pedantic(timed, rounds=1, iterations=1)
    resolved = metrics(result) if callable(metrics) else (metrics or {})
    record_bench_json(name, holder["wall"], corpus_size=corpus_size,
                      **resolved)
    return result


def record_bench_stats(benchmark, name: str, *,
                       corpus_size: int | None = None, **metrics) -> None:
    """Record the mean round time of a classic (multi-round)
    pytest-benchmark run that already happened on *benchmark*."""
    try:
        wall = float(benchmark.stats.stats.mean)
    except (AttributeError, TypeError):
        return
    record_bench_json(name, wall, corpus_size=corpus_size, **metrics)
