"""R1 -- sweep runner: parallel speedup and cache-hit replay time.

Runs the Fig. 3 grid (bench corpus x 4/6/12-FU machines) three ways:

1. serial, no cache        -- the historical baseline,
2. parallel (N workers)    -- must produce identical results,
3. serial, warm cache      -- every job replays from the JSONL store.

Shape requirements: parallel results equal serial results job-for-job
(the determinism invariant the runner guarantees), a warm-cache re-run is
dramatically faster than compiling, and every warm-run result is marked
``cached``.  The recorded table is what EXPERIMENTS.md quotes for the
runner's speedup/caching claims.
"""

import multiprocessing
import os
import tempfile
import time

from conftest import record, record_bench_json

from repro.machine.presets import paper_qrf_machines
from repro.runner import RunnerConfig, ShardedResultCache, run_jobs, sweep
from repro.workloads.corpus import bench_corpus

SAMPLE = 64
#: at least 2 so the process-pool path runs even on single-CPU boxes
#: (where the interesting numbers are the cache ones, not the speedup)
N_WORKERS = max(2, min(4, multiprocessing.cpu_count() or 1))


def _timed(jobs, config=None):
    t0 = time.perf_counter()
    results = run_jobs(jobs, config)
    return results, time.perf_counter() - t0


def test_runner_parallel_speedup_and_cache(benchmark):
    loops = bench_corpus(SAMPLE)
    jobs = sweep(loops, paper_qrf_machines(),
                 [dict(copies=True, allocate=True)]).jobs

    serial, t_serial = _timed(jobs)

    def parallel_run():
        return _timed(jobs, RunnerConfig(n_workers=N_WORKERS))

    parallel, t_parallel = benchmark.pedantic(parallel_run, rounds=1,
                                              iterations=1)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ShardedResultCache(os.path.join(tmp, "cache"))
        cold, t_cold = _timed(jobs, RunnerConfig(cache=cache))
        warm, t_warm = _timed(jobs, RunnerConfig(cache=cache))

    lines = [
        "R1 -- sweep runner: parallel speedup and cache-hit replay",
        "",
        f"jobs: {len(jobs)}  workers: {N_WORKERS}",
        f"serial (no cache):   {t_serial:8.2f}s",
        f"parallel ({N_WORKERS} workers): {t_parallel:8.2f}s   "
        f"speedup {t_serial / max(t_parallel, 1e-9):.2f}x",
        f"cold cache run:      {t_cold:8.2f}s",
        f"warm cache run:      {t_warm:8.2f}s   "
        f"replay speedup {t_cold / max(t_warm, 1e-9):.1f}x",
    ]
    record("runner_parallel", "\n".join(lines))
    record_bench_json(
        "runner_parallel", t_serial, corpus_size=len(loops),
        n_jobs=len(jobs), n_workers=N_WORKERS,
        parallel_speedup=round(t_serial / max(t_parallel, 1e-9), 2),
        cache_replay_speedup=round(t_cold / max(t_warm, 1e-9), 1))

    # determinism: parallel and cached sweeps replay the serial results
    assert parallel == serial
    assert warm == serial
    assert all(r.cached for r in warm)
    assert not any(r.cached for r in cold)
    # a warm cache must beat recompiling by a wide margin
    assert t_warm < t_cold / 5
