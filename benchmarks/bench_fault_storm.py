"""R3 -- failure domains: recovery cost of a seeded fault storm.

Runs the hand-written kernel suite (x2 machines, x2 option sets: 120
jobs) twice through the parallel runner -- once clean, once under the
chaos suite's seeded fault plan (worker crashes + hangs + torn cache
writes) with a tight watchdog -- and measures what the supervision
layer charges for surviving the storm.

Shape requirements (the DESIGN §5.10 contract): the storm run returns
one result per job in request order, byte-identical to the clean run;
the attempt ledger proves no job executed more than ``1 + retries``
times; and the torn cache replays only whole records.  The recorded
table is what EXPERIMENTS.md quotes for the fault-storm claims.
"""

import os
import tempfile
import time

from conftest import record, record_bench_json

from repro import faults
from repro.machine.presets import qrf_machine
from repro.runner import RunnerConfig, ShardedResultCache, run_jobs, sweep
from repro.runner import pool as pool_mod
from repro.workloads.kernels import all_kernels

N_WORKERS = 2
FAULT_SPEC = ("seed=11;pool.worker=crash:0.05,hang:0.03:0.75;"
              "cache.put=torn:0.2")


def _jobs():
    return sweep(all_kernels(), [qrf_machine(4), qrf_machine(8)],
                 [dict(copies=True, allocate=False),
                  dict(copies=True, allocate=True)]).jobs


def test_fault_storm_recovery_cost(benchmark):
    jobs = _jobs()
    pool_mod.close_all_sessions()
    t0 = time.perf_counter()
    clean = run_jobs(jobs, RunnerConfig(n_workers=N_WORKERS))
    t_clean = time.perf_counter() - t0
    pool_mod.close_all_sessions()

    with tempfile.TemporaryDirectory() as tmp:
        ledger = os.path.join(tmp, "attempts.ledger")
        faults.enable_faults(f"{FAULT_SPEC};ledger={ledger}")

        def storm_run():
            cache = ShardedResultCache(os.path.join(tmp, "cache"))
            t0 = time.perf_counter()
            storm = run_jobs(jobs, RunnerConfig(
                n_workers=N_WORKERS, cache=cache,
                job_deadline_s=0.5, max_retries=1))
            return storm, time.perf_counter() - t0

        storm, t_storm = benchmark.pedantic(storm_run, rounds=1,
                                            iterations=1)
        session = pool_mod._SESSIONS.get(N_WORKERS)
        counters = session.counters() if session else {}
        attempts = faults.read_ledger(ledger)
        faults.disable_faults()
        pool_mod.close_all_sessions()

        # correctness under fire: order, parity, bounded attempts
        assert [r.key for r in storm] == [j.key for j in jobs]
        assert storm == clean
        assert max(attempts.values()) <= 2
        # the torn cache replays only whole records
        fresh = ShardedResultCache(os.path.join(tmp, "cache"))
        assert run_jobs(jobs, RunnerConfig(cache=fresh)) == clean

    slowdown = t_storm / max(t_clean, 1e-9)
    lines = [
        "R3 -- failure domains: seeded fault-storm recovery",
        "",
        f"jobs: {len(jobs)}  workers: {N_WORKERS}  plan: {FAULT_SPEC}",
        f"clean run:           {t_clean:8.2f}s",
        f"storm run:           {t_storm:8.2f}s   "
        f"slowdown {slowdown:.2f}x",
        f"worker respawns:     {counters.get('respawns', 0)}",
        f"quarantined jobs:    {counters.get('quarantines', 0)}",
        f"max attempts/job:    {max(attempts.values())} "
        f"(bound: 2 = 1 + retries)",
    ]
    record("fault_storm", "\n".join(lines))
    record_bench_json(
        "fault_storm", t_storm, n_jobs=len(jobs), n_workers=N_WORKERS,
        storm_slowdown=round(slowdown, 2),
        respawns=counters.get("respawns", 0),
        quarantines=counters.get("quarantines", 0),
        max_attempts=max(attempts.values()))
