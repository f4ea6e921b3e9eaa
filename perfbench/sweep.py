"""The compiling process of one sweep round, or the serial reference run.

Sweep round::

    python3 perfbench/sweep.py --workload ring-sweep --seed 1 \\
        --cache-dir DIR --out result.json [--scale 1.0] [--trace spans.json]

imports the program, generates the paper corpus, builds the seeded job
list (:mod:`workloads`), opens a fresh sharded result cache and then
compiles every job through ``run_jobs``, one job per call, timing each
call.  ``t_ready`` in the result is the monotonic clock just before the
first job is submitted; the parent turns it into ``setup_s``.

Reference run (the service-replay cross-check)::

    python3 perfbench/sweep.py --specs specs.json --out result.json

parses the given job specs with the program's own ``parse_jobs`` and
compiles them serially with no cache.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """Peak resident set of this process (``VmHWM``), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def outcome_row(result) -> list:
    """``[loop, machine, ii, mii, failed, error]`` for one result."""
    o = result.outcome
    return [o.loop, o.machine, o.ii, o.mii, bool(o.failed), o.error]


def run_sweep(args: argparse.Namespace) -> dict:
    from repro.runner import RunnerConfig, open_cache
    from repro.workloads.synth import generate_corpus

    import workloads

    recorder = None
    if args.trace:
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)
    from repro.runner import executor

    jobs = workloads.sweep_jobs(args.workload, args.seed,
                                generate_corpus(), scale=args.scale)
    config = RunnerConfig(n_workers=1,
                          cache=open_cache(args.cache_dir,
                                           backend="sharded"))
    run_jobs = executor.run_jobs
    clock = time.perf_counter
    latencies = []
    results = []
    t_ready = time.monotonic()
    if args.setup_only:
        return {"t_ready": t_ready}
    t0 = clock()
    for job in jobs:
        t = clock()
        results.extend(run_jobs([job], config))
        latencies.append(clock() - t)
    wall_s = clock() - t0
    if recorder is not None:
        recorder.dump(args.trace)
    from repro.kernels import active_name
    return {"t_ready": t_ready, "wall_s": wall_s, "latencies": latencies,
            "outcomes": [outcome_row(r) for r in results],
            "peak_rss_mb": peak_rss_mb(), "kernels": active_name()}


def run_reference(args: argparse.Namespace) -> dict:
    from repro.runner import run_jobs
    from repro.service.jobspec import parse_jobs

    with open(args.specs) as fh:
        specs = json.load(fh)
    results = run_jobs(parse_jobs({"jobs": specs}))
    return {"results": [r.to_record() for r in results]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--cache-dir")
    ap.add_argument("--trace", default=None, metavar="SPANS_JSON")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the first job would be submitted")
    ap.add_argument("--specs", default=None, metavar="SPECS_JSON")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = run_reference(args) if args.specs else run_sweep(args)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
