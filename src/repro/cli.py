"""Command-line interface: ``repro-vliw``.

Subcommands:

* ``repro-vliw corpus``             -- corpus summary statistics
* ``repro-vliw schedule <kernel>``  -- schedule one named kernel and dump
  the kernel table, queue allocation and a simulation report
* ``repro-vliw experiment <id>``    -- run one paper experiment
  (``experiment --list`` enumerates them)
* ``repro-vliw schedulers``         -- list the scheduling engines
* ``repro-vliw partitioners``       -- list the cluster-partitioning
  engines
* ``repro-vliw verify``             -- prove schedules with the static
  verifier (DESIGN §5.9): the full golden engine x kernel matrix by
  default, ``--mutations N`` to also demand the seeded corruption
  corpus is 100% rejected
* ``repro-vliw trace <kernel>``     -- compile one kernel with tracing
  on and print the per-stage time breakdown (``schedule --trace`` does
  the same after the normal schedule dump)
* ``repro-vliw cache``              -- inspect (``stats``), compact
  (``gc --max-bytes``) or ``clear`` the result cache
* ``repro-vliw serve``              -- run the sweep service daemon
  (``POST /jobs`` + Prometheus ``/metrics``; see DESIGN §5.7/§5.8)
* ``repro-vliw submit``             -- submit kernels to a running
  daemon over HTTP (smoke/testing client)

Experiment sweeps honour ``--jobs N`` (parallel workers; output is
byte-identical to the serial run), ``--no-cache`` and ``--cache-dir``,
plus the supervision knobs ``--job-deadline`` / ``--retries`` and the
chaos flag ``--faults SPEC`` (seeded fault injection, DESIGN §5.10);
``schedule`` and ``experiment`` take ``--scheduler`` to pick the
scheduling engine (default ``ims``) and ``--partitioner`` to pick the
clustered engine (default ``affinity``).  Engine names are validated
against the engine tables before anything compiles, so a typo lists the
available names instead of failing mid-sweep.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.machine.presets import clustered_machine, qrf_machine
from repro.sched.partitioners import DEFAULT_PARTITIONER, PARTITIONERS
from repro.sched.strategies import DEFAULT_SCHEDULER, SCHEDULERS
from repro.sim.checker import run_pipeline
from repro.workloads.corpus import bench_corpus, corpus_stats, paper_corpus
from repro.workloads.kernels import KERNELS, kernel

def _loops(args) -> list:
    if args.full:
        return paper_corpus()
    return bench_corpus(args.sample)


def _runner(args):
    """Build the sweep-runner config from the CLI flags.

    Caching defaults on (keys are content hashes, so stale entries are
    unreachable); ``--no-cache`` disables it and ``--cache-dir`` (or
    ``$REPRO_CACHE_DIR``) relocates the sharded, concurrently-writable
    store (see ``repro-vliw cache``).
    """
    from repro.runner import RunnerConfig, open_cache

    cache = None if args.no_cache else open_cache(args.cache_dir)
    progress = None
    if args.jobs > 1 and sys.stderr.isatty():  # pragma: no cover
        def progress(done, total):
            print(f"\r{done}/{total} jobs", end="", file=sys.stderr,
                  flush=True)
    return RunnerConfig(n_workers=args.jobs, cache=cache,
                        progress=progress,
                        job_deadline_s=args.job_deadline or None,
                        max_retries=args.retries)


def cmd_corpus(args) -> int:
    loops = _loops(args)
    print(corpus_stats(loops).render())
    return 0


def _kernel_target(args) -> "Optional[tuple]":
    """Resolve the (ddg, machine) a ``schedule``/``trace`` invocation
    names, or None after printing the listing / an error (the caller
    returns ``args.exit_code``)."""
    if args.list:
        for name in sorted(KERNELS):
            print(f"{name:<12} {KERNELS[name]().n_ops:3d} ops")
        args.exit_code = 0
        return None
    if args.kernel is None:
        print(f"{args.command}: kernel name required (or --list)",
              file=sys.stderr)
        args.exit_code = 2
        return None
    if args.kernel not in KERNELS:
        print(f"unknown kernel {args.kernel!r}; available: "
              f"{', '.join(sorted(KERNELS))}", file=sys.stderr)
        args.exit_code = 2
        return None
    machine = (clustered_machine(args.clusters) if args.clusters
               else qrf_machine(args.fus))
    return kernel(args.kernel), machine


def cmd_schedule(args) -> int:
    target = _kernel_target(args)
    if target is None:
        return args.exit_code
    ddg, machine = target
    if args.trace:
        from repro.obs.trace import enable_tracing, reset_tracing
        enable_tracing()
        reset_tracing()
    import time
    t0 = time.perf_counter()
    res = run_pipeline(ddg, machine, unroll_factor=args.unroll,
                       iterations=args.iterations,
                       scheduler=args.scheduler,
                       partitioner=args.partitioner)
    wall = time.perf_counter() - t0
    print(res.schedule.render())
    if args.asm:
        from repro.codegen.encode import render_assembly
        print()
        print(render_assembly(res.schedule, res.usage))
    print()
    for loc, alloc in res.usage.by_location.items():
        print(f"{loc.describe()}: {alloc.n_queues} queues, "
              f"max depth {alloc.max_depth}")
    print()
    sim = res.sim
    print(f"simulated {sim.iterations} iterations: {sim.cycles} cycles, "
          f"{sim.ops_executed} ops, {sim.reads_checked} reads verified, "
          f"dynamic IPC {sim.dynamic_ipc:.2f}")
    if args.trace:
        from repro.obs.trace import stage_breakdown, trace_snapshot
        print()
        print(stage_breakdown(trace_snapshot(), wall_s=wall))
    return 0


def cmd_trace(args) -> int:
    """Compile one kernel with tracing enabled and print the per-stage
    breakdown -- same knobs as ``schedule``, but the schedule dump is
    replaced by the time accounting."""
    import time

    from repro.obs.trace import (enable_tracing, reset_tracing,
                                 stage_breakdown, trace_snapshot)

    target = _kernel_target(args)
    if target is None:
        return args.exit_code
    ddg, machine = target
    enable_tracing()
    reset_tracing()
    t0 = time.perf_counter()
    res = run_pipeline(ddg, machine, unroll_factor=args.unroll,
                       iterations=args.iterations,
                       scheduler=args.scheduler,
                       partitioner=args.partitioner)
    wall = time.perf_counter() - t0
    print(f"{args.kernel}: II={res.schedule.ii} "
          f"stages={res.schedule.stage_count} "
          f"dynamic IPC {res.sim.dynamic_ipc:.2f}")
    print()
    print(stage_breakdown(trace_snapshot(), wall_s=wall))
    return 0


def cmd_experiment(args) -> int:
    from repro.analysis.experiments import EXPERIMENTS

    if args.list:
        for exp_id, exp in EXPERIMENTS.items():
            print(f"{exp_id:<6} {exp.description}")
        return 0
    if args.id is None:
        print("experiment: id required (or --list)", file=sys.stderr)
        return 2
    if args.id not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; available: "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    print(EXPERIMENTS[args.id].run(
        _loops(args), _runner(args), scheduler=args.scheduler,
        partitioner=args.partitioner).render())
    return 0


class _ExperimentHelp(argparse.HelpFormatter):
    """Names the experiment ids only when help is printed, so building
    the parser (the ``serve`` daemon does) never imports the drivers."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        if action.dest == "id":
            from repro.analysis.experiments import EXPERIMENTS

            return f"one of: {', '.join(EXPERIMENTS)}"
        return super()._get_help_string(action)


def cmd_schedulers(args) -> int:
    for name, engine in SCHEDULERS.items():
        default = "  (default)" if name == DEFAULT_SCHEDULER else ""
        print(f"{name:<6} {engine.description}{default}")
    return 0


def cmd_partitioners(args) -> int:
    for name, engine in PARTITIONERS.items():
        default = "  (default)" if name == DEFAULT_PARTITIONER else ""
        print(f"{name:<14} {engine.description}{default}")
    return 0


def cmd_cache(args) -> int:
    """Inspect or maintain the result cache.

    ``stats`` (the default action) prints entry/byte counts and
    per-shard occupancy; ``gc`` compacts every shard (deduping
    superseded records) and, with ``--max-bytes``, evicts oldest-first
    down to the budget; ``clear`` drops everything.
    """
    from repro.runner import open_cache

    cache = open_cache(args.cache_dir)
    if args.action == "clear":
        n = len(cache)
        cache.clear()
        print(f"cleared {n} cached results from {cache.path}")
        return 0
    if args.action == "gc":
        report = cache.gc(args.max_bytes)
        print(f"gc: {report['before_bytes']} -> {report['after_bytes']} "
              f"bytes, {report['evicted']} evicted, "
              f"{report['compacted_shards']} shard(s) compacted")
        return 0
    stats = cache.stats()
    print(f"cache: {cache.path}  [{stats['backend']}]")
    print(f"{stats['entries']} results, {stats['bytes']} bytes"
          + (f", {stats['corrupt']} corrupt lines skipped"
             if stats["corrupt"] else ""))
    print(f"hits {stats['hits']}  misses {stats['misses']}  "
          f"stores {stats['stores']}  evictions {stats['evictions']}  "
          f"compactions {stats['compactions']}")
    shards = " ".join(f"{n:d}" for n in stats["shard_occupancy"])
    print(f"shard occupancy ({stats['n_shards']} shards): {shards}")
    return 0


def cmd_serve(args) -> int:
    """Run the sweep service daemon until SIGTERM/SIGINT.

    The daemon shares the CLI cache knobs: ``--cache-dir`` /
    ``--no-cache`` pick the store (sharded, so the daemon and concurrent
    CLI sweeps can share it) and the global
    ``--jobs`` sets the compile worker count.  ``--max-cache-bytes``
    bounds the store; shards over budget are compacted and evicted as
    the service runs and once more on shutdown.

    Tracing is on by default (the daemon exists to be observed: the
    per-stage latency histograms feed ``GET /metrics``); ``--no-trace``
    turns it off for overhead-sensitive deployments.
    """
    from repro.runner import open_cache
    from repro.service import SweepService, serve

    if not args.no_trace:
        from repro.obs.trace import enable_tracing
        enable_tracing()
    cache = None if args.no_cache else open_cache(
        args.cache_dir, max_bytes=args.max_cache_bytes)
    service = SweepService(cache, n_workers=args.jobs,
                           batch_max=args.batch_max,
                           request_deadline_s=args.request_deadline,
                           max_queue_depth=args.max_queue_depth,
                           breaker_threshold=args.breaker_threshold,
                           breaker_cooldown_s=args.breaker_cooldown,
                           job_deadline_s=args.job_deadline or None,
                           max_retries=args.retries)
    serve(service, host=args.host, port=args.port)
    return 0


def cmd_submit(args) -> int:
    """Submit kernels to a running daemon (the smoke-test client)."""
    import http.client
    import json

    from repro.service.jobspec import kernel_job_spec

    options = {}
    if args.scheduler != DEFAULT_SCHEDULER:
        options["scheduler"] = args.scheduler
    if args.partitioner != DEFAULT_PARTITIONER:
        options["partitioner"] = args.partitioner
    specs = [kernel_job_spec(k, n_fus=args.fus,
                             n_clusters=args.clusters or None,
                             options=options or None)
             for k in args.kernels]
    conn = http.client.HTTPConnection(args.host, args.port,
                                      timeout=args.timeout)
    try:
        conn.request("POST", "/jobs", json.dumps({"jobs": specs}),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        if response.status != 200:
            print(f"submit: HTTP {response.status}: "
                  f"{body.get('error', body)}", file=sys.stderr)
            return 1
        results = body["results"]
        for result in results:
            outcome = result["outcome"]
            tag = "cached " if result["cached"] else "compiled"
            print(f"{outcome['loop']:<10} {outcome['machine']:<14} "
                  f"[{tag}] II={outcome['ii']:<3d} "
                  f"stages={outcome['stage_count']}")
        if args.metrics_out:
            conn.request("GET", "/metrics.json")
            snapshot = conn.getresponse().read().decode("utf-8")
            import pathlib
            pathlib.Path(args.metrics_out).write_text(snapshot)
            print(f"metrics snapshot -> {args.metrics_out}")
        if args.expect_cached and not all(r["cached"] for r in results):
            fresh = [r["outcome"]["loop"] for r in results
                     if not r["cached"]]
            print(f"submit: expected every result cached, but these "
                  f"compiled: {', '.join(fresh)}", file=sys.stderr)
            return 1
    finally:
        conn.close()
    return 0


def cmd_verify(args) -> int:
    """Prove schedules with the static verifier (DESIGN §5.9).

    With no kernel arguments this proves the full golden matrix: every
    scheduler x kernel on the 12-FU QRF machine and every partitioner
    x kernel on the 4-cluster ring -- the same
    engine x kernel grid the golden-fixture tests replay dynamically.
    ``--mutations N`` additionally runs N rounds of the seeded
    corruption corpus against each proved schedule and demands a 100%
    rejection rate (a verifier that cannot reject proves nothing).

    Exit codes: 0 = every schedule proved (and every mutation
    rejected); 1 = a proof failed or a corruption survived; 2 = usage
    error.
    """
    import json

    from repro.ir.copyins import insert_copies
    from repro.runner.pipeline import schedule_loop
    from repro.sched.schedule import SchedulingError
    from repro.verify import mutation_corpus, verify_schedule

    names = args.kernels or sorted(KERNELS)
    unknown = [k for k in names if k not in KERNELS]
    if unknown:
        print(f"verify: unknown kernel(s) {', '.join(unknown)}; "
              f"available: {', '.join(sorted(KERNELS))}", file=sys.stderr)
        return 2

    single = qrf_machine(args.fus)
    ring = clustered_machine(args.clusters)
    targets = []          # (label, machine, engine keywords)
    for kernel_name in names:
        for scheduler in SCHEDULERS:
            targets.append((f"{scheduler}/{kernel_name}", single,
                            {"scheduler": scheduler}))
        for partitioner in PARTITIONERS:
            targets.append((f"{partitioner}/{kernel_name}", ring,
                            {"partitioner": partitioner}))

    proof_failures = mutation_misses = n_mutations = 0
    verdicts = []
    for label, machine, engine in targets:
        kernel_name = label.rsplit("/", 1)[1]
        work = insert_copies(kernel(kernel_name)).ddg
        try:
            sched = schedule_loop(work, machine, **engine)
        except SchedulingError as exc:
            print(f"FAIL  {label}: did not schedule ({exc})",
                  file=sys.stderr)
            proof_failures += 1
            continue
        verdict = verify_schedule(sched, machine)
        verdicts.append(verdict)
        if not verdict.ok:
            proof_failures += 1
            print("FAIL  " + verdict.describe(), file=sys.stderr)
        elif not args.json:
            print("ok    " + verdict.describe())
        if verdict.ok and args.mutations:
            for mut in mutation_corpus(sched, machine, seed=args.seed,
                                       rounds=args.mutations):
                n_mutations += 1
                got = verify_schedule(mut.schedule, mut.machine,
                                     usage=mut.usage).kinds()
                if not (got & mut.expected):
                    mutation_misses += 1
                    print(f"MISS  {label}: {mut.name} survived "
                          f"({mut.description}); expected "
                          f"{sorted(k.value for k in mut.expected)}, "
                          f"got {sorted(k.value for k in got)}",
                          file=sys.stderr)

    if args.json:
        print(json.dumps([v.to_json() for v in verdicts], indent=2))
    else:
        proved = sum(1 for v in verdicts if v.ok)
        line = (f"\nverify: {proved}/{len(targets)} schedules proved, "
                f"{sum(sum(v.proved.values()) for v in verdicts)} "
                f"inequalities checked")
        if args.mutations:
            line += (f"; {n_mutations - mutation_misses}/{n_mutations} "
                     f"corruptions rejected")
        print(line)
    return 1 if (proof_failures or mutation_misses) else 0


#: the shared failure-exit convention: 0 = success, 1 = the check the
#: command was asked to make failed, 2 = usage error.  ``verify`` and
#: ``submit --expect-cached`` follow it.
EXIT_CODES_HELP = ("exit codes: 0 = success; 1 = check failed; "
                   "2 = usage error")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-vliw",
        description=__doc__.splitlines()[0])
    p.add_argument("--sample", type=int, default=None,
                   help="corpus subsample size (default: bench default)")
    p.add_argument("--full", action="store_true",
                   help="use the full 1258-loop corpus")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for experiment sweeps "
                        "(default 1 = serial; results are identical)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-addressed result cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache location (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro-vliw)")
    from repro.runner.pool import (DEFAULT_JOB_DEADLINE_S,
                                   DEFAULT_MAX_RETRIES)
    p.add_argument("--job-deadline", type=float, metavar="SECONDS",
                   default=DEFAULT_JOB_DEADLINE_S,
                   help="fan-out watchdog: respawn the workers when no "
                        "job settles for this long (default "
                        f"{DEFAULT_JOB_DEADLINE_S:g}; 0 disables the "
                        "watchdog)")
    p.add_argument("--retries", type=int, default=DEFAULT_MAX_RETRIES,
                   metavar="N",
                   help="failed dispatch rounds a job may ride before "
                        "it is quarantined to the serial path "
                        "(default 1; a job executes at most 1+N times)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="arm seeded fault injection, e.g. "
                        "'seed=7;pool.worker=crash:0.05;cache.put="
                        "torn:0.2' (equivalent to $REPRO_FAULTS; "
                        "chaos testing only)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("corpus", help="corpus statistics")

    def kernel_flags(parser) -> None:
        """The kernel/machine/engine knobs shared by schedule + trace."""
        parser.add_argument("kernel", nargs="?", default=None,
                            help=f"one of: {', '.join(sorted(KERNELS))}")
        parser.add_argument("--list", action="store_true",
                            help="list the available kernels and exit")
        parser.add_argument("--fus", type=int, default=4,
                            help="single-cluster machine width "
                                 "(default 4)")
        parser.add_argument("--clusters", type=int, default=0,
                            help="use a clustered machine with N "
                                 "clusters")
        parser.add_argument("--unroll", type=int, default=1)
        parser.add_argument("--iterations", type=int, default=16)
        parser.add_argument("--scheduler", default=DEFAULT_SCHEDULER,
                            choices=SCHEDULERS,
                            help="scheduling engine (see `repro-vliw "
                                 "schedulers`)")
        parser.add_argument("--partitioner", default=DEFAULT_PARTITIONER,
                            choices=PARTITIONERS,
                            help="cluster-partitioning engine, used with "
                                 "--clusters (see `repro-vliw "
                                 "partitioners`)")

    ps = sub.add_parser("schedule", help="schedule one named kernel")
    kernel_flags(ps)
    ps.add_argument("--asm", action="store_true",
                    help="print the queue-addressed assembly listing")
    ps.add_argument("--trace", action="store_true",
                    help="compile with tracing on and print the "
                         "per-stage time breakdown after the report")

    pt = sub.add_parser(
        "trace", help="compile one kernel with tracing enabled and "
                      "print the per-stage time breakdown")
    kernel_flags(pt)

    pe = sub.add_parser("experiment", help="run one paper experiment",
                        formatter_class=_ExperimentHelp)
    pe.add_argument("id", nargs="?", default=None,
                    help="experiment id (see --list)")
    pe.add_argument("--list", action="store_true",
                    help="list the available experiments and exit")
    pe.add_argument("--scheduler", default=DEFAULT_SCHEDULER,
                    choices=SCHEDULERS,
                    help="scheduling engine used by the sweep "
                         "(`sc` always compares all engines)")
    pe.add_argument("--partitioner", default=DEFAULT_PARTITIONER,
                    choices=PARTITIONERS,
                    help="cluster-partitioning engine used by clustered "
                         "sweeps (`pc` and `a2` always compare all "
                         "engines)")

    sub.add_parser("schedulers",
                   help="list the scheduling engines")
    sub.add_parser("partitioners",
                   help="list the cluster-partitioning engines")

    pf = sub.add_parser(
        "verify",
        help="prove schedules with the static verifier (golden "
             "engine x kernel matrix by default)",
        epilog=EXIT_CODES_HELP + " (1 = a proof failed or a seeded "
               "corruption survived)")
    pf.add_argument("kernels", nargs="*",
                    help="kernels to prove (default: all of "
                         f"{', '.join(sorted(KERNELS))})")
    pf.add_argument("--fus", type=int, default=12,
                    help="single-cluster machine width for the "
                         "scheduler matrix (default 12, the golden "
                         "fixtures' machine)")
    pf.add_argument("--clusters", type=int, default=4,
                    help="ring size for the partitioner matrix "
                         "(default 4, the golden fixtures' machine)")
    pf.add_argument("--mutations", type=int, default=0, metavar="N",
                    help="also run N rounds of the seeded corruption "
                         "corpus per schedule and require every one "
                         "rejected")
    pf.add_argument("--seed", type=int, default=0,
                    help="seed for the corruption corpus (default 0)")
    pf.add_argument("--json", action="store_true",
                    help="emit the verdicts as JSON instead of the "
                         "per-schedule lines")

    pc = sub.add_parser(
        "cache", help="inspect or maintain the result cache")
    pc.add_argument("action", nargs="?", default="stats",
                    choices=["stats", "gc", "clear"],
                    help="stats (default): entries/bytes/shard "
                         "occupancy/hit counters; gc: compact shards "
                         "and evict to --max-bytes; clear: drop "
                         "everything")
    pc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="byte budget for gc (oldest records evicted "
                         "per shard until the store fits)")

    pv = sub.add_parser(
        "serve", help="run the sweep service daemon (POST /jobs, "
                      "GET /jobs/<key>, /healthz, /metrics)")
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=8123)
    pv.add_argument("--batch-max", type=int, default=64, metavar="N",
                    help="max jobs per dispatcher batch (default 64)")
    pv.add_argument("--max-cache-bytes", type=int, default=None,
                    metavar="N",
                    help="size budget for the sharded result cache "
                         "(oldest entries evicted per shard)")
    pv.add_argument("--no-trace", action="store_true",
                    help="disable compile-stage tracing (on by default "
                         "so /metrics carries latency histograms)")
    pv.add_argument("--request-deadline", type=float, default=None,
                    metavar="SECONDS",
                    help="answer POST /jobs with 504 + the job keys "
                         "when results do not settle in time (default: "
                         "no deadline; the compile keeps running and "
                         "clients poll GET /jobs/<key>)")
    pv.add_argument("--max-queue-depth", type=int, default=1024,
                    metavar="N",
                    help="shed requests (503 + Retry-After) once the "
                         "dispatch queue holds N jobs (default 1024)")
    pv.add_argument("--breaker-threshold", type=int, default=5,
                    metavar="N",
                    help="consecutive batch failures that open the "
                         "circuit breaker (default 5; 0 disables it)")
    pv.add_argument("--breaker-cooldown", type=float, default=30.0,
                    metavar="SECONDS",
                    help="how long an open breaker fails fast before "
                         "half-opening to probe (default 30)")

    pm = sub.add_parser(
        "submit", help="submit kernels to a running daemon over HTTP",
        epilog=EXIT_CODES_HELP + " (1 = HTTP error, or --expect-cached "
               "saw a fresh compile)")
    pm.add_argument("kernels", nargs="+",
                    help=f"kernel names, e.g. {', '.join(sorted(KERNELS))}")
    pm.add_argument("--host", default="127.0.0.1")
    pm.add_argument("--port", type=int, default=8123)
    pm.add_argument("--fus", type=int, default=4,
                    help="single-cluster machine width (default 4)")
    pm.add_argument("--clusters", type=int, default=0,
                    help="use a clustered machine with N clusters")
    pm.add_argument("--scheduler", default=DEFAULT_SCHEDULER,
                    choices=SCHEDULERS)
    pm.add_argument("--partitioner", default=DEFAULT_PARTITIONER,
                    choices=PARTITIONERS)
    pm.add_argument("--timeout", type=float, default=120.0,
                    help="HTTP timeout in seconds (default 120)")
    pm.add_argument("--expect-cached", action="store_true",
                    help="fail unless every result was served from the "
                         "cache (the CI duplicate-submission check)")
    pm.add_argument("--metrics-out", default=None, metavar="FILE",
                    help="also fetch /metrics and write the snapshot "
                         "to FILE")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.faults:
        from repro.faults import enable_faults

        try:
            enable_faults(args.faults)
        except ValueError as exc:
            print(f"repro-vliw: bad --faults spec: {exc}",
                  file=sys.stderr)
            return 2
    handler = {
        "corpus": cmd_corpus,
        "schedule": cmd_schedule,
        "trace": cmd_trace,
        "experiment": cmd_experiment,
        "schedulers": cmd_schedulers,
        "partitioners": cmd_partitioners,
        "verify": cmd_verify,
        "cache": cmd_cache,
        "serve": cmd_serve,
        "submit": cmd_submit,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
