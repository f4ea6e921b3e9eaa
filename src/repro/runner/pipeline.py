"""The compile pipeline executed by every job, plus the extras table.

``compile_loop`` is the one implementation of the paper's chain: front
end ((unroll ->) copy-insert) -> schedule -> (allocate queues) ->
(verify).  Every experiment driver, the service and
:func:`repro.sim.checker.run_pipeline` (which adds only simulation) run
these stages, and :func:`schedule_loop` is the one place an engine is
chosen.  It lives here (rather than in :mod:`repro.analysis.experiments`,
its original home) so worker processes import only the runner subsystem.
The analysis layer re-exports it unchanged.

Because :class:`~repro.runner.job.JobResult` carries only plain data, a
driver that needs more than the :class:`~repro.analysis.metrics.LoopOutcome`
(queue locations, conventional-RF register demand, spill counts under a
hardware budget) asks for named **extras**: JSON-shaped derived metrics
computed inside the worker, where the schedule object still exists.  An
extras spec is ``"name"`` or ``"name:arg"``; see ``EXTRA_EXTRACTORS``.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.analysis.metrics import LoopOutcome
from repro.faults import fault_point
from repro.ir.copyins import insert_copies
from repro.ir.ddg import Ddg
from repro.ir.unroll import select_unroll_factor, unroll
from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import Machine
from repro.obs.trace import (job_capture, span, trace_count,
                             tracing_enabled)
from repro.regalloc.queues import ScheduleQueueUsage, allocate_for_schedule
from repro.sched.mii import MiiReport, mii_report
from repro.sched.partition import (PartitionConfig, partitioned_schedule,
                                   schedule_with_moves)
from repro.sched.partitioners import DEFAULT_PARTITIONER, PARTITIONERS
from repro.sched.schedule import (ModuloSchedule, SchedulingError,
                                  check_engine)
from repro.sched.strategies import DEFAULT_SCHEDULER, SCHEDULERS
from repro.verify import VerificationError, verify_schedule

from .job import CompileJob, JobResult

#: caps for the automatic unroll policy (the paper's large loops "do not
#: require unrolling to exploit efficiently the machine resources")
UNROLL_MAX_FACTOR = 8
UNROLL_MAX_OPS = 128

#: Front-end memo: the (unroll ->) copy-insert prefix of the pipeline is
#: machine-independent, but sweeps compile the same loop object on many
#: machines (fig6: four machines per loop; fig8/9: every preset).  Keyed
#: by source-DDG identity + structural version, so any mutation of the
#: source invalidates its entries; the memoised work DDG is consumed
#: strictly read-only downstream (schedulers retime *copies*), which also
#: lets its packed ``arrays()`` lowering be shared across machines.
#:
#: The memo keeps a loop's entries only while they are in use.  The loop
#: in flight -- the one the last call compiled, held through a weak
#: reference -- keeps its entries until a different loop arrives.  On its
#: first visit the loop is then dropped from the memo, and its work DDGs
#: -- with their ``DdgArrays``, SCCs and per-II caches -- are freed by
#: reference count, before any cyclic collection.  Loop-major streams
#: (``Grid.run``, perfbench's sweeps, and each pool worker's share of
#: them, cut in loop-major chunks) come back to a loop rarely or never,
#: so they hold one loop's state at a time.  A loop that does come back after
#: others (the daemon's interleaved specs, fig6's ring pass after its
#: flat pass) is kept from that second visit on, in a least-recently-used
#: order: re-entering moves it to the back of the (insertion-ordered)
#: dict, and admitting a loop at the bound drops the one at the front.
#: ``MAX_FRONTEND_LOOPS`` bounds the whole memo, the loop in flight
#: included, so within the bound every loop is unrolled and
#: copy-inserted at most twice per (factor, strategy).  The keys stay
#: weak, so a loop its owner drops (the daemon's bounded spec memo)
#: frees its entries at once.
MAX_FRONTEND_LOOPS = 256

_FRONTEND_MEMO: "weakref.WeakKeyDictionary[Ddg, dict]" = \
    weakref.WeakKeyDictionary()
#: the loop in flight, and whether it is on its first visit
_in_flight: "Optional[tuple[weakref.ref[Ddg], bool]]" = None


def _enter_frontend(ddg: Ddg) -> None:
    """Make *ddg* the loop in flight, dropping the last one's entries
    if that was its first visit."""
    global _in_flight
    memo = _FRONTEND_MEMO
    if _in_flight is not None:
        last = _in_flight[0]()
        if _in_flight[1] and last is not None:
            memo.pop(last, None)
            # stamped on the structural cache: a mutation clears it, and
            # a new loop (copies included) starts without it
            last._edge_cache["frontend_left"] = True
    per_ddg = memo.pop(ddg, None)
    first_visit = per_ddg is None and \
        "frontend_left" not in ddg._edge_cache
    if per_ddg is None:
        per_ddg = {}
        while len(memo) >= MAX_FRONTEND_LOOPS:
            del memo[next(iter(memo))]
    memo[ddg] = per_ddg
    _in_flight = (weakref.ref(ddg), first_visit)


def _frontend(ddg: Ddg, factor: int, copies: bool,
              copy_strategy: str) -> tuple[Ddg, int]:
    """Memoised (unroll ->) copy-insert prefix: ``(work, n_copies)``."""
    if _in_flight is None or _in_flight[0]() is not ddg:
        _enter_frontend(ddg)
    per_ddg = _FRONTEND_MEMO[ddg]
    if per_ddg.get("version") != ddg._version:
        per_ddg.clear()
        per_ddg["version"] = ddg._version
    key = (factor, copies, copy_strategy)
    hit = per_ddg.get(key)
    if hit is not None:
        return hit
    work = unroll(ddg, factor) if factor > 1 else ddg
    n_copies = 0
    if copies:
        res = insert_copies(work, strategy=copy_strategy)  # type: ignore[arg-type]
        work, n_copies = res.ddg, res.n_copies
    if work is not ddg:
        # the identity case recomputes nothing -- and storing it would
        # make the weak-keyed entry strongly self-referential (immortal)
        per_ddg[key] = (work, n_copies)
    return work, n_copies


@dataclass
class CompiledLoop:
    """Pipeline artefacts for one (loop, machine) pair."""

    outcome: LoopOutcome
    schedule: Optional[ModuloSchedule] = None
    usage: Optional[ScheduleQueueUsage] = None
    work: Optional[Ddg] = None
    #: the engine's refusal when ``outcome.failed``
    error: Optional[SchedulingError] = None


def compile_loop(ddg: Ddg, machine: "Machine | ClusteredMachine", *,
                 do_unroll: bool = False,
                 unroll_factor: Optional[int] = None,
                 copies: bool = True,
                 copy_strategy: str = "slack",
                 allocate: bool = True,
                 partitioner: str = DEFAULT_PARTITIONER,
                 use_moves: bool = False,
                 scheduler: str = DEFAULT_SCHEDULER,
                 verify: bool = False) -> CompiledLoop:
    """Run (unroll ->) (copy-insert ->) schedule (-> allocate queues).

    ``scheduler`` names the single-cluster scheduling engine (a key of
    :data:`~repro.sched.strategies.SCHEDULERS`); clustered machines
    always go through the partitioning engine named by ``partitioner``
    (a key of :data:`~repro.sched.partitioners.PARTITIONERS`; the
    space/time search embeds IMS's eviction machinery -- see DESIGN.md
    §6).  Scheduling failures produce a ``failed`` outcome instead of
    raising, so corpus sweeps always complete; the outcome's MII bounds
    are those of the graph the engine scheduled (after the machine's
    latency model).

    ``verify`` runs the independent checker (:mod:`repro.verify`) over
    the finished schedule and raises
    :class:`~repro.verify.VerificationError` if any invariant fails --
    unlike a scheduling failure, a broken *successful* schedule is a
    compiler bug, never a workload property.
    """
    # fail fast on engine-name typos: the same table-listing error
    # whether the name arrives from the CLI, the service, or a library
    # caller, and before any scheduling work is spent
    check_engine(SCHEDULERS, "scheduler", scheduler)
    check_engine(PARTITIONERS, "partitioner", partitioner)

    def schedule_at(factor: int) -> CompiledLoop:
        return _schedule(ddg, machine, factor, copies=copies,
                         copy_strategy=copy_strategy,
                         partitioner=partitioner, use_moves=use_moves,
                         scheduler=scheduler)

    factor = 1
    if unroll_factor is not None:
        factor = unroll_factor
    elif do_unroll:
        factor = select_unroll_factor(
            ddg, _fu_counts(machine), max_factor=UNROLL_MAX_FACTOR,
            max_ops=UNROLL_MAX_OPS).factor
        if factor > 1:
            # a production compiler keeps whichever version wins: fall
            # back to the rolled loop when the unrolled per-iteration II
            # is worse (the estimate is a bound, not a guarantee).  The
            # rolled II is at least the rolled MII, so an unrolled II at
            # or under it wins unseen.  Only the kept one is allocated
            # and verified
            unrolled = schedule_at(factor)
            rolled_work = _frontend(ddg, 1, copies, copy_strategy)[0]
            if not unrolled.outcome.failed and (
                    unrolled.outcome.ii_per_iteration
                    <= _bounds(rolled_work, machine).mii + 1e-9):
                return _finish(unrolled, machine, allocate=allocate,
                               verify=verify)
            rolled = schedule_at(1)
            keep_unrolled = not unrolled.outcome.failed and (
                rolled.outcome.failed
                or unrolled.outcome.ii_per_iteration
                <= rolled.outcome.ii_per_iteration + 1e-9)
            return _finish(unrolled if keep_unrolled else rolled, machine,
                           allocate=allocate, verify=verify)
    return _finish(schedule_at(factor), machine,
                   allocate=allocate, verify=verify)


def schedule_loop(work: Ddg, machine: "Machine | ClusteredMachine", *,
                  scheduler: str = DEFAULT_SCHEDULER,
                  partitioner: str = DEFAULT_PARTITIONER,
                  use_moves: bool = False) -> ModuloSchedule:
    """Schedule the front-end graph *work*: the one engine dispatch point.

    Clustered machines go through the ``partitioner`` engine (with ring
    MOVEs when ``use_moves``), single-cluster machines through the
    ``scheduler`` engine's ``schedule``, read off its ``SCHEDULERS``
    class on every call.  Raises :class:`SchedulingError` with the
    engine's message when no II up to the engine's limit admits a
    schedule.
    """
    if isinstance(machine, ClusteredMachine):
        config = PartitionConfig(partitioner=partitioner)
        if use_moves:
            return schedule_with_moves(work, machine,
                                       config=config).schedule
        return partitioned_schedule(work, machine, config=config)
    return SCHEDULERS[scheduler].schedule(work, machine)


def _bounds(work: Ddg, machine: "Machine | ClusteredMachine") -> MiiReport:
    """MII bounds of *work* as the engines see it: after the machine's
    latency model, on the graph they schedule."""
    target = machine.cluster if isinstance(machine, ClusteredMachine) \
        else machine
    with span("pipeline.mii"):
        return mii_report(target.retime(work), machine)


def _schedule(ddg: Ddg, machine: "Machine | ClusteredMachine",
              factor: int, *, copies: bool, copy_strategy: str,
              partitioner: str, use_moves: bool,
              scheduler: str) -> CompiledLoop:
    """(unroll ->) (copy-insert ->) schedule at a fixed unroll *factor*;
    the outcome carries no queue figures yet (see :func:`_finish`)."""
    with span("pipeline.frontend"):
        work, n_copies = _frontend(ddg, factor, copies, copy_strategy)

    def compiled(sched: Optional[ModuloSchedule], report: MiiReport,
                 error: Optional[SchedulingError] = None) -> CompiledLoop:
        outcome = LoopOutcome(
            loop=ddg.name, machine=machine.name, n_source_ops=ddg.n_ops,
            n_body_ops=work.n_ops if sched is None else sched.n_ops,
            unroll_factor=factor, n_copies=n_copies,
            ii=0 if sched is None else sched.ii, mii=report.mii,
            res_mii=report.res, rec_mii=report.rec,
            stage_count=0 if sched is None else sched.stage_count,
            trip_count=ddg.trip_count, failed=sched is None)
        return CompiledLoop(outcome=outcome, schedule=sched, work=work,
                            error=error)

    try:
        with span("pipeline.schedule"):
            sched = schedule_loop(work, machine, scheduler=scheduler,
                                  partitioner=partitioner,
                                  use_moves=use_moves)
            if not (use_moves and isinstance(machine, ClusteredMachine)):
                return compiled(sched, MiiReport(res=sched.stats.res_mii,
                                                 rec=sched.stats.rec_mii))
    except SchedulingError as exc:
        return compiled(None, _bounds(work, machine), exc)
    # the final schedule's stats bound the move-augmented graph; the
    # outcome reports the bounds of *work*
    return compiled(sched, _bounds(work, machine))


def _finish(compiled: CompiledLoop, machine: "Machine | ClusteredMachine",
            *, allocate: bool, verify: bool) -> CompiledLoop:
    """Allocate queues for and verify the schedule a compile returns."""
    sched = compiled.schedule
    if sched is None:
        return compiled
    if allocate:
        with span("pipeline.allocate"):
            usage = allocate_for_schedule(
                sched,
                machine if isinstance(machine, ClusteredMachine) else None)
            compiled.usage = usage
            compiled.outcome = replace(compiled.outcome,
                                       total_queues=usage.total_queues,
                                       max_queue_depth=usage.max_depth)

    if verify:
        with span("pipeline.verify"):
            verdict = verify_schedule(sched, machine, usage=compiled.usage)
        if not verdict.ok:
            raise VerificationError(verdict)
    return compiled


def _fu_counts(machine: "Machine | ClusteredMachine") -> dict:
    from repro.ir.operations import FuType
    return {t: machine.capacity(t)
            for t in (FuType.LS, FuType.ADD, FuType.MUL)}


# ---------------------------------------------------------------------------
# extras: derived metrics computed in the worker
# ---------------------------------------------------------------------------

def _extra_queue_locations(compiled: CompiledLoop, arg: str) -> object:
    """Per-location queue allocation summary (Sec. 4 / Fig. 7 driver)."""
    if compiled.usage is None:
        return None
    return [{"kind": loc.kind.value, "cluster": loc.cluster,
             "n_queues": alloc.n_queues, "max_depth": alloc.max_depth}
            for loc, alloc in compiled.usage.by_location.items()]


def _extra_crf_registers(compiled: CompiledLoop, arg: str) -> object:
    """Conventional-RF register demand of the schedule (S1 / S2 drivers)."""
    from repro.regalloc.conventional import register_requirement
    from repro.regalloc.rotating import (mve_register_requirement,
                                         rotating_register_requirement)

    if compiled.schedule is None:
        return None
    rep = register_requirement(compiled.schedule)
    mrep = mve_register_requirement(compiled.schedule)
    return {"max_live": rep.max_live,
            "rotating": rotating_register_requirement(compiled.schedule),
            "mve_regs": mrep.registers,
            "mve_unroll": mrep.kernel_unroll}


def _extra_spills(compiled: CompiledLoop, arg: str) -> object:
    """Spill counts under each ``QxP`` hardware budget in *arg* (E6b)."""
    from repro.regalloc.lifetimes import extract_lifetimes
    from repro.regalloc.spill import allocate_with_budget

    if compiled.schedule is None:
        return None
    lifetimes = extract_lifetimes(compiled.schedule)
    out = {}
    for part in arg.split(","):
        q, p = part.split("x")
        rep = allocate_with_budget(lifetimes, compiled.schedule.ii,
                                   max_queues=int(q), max_positions=int(p))
        out[part] = {"fits": rep.fits, "n_spilled": rep.n_spilled}
    return out


def _extra_cluster_stats(compiled: CompiledLoop, arg: str) -> object:
    """Spatial quality of a clustered schedule (PC driver): how many
    values cross the ring, and the per-cluster MaxLive peak."""
    from repro.regalloc.lifetimes import Lifetime, max_live

    sched = compiled.schedule
    if sched is None or sched.n_clusters <= 1:
        return None
    ddg = sched.ddg
    cluster_of = sched.cluster_of
    inter = 0
    per_cluster: dict[int, list[Lifetime]] = {}
    for e in ddg.data_edges():
        if cluster_of[e.src] != cluster_of[e.dst]:
            inter += 1
        start = sched.sigma[e.src] + e.latency
        end = sched.sigma[e.dst] + e.distance * sched.ii
        per_cluster.setdefault(cluster_of[e.src], []).append(
            Lifetime(e.src, e.dst, e.key, start, end - start, e.distance))
    live = {c: max_live(lts, sched.ii)
            for c, lts in per_cluster.items()}
    return {"inter_cluster_edges": inter,
            "max_cluster_live": max(live.values(), default=0),
            "per_cluster_live": {str(c): v
                                 for c, v in sorted(live.items())}}


def _extra_sched_stats(compiled: CompiledLoop, arg: str) -> object:
    """Search-effort counters of the scheduling engine (SC driver)."""
    if compiled.schedule is None:
        return None
    stats = compiled.schedule.stats
    return {"attempts": stats.attempts, "evictions": stats.evictions,
            "iis_tried": stats.iis_tried}


#: Registry of extras extractors; keyed by the name before the colon.
EXTRA_EXTRACTORS: dict[str, Callable[[CompiledLoop, str], object]] = {
    "queue_locations": _extra_queue_locations,
    "crf_registers": _extra_crf_registers,
    "spills": _extra_spills,
    "sched_stats": _extra_sched_stats,
    "cluster_stats": _extra_cluster_stats,
}


def spill_spec(budgets: Sequence[tuple[int, int]]) -> str:
    """Extras spec string for :func:`_extra_spills`, e.g. ``"spills:8x16"``."""
    return "spills:" + ",".join(f"{q}x{p}" for q, p in budgets)


def compute_extra(spec: str, compiled: CompiledLoop) -> object:
    """Evaluate one extras spec against a compiled loop."""
    name, _, arg = spec.partition(":")
    try:
        extractor = EXTRA_EXTRACTORS[name]
    except KeyError:
        raise KeyError(f"unknown extras spec {spec!r}; known: "
                       f"{', '.join(sorted(EXTRA_EXTRACTORS))}") from None
    return extractor(compiled, arg)


def error_result(job: CompileJob, exc: BaseException, *,
                 wall_s: float = 0.0) -> JobResult:
    """A structured failed :class:`JobResult` for an in-job blow-up.

    The error kind (``outcome.error``) carries the exception so sweeps
    can report *what* broke per job; callers treat these like scheduling
    failures (one failed row) but never cache them -- a transient fault
    must cost one recompile, not a poisoned cache entry.
    """
    outcome = LoopOutcome(
        loop=job.ddg.name,
        machine=getattr(job.machine, "name", type(job.machine).__name__),
        n_source_ops=job.ddg.n_ops, n_body_ops=job.ddg.n_ops,
        unroll_factor=1, n_copies=0, ii=0, mii=0, res_mii=0, rec_mii=0,
        stage_count=0, trip_count=job.ddg.trip_count, failed=True,
        error=f"{type(exc).__name__}: {exc}")
    return JobResult(key=job.key, outcome=outcome, wall_s=wall_s)


def execute_job(job: CompileJob) -> JobResult:
    """Run one job's pipeline and extras; the worker-process entry point.

    Pure: the result depends only on the job's content, which is what
    makes parallel and serial sweeps bit-identical and results cacheable
    under the job key.  ``wall_s`` (excluded from equality) records the
    compile time -- the cost estimate the persistent pool's chunked
    dispatch reads back from cache records.

    **Failure containment**: one job is one failure domain.  Anything
    the pipeline raises beyond the expected ``SchedulingError`` (already
    folded into the outcome by ``compile_loop``) -- a verifier rejection,
    an extras extractor bug, an injected fault -- becomes an error-kind
    failed result instead of poisoning the whole fan-out; see
    :func:`error_result`.
    """
    t0 = time.perf_counter()
    try:
        fault_point("job.execute", job.key)
        capture = job_capture() if tracing_enabled() else None
        if capture is not None:
            with capture:
                compiled = compile_loop(job.ddg, job.machine,
                                        **job.options.compile_kwargs())
        else:
            compiled = compile_loop(job.ddg, job.machine,
                                    **job.options.compile_kwargs())
        extras = {}
        for spec in job.options.extras:
            extras[spec] = (None if compiled.outcome.failed
                            else compute_extra(spec, compiled))
        if capture is not None:
            # the per-job stage summary rides home on the result, crossing
            # the worker-process boundary; run_jobs folds it into the parent
            extras["trace"] = capture.summary
        return JobResult(key=job.key, outcome=compiled.outcome,
                         extras=extras,
                         wall_s=time.perf_counter() - t0)
    except Exception as exc:
        trace_count("runner.job_errors")
        return error_result(job, exc, wall_s=time.perf_counter() - t0)
