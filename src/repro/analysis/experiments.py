"""Experiment drivers: one function per paper figure/table (+ ablations).

Every driver consumes a list of loop DDGs (the corpus or a subset), fills
a labelled :class:`~repro.runner.sweep.Grid` with one cell per (machine,
pipeline variant) point, runs it through :func:`repro.runner.run_jobs`
and aggregates the results -- looked up by label, aligned to the loop
list -- into a result object whose fields are the numbers the paper plots
and whose ``render()`` reproduces the figure as an ASCII table.

:data:`EXPERIMENTS` is the one table of experiments: id -> description,
driver and the engine knobs the driver takes.  The CLI's ``experiment``
command, ``examples/reproduce_paper.py`` and the paper-shape suite
(``tests/paper/``) all read it; DESIGN.md §4 maps the ids to the paper
and EXPERIMENTS.md records measured-vs-paper values.

All drivers accept ``runner=RunnerConfig(...)`` to fan the grid out over
worker processes and/or replay results from the content-addressed cache;
the default (``None``) is serial and uncached, and parallel runs
aggregate to identical tables because results are looked up by label.
Most also accept ``scheduler="ims"|"sms"`` (the CLI's ``--scheduler``)
and the clustered ones ``partitioner=`` (``--partitioner``);
:func:`exp_scheduler_compare` and :func:`exp_partitioner_compare` run the
engines head to head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional, Sequence

from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import Machine
from repro.machine.presets import (IPC_SWEEP_FUS, PAPER_CLUSTER_COUNTS,
                                   clustered_machine, paper_qrf_machines,
                                   qrf_machine)
from repro.runner import JobResult, RunnerConfig, spill_spec
from repro.runner.sweep import Grid
# Re-exported for backwards compatibility: the pipeline moved into the
# runner subsystem so worker processes do not depend on this module.
from repro.runner.pipeline import (UNROLL_MAX_FACTOR, UNROLL_MAX_OPS,  # noqa: F401
                                   CompiledLoop, compile_loop)
from repro.sched.mii import mii_report
from repro.sched.partitioners import DEFAULT_PARTITIONER
from repro.sched.strategies import DEFAULT_SCHEDULER

from .metrics import (cumulative_within, fraction, mean, percentile,
                      weighted_dynamic_ipc, weighted_static_ipc)

__all__ = [
    "CompiledLoop", "compile_loop",
    "Experiment", "EXPERIMENTS",
    "Fig3Result", "fig3_queue_requirements",
    "Sec2Result", "sec2_copy_impact",
    "Fig4Result", "fig4_unroll_speedup",
    "Fig6Result", "fig6_ii_variation",
    "Sec4Result", "sec4_cluster_queues",
    "IpcSweepResult", "ipc_sweep", "fig8_ipc", "fig9_ipc_rc",
    "CopyTreeAblation", "ablation_copy_tree",
    "PartitionAblation", "ablation_partition",
    "MovesAblation", "ablation_moves",
    "RegisterPressureResult", "register_pressure",
    "SpillBudgetResult", "spill_budget",
    "RingLatencyResult", "ring_latency_sensitivity",
    "HardwareCostResult", "hardware_cost",
    "SchedulerCompareResult", "exp_scheduler_compare",
    "PartitionerCompareResult", "exp_partitioner_compare",
]


def _pinned_first(registered: Sequence[str],
                  default: str) -> tuple[str, ...]:
    """*registered* with *default* pinned first (so it stays the
    comparison baseline no matter what else registers)."""
    return tuple(([default] if default in registered else [])
                 + [name for name in registered if name != default])


def _registered_partitioners() -> tuple[str, ...]:
    """Every registered partitioning engine, default engine first."""
    from repro.sched.partitioners import available_partitioners

    return _pinned_first(available_partitioners(), DEFAULT_PARTITIONER)


def _ring_vs_flat(loops: Sequence[Ddg],
                  rings: dict[Hashable, ClusteredMachine], *,
                  do_unroll: bool, partitioner: str, use_moves: bool,
                  runner: Optional[RunnerConfig], scheduler: str
                  ) -> dict[Hashable, list[tuple[JobResult, JobResult]]]:
    """Fig. 6's two passes over each labelled ring.

    The flattened single-cluster machine picks each loop's unroll factor;
    the ring then compiles at that same factor.  Returns label -> the
    (single, ring) result pairs of the loops both compiled.
    """
    flat = Grid(loops)
    for label, cm in rings.items():
        flat.add(label, cm.flattened(),
                 dict(do_unroll=do_unroll, copies=True, allocate=False,
                      scheduler=scheduler))
    singles = flat.run(runner)
    ring = Grid(loops)
    for label, cm in rings.items():
        ring.add(label, cm, [
            dict(unroll_factor=single.outcome.unroll_factor, copies=True,
                 allocate=False, partitioner=partitioner,
                 use_moves=use_moves, scheduler=scheduler)
            for single in singles[label]])
    clustered = ring.run(runner)
    return {label: [(single, clust) for single, clust
                    in zip(singles[label], clustered[label])
                    if not (single.outcome.failed or clust.outcome.failed)]
            for label in rings}


# ---------------------------------------------------------------------------
# E1 -- Fig. 3: number of queues required (QRF + copy ops)
# ---------------------------------------------------------------------------

@dataclass
class Fig3Result:
    buckets: tuple[int, ...]
    #: machine name -> {bucket: fraction of loops needing <= bucket queues}
    by_machine: dict[str, dict[int, float]]
    queue_counts: dict[str, list[int]] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Fig. 3 -- loops schedulable within N queues "
                 "(QRF, copy ops inserted)", ""]
        header = "machine".ljust(14) + "".join(
            f"<={b:<5}" for b in self.buckets)
        lines.append(header)
        for name, row in self.by_machine.items():
            lines.append(name.ljust(14) + "".join(
                f"{row[b]*100:5.1f}% " for b in self.buckets))
        return "\n".join(lines)


def fig3_queue_requirements(
        loops: Sequence[Ddg],
        machines: Optional[Sequence[Machine]] = None,
        buckets: tuple[int, ...] = (4, 8, 16, 32),
        *, runner: Optional[RunnerConfig] = None,
        scheduler: str = DEFAULT_SCHEDULER) -> Fig3Result:
    grid = Grid(loops)
    for m in machines or paper_qrf_machines():
        grid.add(m.name, m,
                 dict(copies=True, allocate=True, scheduler=scheduler))
    by_machine: dict[str, dict[int, float]] = {}
    counts: dict[str, list[int]] = {}
    for name, block in grid.run(runner).items():
        totals = [r.outcome.total_queues for r in block
                  if not r.outcome.failed]
        by_machine[name] = cumulative_within(totals, buckets)
        counts[name] = totals
    return Fig3Result(buckets=buckets, by_machine=by_machine,
                      queue_counts=counts)


# ---------------------------------------------------------------------------
# E2 -- Section 2 text: impact of copy insertion on II / stage count
# ---------------------------------------------------------------------------

@dataclass
class Sec2Result:
    #: machine -> metrics
    same_ii: dict[str, float]
    same_sc: dict[str, float]
    ii_increase_by_1: dict[str, float]  # among changed loops
    mean_copies: dict[str, float]

    def render(self) -> str:
        lines = ["Section 2 -- copy-operation impact", "",
                 "machine".ljust(14) + "same-II  same-SC  "
                 "+1-cycle-of-changed  copies/loop"]
        for name in self.same_ii:
            lines.append(
                name.ljust(14)
                + f"{self.same_ii[name]*100:6.1f}%  "
                + f"{self.same_sc[name]*100:6.1f}%  "
                + f"{self.ii_increase_by_1[name]*100:12.1f}%        "
                + f"{self.mean_copies[name]:.1f}")
        return "\n".join(lines)


def sec2_copy_impact(loops: Sequence[Ddg],
                     machines: Optional[Sequence[Machine]] = None,
                     *, runner: Optional[RunnerConfig] = None,
                     scheduler: str = DEFAULT_SCHEDULER) -> Sec2Result:
    machines = list(machines) if machines else paper_qrf_machines()
    grid = Grid(loops)
    for m in machines:
        grid.add((m.name, "base"), m,
                 dict(copies=False, allocate=False, scheduler=scheduler))
        grid.add((m.name, "copies"), m,
                 dict(copies=True, allocate=False, scheduler=scheduler))
    results = grid.run(runner)
    same_ii: dict[str, float] = {}
    same_sc: dict[str, float] = {}
    plus1: dict[str, float] = {}
    mean_copies: dict[str, float] = {}
    for m in machines:
        flags_ii, flags_sc, increments, copies = [], [], [], []
        for base, with_c in zip(results[m.name, "base"],
                                results[m.name, "copies"]):
            if base.outcome.failed or with_c.outcome.failed:
                continue
            flags_ii.append(with_c.outcome.ii == base.outcome.ii)
            flags_sc.append(
                with_c.outcome.stage_count == base.outcome.stage_count)
            if with_c.outcome.ii != base.outcome.ii:
                increments.append(
                    with_c.outcome.ii - base.outcome.ii == 1)
            copies.append(with_c.outcome.n_copies)
        same_ii[m.name] = fraction(flags_ii)
        same_sc[m.name] = fraction(flags_sc)
        plus1[m.name] = fraction(increments)
        mean_copies[m.name] = mean(copies)
    return Sec2Result(same_ii=same_ii, same_sc=same_sc,
                      ii_increase_by_1=plus1, mean_copies=mean_copies)


# ---------------------------------------------------------------------------
# E3/E4 -- Fig. 4: II speedup from unrolling (+ queue growth)
# ---------------------------------------------------------------------------

@dataclass
class Fig4Result:
    speedup_gt1: dict[str, float]
    mean_speedup: dict[str, float]
    queues_le_32: dict[str, float]      # with unrolling (Section 3 text)
    same_sc: dict[str, float]
    speedups: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Fig. 4 -- II speedup from loop unrolling", "",
                 "machine".ljust(14)
                 + "spd>1    mean-spd  <=32-queues  same-SC"]
        for name in self.speedup_gt1:
            lines.append(
                name.ljust(14)
                + f"{self.speedup_gt1[name]*100:5.1f}%   "
                + f"{self.mean_speedup[name]:7.2f}  "
                + f"{self.queues_le_32[name]*100:9.1f}%  "
                + f"{self.same_sc[name]*100:6.1f}%")
        return "\n".join(lines)


def fig4_unroll_speedup(loops: Sequence[Ddg],
                        machines: Optional[Sequence[Machine]] = None,
                        *, runner: Optional[RunnerConfig] = None,
                        scheduler: str = DEFAULT_SCHEDULER) -> Fig4Result:
    machines = list(machines) if machines else paper_qrf_machines()
    grid = Grid(loops)
    for m in machines:
        grid.add((m.name, "rolled"), m,
                 dict(copies=True, allocate=False, scheduler=scheduler))
        grid.add((m.name, "unrolled"), m,
                 dict(do_unroll=True, copies=True, allocate=True,
                      scheduler=scheduler))
    results = grid.run(runner)
    gt1: dict[str, float] = {}
    mean_spd: dict[str, float] = {}
    q32: dict[str, float] = {}
    same_sc: dict[str, float] = {}
    all_speedups: dict[str, list[float]] = {}
    for m in machines:
        speedups, fits, sc_flags = [], [], []
        for base, unrolled in zip(results[m.name, "rolled"],
                                  results[m.name, "unrolled"]):
            if base.outcome.failed or unrolled.outcome.failed:
                continue
            speedups.append(base.outcome.ii
                            / unrolled.outcome.ii_per_iteration)
            fits.append((unrolled.outcome.total_queues or 0) <= 32)
            sc_flags.append(unrolled.outcome.stage_count
                            <= base.outcome.stage_count)
        gt1[m.name] = fraction(s > 1.0 + 1e-9 for s in speedups)
        mean_spd[m.name] = mean(speedups)
        q32[m.name] = fraction(fits)
        same_sc[m.name] = fraction(sc_flags)
        all_speedups[m.name] = speedups
    return Fig4Result(speedup_gt1=gt1, mean_speedup=mean_spd,
                      queues_le_32=q32, same_sc=same_sc,
                      speedups=all_speedups)


# ---------------------------------------------------------------------------
# E5 -- Fig. 6: II variation of clustered vs single-cluster machines
# ---------------------------------------------------------------------------

@dataclass
class Fig6Result:
    same_ii: dict[int, float]           # n_clusters -> fraction
    increase_by_1: dict[int, float]     # among changed loops
    mean_increase: dict[int, float]
    n_scheduled: dict[int, int]

    def render(self) -> str:
        lines = ["Fig. 6 -- loops keeping the single-cluster II", "",
                 "clusters  FUs   same-II   +1-of-changed  mean-increase"]
        for n, f in self.same_ii.items():
            lines.append(
                f"{n:8d}  {3*n:3d}   {f*100:6.1f}%   "
                f"{self.increase_by_1[n]*100:10.1f}%   "
                f"{self.mean_increase[n]:8.2f}")
        return "\n".join(lines)


def fig6_ii_variation(loops: Sequence[Ddg],
                      cluster_counts: Sequence[int] = PAPER_CLUSTER_COUNTS,
                      *, do_unroll: bool = True,
                      partitioner: str = DEFAULT_PARTITIONER,
                      use_moves: bool = False,
                      runner: Optional[RunnerConfig] = None,
                      scheduler: str = DEFAULT_SCHEDULER) -> Fig6Result:
    pairs = _ring_vs_flat(
        loops, {n: clustered_machine(n) for n in cluster_counts},
        do_unroll=do_unroll, partitioner=partitioner, use_moves=use_moves,
        runner=runner, scheduler=scheduler)
    same: dict[int, float] = {}
    plus1: dict[int, float] = {}
    mean_inc: dict[int, float] = {}
    counts: dict[int, int] = {}
    for n, ok in pairs.items():
        incs = [clust.outcome.ii - single.outcome.ii for single, clust in ok
                if clust.outcome.ii != single.outcome.ii]
        same[n] = fraction(clust.outcome.ii == single.outcome.ii
                           for single, clust in ok)
        plus1[n] = fraction(i == 1 for i in incs)
        mean_inc[n] = mean(incs)
        counts[n] = len(ok)
    return Fig6Result(same_ii=same, increase_by_1=plus1,
                      mean_increase=mean_inc, n_scheduled=counts)


# ---------------------------------------------------------------------------
# E6 -- Section 4 text / Fig. 7: per-cluster queue budget
# ---------------------------------------------------------------------------

@dataclass
class Sec4Result:
    fits_budget: dict[int, float]       # n_clusters -> fraction
    p95_private: dict[int, int]
    p95_ring: dict[int, int]
    max_private: dict[int, int]
    max_ring: dict[int, int]

    def render(self) -> str:
        lines = ["Section 4 / Fig. 7 -- per-cluster queue requirements "
                 "(budget: 8 private + 8 per ring direction)", "",
                 "clusters  fits-8/8/8   p95-priv  p95-ring  "
                 "max-priv  max-ring"]
        for n in self.fits_budget:
            lines.append(
                f"{n:8d}  {self.fits_budget[n]*100:9.1f}%   "
                f"{self.p95_private[n]:8d}  {self.p95_ring[n]:8d}  "
                f"{self.max_private[n]:8d}  {self.max_ring[n]:8d}")
        return "\n".join(lines)


def sec4_cluster_queues(loops: Sequence[Ddg],
                        cluster_counts: Sequence[int] = PAPER_CLUSTER_COUNTS,
                        *, do_unroll: bool = True,
                        partitioner: str = DEFAULT_PARTITIONER,
                        runner: Optional[RunnerConfig] = None,
                        scheduler: str = DEFAULT_SCHEDULER) -> Sec4Result:
    cms = {n: clustered_machine(n) for n in cluster_counts}
    grid = Grid(loops)
    for n, cm in cms.items():
        grid.add(n, cm, dict(do_unroll=do_unroll, copies=True,
                             allocate=True, partitioner=partitioner,
                             scheduler=scheduler),
                 extras=("queue_locations",))
    fits: dict[int, float] = {}
    p95_priv: dict[int, int] = {}
    p95_ring: dict[int, int] = {}
    max_priv: dict[int, int] = {}
    max_ring: dict[int, int] = {}
    for n, block in grid.run(runner).items():
        budget = cms[n].queue_budget
        flags, priv, ring = [], [], []
        for r in block:
            locations = r.extras.get("queue_locations")
            if r.outcome.failed or locations is None:
                continue
            flags.append(all(
                loc["n_queues"] <= (budget.private
                                    if loc["kind"] == "private"
                                    else budget.ring_out_cw)
                for loc in locations))
            for loc in locations:
                (priv if loc["kind"] == "private"
                 else ring).append(loc["n_queues"])
        fits[n] = fraction(flags)
        p95_priv[n] = int(percentile(priv, 95))
        p95_ring[n] = int(percentile(ring, 95))
        max_priv[n] = max(priv, default=0)
        max_ring[n] = max(ring, default=0)
    return Sec4Result(fits_budget=fits, p95_private=p95_priv,
                      p95_ring=p95_ring, max_private=max_priv,
                      max_ring=max_ring)


# ---------------------------------------------------------------------------
# E7/E8 -- Figs. 8-9: IPC sweep
# ---------------------------------------------------------------------------

@dataclass
class IpcSweepResult:
    title: str
    fus: tuple[int, ...]
    static_single: dict[int, float]
    dynamic_single: dict[int, float]
    static_clustered: dict[int, float]     # only at 12/15/18
    dynamic_clustered: dict[int, float]
    n_loops: dict[int, int]

    def render(self) -> str:
        lines = [self.title, "",
                 "FUs   static-S.Cluster  dynamic-S.Cluster  "
                 "static-Clustered  dynamic-Clustered  loops"]
        for n in self.fus:
            sc = self.static_clustered.get(n)
            dc = self.dynamic_clustered.get(n)
            lines.append(
                f"{n:3d}   {self.static_single[n]:15.2f}  "
                f"{self.dynamic_single[n]:16.2f}  "
                + (f"{sc:15.2f}  " if sc is not None else " " * 17)
                + (f"{dc:16.2f}  " if dc is not None else " " * 18)
                + f"{self.n_loops[n]:5d}")
        return "\n".join(lines)


def ipc_sweep(loops: Sequence[Ddg], *,
              fus: Sequence[int] = IPC_SWEEP_FUS,
              clustered_counts: Sequence[int] = PAPER_CLUSTER_COUNTS,
              resource_constrained_only: bool = False,
              do_unroll: bool = True,
              partitioner: str = DEFAULT_PARTITIONER,
              runner: Optional[RunnerConfig] = None,
              scheduler: str = DEFAULT_SCHEDULER,
              title: str = "Fig. 8 -- IPC, all loops") -> IpcSweepResult:
    """Shared driver of Figs. 8 and 9.

    ``resource_constrained_only`` filters, per FU point, the loops whose
    MII on that machine is resource-bound (Fig. 9's population).
    """
    clustered_by_fus = {3 * n: clustered_machine(n)
                        for n in clustered_counts}
    options = dict(do_unroll=do_unroll, copies=True, allocate=False,
                   partitioner=partitioner, scheduler=scheduler)
    grid = Grid(loops)
    for n_fus in fus:
        m = qrf_machine(n_fus)
        population = [l for l in loops if not resource_constrained_only
                      or mii_report(l, m).resource_constrained]
        grid.add(("single", n_fus), m, options, loops=population)
        if n_fus in clustered_by_fus:
            grid.add(("ring", n_fus), clustered_by_fus[n_fus], options,
                     loops=population)
    results = grid.run(runner)

    static_s: dict[int, float] = {}
    dynamic_s: dict[int, float] = {}
    static_c: dict[int, float] = {}
    dynamic_c: dict[int, float] = {}
    n_used: dict[int, int] = {}
    for n_fus in fus:
        outcomes = [r.outcome for r in results["single", n_fus]]
        static_s[n_fus] = weighted_static_ipc(outcomes)
        dynamic_s[n_fus] = weighted_dynamic_ipc(outcomes)
        n_used[n_fus] = len([o for o in outcomes if not o.failed])
        if ("ring", n_fus) in results:
            c_outcomes = [r.outcome for r in results["ring", n_fus]]
            static_c[n_fus] = weighted_static_ipc(c_outcomes)
            dynamic_c[n_fus] = weighted_dynamic_ipc(c_outcomes)

    return IpcSweepResult(
        title=title, fus=tuple(fus),
        static_single=static_s, dynamic_single=dynamic_s,
        static_clustered=static_c, dynamic_clustered=dynamic_c,
        n_loops=n_used)


def fig8_ipc(loops: Sequence[Ddg], **kwargs) -> IpcSweepResult:
    kwargs.setdefault("title", "Fig. 8 -- IPC, all loops")
    return ipc_sweep(loops, resource_constrained_only=False, **kwargs)


def fig9_ipc_rc(loops: Sequence[Ddg], **kwargs) -> IpcSweepResult:
    kwargs.setdefault("title", "Fig. 9 -- IPC, resource-constrained loops")
    return ipc_sweep(loops, resource_constrained_only=True, **kwargs)


# ---------------------------------------------------------------------------
# A1 -- ablation: copy fan-out tree strategy
# ---------------------------------------------------------------------------

@dataclass
class CopyTreeAblation:
    #: strategy -> (same-II fraction vs no-copy baseline, mean max depth)
    same_ii: dict[str, float]
    mean_ii: dict[str, float]
    mean_queues: dict[str, float]

    def render(self) -> str:
        lines = ["Ablation A1 -- copy fan-out tree strategy", "",
                 "strategy   same-II    mean-II   mean-queues"]
        for s in self.same_ii:
            lines.append(f"{s:<9}  {self.same_ii[s]*100:6.1f}%  "
                         f"{self.mean_ii[s]:8.2f}  "
                         f"{self.mean_queues[s]:10.2f}")
        return "\n".join(lines)


def ablation_copy_tree(loops: Sequence[Ddg],
                       machine: Optional[Machine] = None,
                       strategies: Sequence[str] = ("chain", "balanced",
                                                    "slack"),
                       *, runner: Optional[RunnerConfig] = None,
                       scheduler: str = DEFAULT_SCHEDULER) -> CopyTreeAblation:
    m = machine or qrf_machine(12)
    base = Grid(loops)
    base.add("no-copies", m,
             dict(copies=False, allocate=False, scheduler=scheduler))
    baselines: dict[str, int] = {
        ddg.name: r.outcome.ii
        for ddg, r in zip(loops, base.run(runner)["no-copies"])
        if not r.outcome.failed}
    ok_loops = [ddg for ddg in loops if ddg.name in baselines]
    grid = Grid(ok_loops)
    for strat in strategies:
        grid.add(strat, m, dict(copies=True, copy_strategy=strat,
                                allocate=True, scheduler=scheduler))
    same: dict[str, float] = {}
    mean_ii: dict[str, float] = {}
    mean_q: dict[str, float] = {}
    for strat, block in grid.run(runner).items():
        flags, iis, queues = [], [], []
        for ddg, r in zip(ok_loops, block):
            if r.outcome.failed:
                continue
            flags.append(r.outcome.ii == baselines[ddg.name])
            iis.append(r.outcome.ii)
            queues.append(r.outcome.total_queues or 0)
        same[strat] = fraction(flags)
        mean_ii[strat] = mean(iis)
        mean_q[strat] = mean(queues)
    return CopyTreeAblation(same_ii=same, mean_ii=mean_ii,
                            mean_queues=mean_q)


# ---------------------------------------------------------------------------
# A2 -- ablation: cluster-choice strategy
# ---------------------------------------------------------------------------

@dataclass
class PartitionAblation:
    same_ii: dict[str, float]   # strategy -> fraction keeping flat II

    def render(self) -> str:
        lines = ["Ablation A2 -- partition heuristic "
                 "(fraction keeping single-cluster II)", "",
                 "engine          same-II"]
        for s, f in self.same_ii.items():
            lines.append(f"{s:<14}  {f*100:6.1f}%")
        return "\n".join(lines)


def ablation_partition(loops: Sequence[Ddg], n_clusters: int = 5,
                       strategies: Optional[Sequence[str]] = None,
                       *, runner: Optional[RunnerConfig] = None,
                       scheduler: str = DEFAULT_SCHEDULER) -> PartitionAblation:
    """A2: Fig. 6's same-II fraction per registered partitioning engine
    (default: every engine in the registry, default engine first)."""
    same: dict[str, float] = {}
    for engine in strategies or _registered_partitioners():
        res = fig6_ii_variation(loops, cluster_counts=(n_clusters,),
                                partitioner=engine, runner=runner,
                                scheduler=scheduler)
        same[engine] = res.same_ii[n_clusters]
    return PartitionAblation(same_ii=same)


# ---------------------------------------------------------------------------
# A3 -- ablation: MOVE ops between non-adjacent clusters (future work)
# ---------------------------------------------------------------------------

@dataclass
class MovesAblation:
    without_moves: dict[int, float]   # n_clusters -> same-II fraction
    with_moves: dict[int, float]

    def render(self) -> str:
        lines = ["Ablation A3 -- explicit MOVE ops "
                 "(fraction keeping single-cluster II)", "",
                 "clusters   ring-only   with-moves"]
        for n in self.without_moves:
            lines.append(f"{n:8d}   {self.without_moves[n]*100:7.1f}%   "
                         f"{self.with_moves[n]*100:8.1f}%")
        return "\n".join(lines)


def ablation_moves(loops: Sequence[Ddg],
                   cluster_counts: Sequence[int] = (5, 6),
                   *, partitioner: str = DEFAULT_PARTITIONER,
                   runner: Optional[RunnerConfig] = None,
                   scheduler: str = DEFAULT_SCHEDULER) -> MovesAblation:
    base = fig6_ii_variation(loops, cluster_counts=cluster_counts,
                             partitioner=partitioner,
                             runner=runner, scheduler=scheduler)
    moved = fig6_ii_variation(loops, cluster_counts=cluster_counts,
                              partitioner=partitioner,
                              use_moves=True, runner=runner,
                              scheduler=scheduler)
    return MovesAblation(without_moves=base.same_ii,
                         with_moves=moved.same_ii)


# ---------------------------------------------------------------------------
# S1 -- supplementary: register pressure, QRF vs conventional RF
# ---------------------------------------------------------------------------

@dataclass
class RegisterPressureResult:
    """Per-machine storage requirements of the corpus under the two
    register-file organisations the paper compares in its introduction.

    For each loop scheduled on the same machine width: queues needed by
    the QRF scheme (copy ops inserted) versus the conventional-RF MaxLive,
    rotating-file and modulo-variable-expansion register counts (no copy
    ops needed -- a CRF supports multi-read values natively).
    """

    mean_queues: dict[str, float]
    mean_max_live: dict[str, float]
    mean_rotating: dict[str, float]
    mean_mve_regs: dict[str, float]
    p95_queues: dict[str, int]
    p95_mve_regs: dict[str, int]
    mean_mve_unroll: dict[str, float]

    def render(self) -> str:
        lines = ["S1 -- register pressure: queue file vs conventional RF",
                 "",
                 "machine       queues(mean/p95)  MaxLive  rotating  "
                 "MVE-regs(mean/p95)  MVE-kernel-copies"]
        for name in self.mean_queues:
            lines.append(
                name.ljust(14)
                + f"{self.mean_queues[name]:6.1f}/{self.p95_queues[name]:<4d}"
                + f"     {self.mean_max_live[name]:7.1f}"
                + f"  {self.mean_rotating[name]:8.1f}"
                + f"  {self.mean_mve_regs[name]:8.1f}/"
                  f"{self.p95_mve_regs[name]:<4d}"
                + f"      {self.mean_mve_unroll[name]:6.2f}")
        return "\n".join(lines)


def register_pressure(loops: Sequence[Ddg],
                      machines: Optional[Sequence[Machine]] = None,
                      *, runner: Optional[RunnerConfig] = None,
                      scheduler: str = DEFAULT_SCHEDULER) -> RegisterPressureResult:
    """Experiment S1: storage demand of QRF vs CRF on the same loops."""
    from repro.machine.machine import RfKind, make_machine

    machines = list(machines) if machines else paper_qrf_machines()
    grid = Grid(loops)
    for m in machines:
        grid.add((m.name, "qrf"), m,
                 dict(copies=True, allocate=True, scheduler=scheduler))
        grid.add((m.name, "crf"),
                 make_machine(m.n_fus, rf_kind=RfKind.CONVENTIONAL),
                 dict(copies=False, allocate=False, scheduler=scheduler),
                 extras=("crf_registers",))
    results = grid.run(runner)

    mean_q: dict[str, float] = {}
    mean_ml: dict[str, float] = {}
    mean_rot: dict[str, float] = {}
    mean_mve: dict[str, float] = {}
    p95_q: dict[str, int] = {}
    p95_mve: dict[str, int] = {}
    mean_unroll: dict[str, float] = {}
    for m in machines:
        queues, maxlive, rot, mve_regs, mve_unr = [], [], [], [], []
        for q_side, c_side in zip(results[m.name, "qrf"],
                                  results[m.name, "crf"]):
            regs = c_side.extras.get("crf_registers")
            if q_side.outcome.failed or c_side.outcome.failed or not regs:
                continue
            queues.append(q_side.outcome.total_queues)
            maxlive.append(regs["max_live"])
            rot.append(regs["rotating"])
            mve_regs.append(regs["mve_regs"])
            mve_unr.append(regs["mve_unroll"])
        mean_q[m.name] = mean(queues)
        mean_ml[m.name] = mean(maxlive)
        mean_rot[m.name] = mean(rot)
        mean_mve[m.name] = mean(mve_regs)
        p95_q[m.name] = int(percentile(queues, 95))
        p95_mve[m.name] = int(percentile(mve_regs, 95))
        mean_unroll[m.name] = mean(mve_unr)
    return RegisterPressureResult(
        mean_queues=mean_q, mean_max_live=mean_ml, mean_rotating=mean_rot,
        mean_mve_regs=mean_mve, p95_queues=p95_q, p95_mve_regs=p95_mve,
        mean_mve_unroll=mean_unroll)


# ---------------------------------------------------------------------------
# E6b -- spills under the Fig. 7 hardware budget
# ---------------------------------------------------------------------------

@dataclass
class SpillBudgetResult:
    """How much spill code finite queue files actually cost."""

    #: (private queues, positions) -> fraction of loops with zero spills
    no_spill_fraction: dict[tuple[int, int], float]
    #: (private queues, positions) -> mean spilled lifetimes per loop
    mean_spills: dict[tuple[int, int], float]

    def render(self) -> str:
        lines = ["E6b -- spill code under finite queue files "
                 "(single-cluster 12-FU machine)", "",
                 "queues  positions   spill-free   mean-spills/loop"]
        for (q, p), frac in self.no_spill_fraction.items():
            lines.append(f"{q:6d}  {p:9d}   {frac*100:9.1f}%   "
                         f"{self.mean_spills[(q, p)]:10.2f}")
        return "\n".join(lines)


def spill_budget(loops: Sequence[Ddg],
                 budgets: Sequence[tuple[int, int]] = ((4, 8), (8, 8),
                                                       (8, 16), (16, 16),
                                                       (32, 16)),
                 machine: Optional[Machine] = None,
                 *, runner: Optional[RunnerConfig] = None,
                 scheduler: str = DEFAULT_SCHEDULER) -> SpillBudgetResult:
    """Experiment E6b: quantify the paper's "spill code will occasionally
    be required" across hardware budgets (queues x positions)."""
    spec = spill_spec(budgets)
    grid = Grid(loops)
    grid.add("spills", machine or qrf_machine(12),
             dict(copies=True, allocate=False, scheduler=scheduler),
             extras=(spec,))
    reports = [r.extras.get(spec) for r in grid.run(runner)["spills"]
               if not r.outcome.failed and r.extras.get(spec)]
    frac: dict[tuple[int, int], float] = {}
    spills: dict[tuple[int, int], float] = {}
    for q, p in budgets:
        cell = f"{q}x{p}"
        frac[(q, p)] = fraction(rep[cell]["fits"] for rep in reports)
        spills[(q, p)] = mean(rep[cell]["n_spilled"] for rep in reports)
    return SpillBudgetResult(no_spill_fraction=frac, mean_spills=spills)


# ---------------------------------------------------------------------------
# A4 -- sensitivity: inter-cluster communication latency
# ---------------------------------------------------------------------------

@dataclass
class RingLatencyResult:
    """Fig. 6's same-II fraction as a function of the extra cycles a
    value needs to cross to an adjacent cluster (the paper assumes 0)."""

    #: latency -> {n_clusters: fraction same II}
    same_ii: dict[int, dict[int, float]]

    def render(self) -> str:
        lines = ["A4 -- same-II fraction vs inter-cluster latency", "",
                 "xlat   " + "  ".join(f"{n}-clusters"
                                       for n in
                                       sorted(next(iter(
                                           self.same_ii.values()))))]
        for xlat, row in self.same_ii.items():
            lines.append(f"{xlat:4d}   " + "  ".join(
                f"{row[n]*100:9.1f}%" for n in sorted(row)))
        return "\n".join(lines)


def ring_latency_sensitivity(loops: Sequence[Ddg],
                             latencies: Sequence[int] = (0, 1, 2),
                             cluster_counts: Sequence[int] = (4, 6),
                             *, partitioner: str = DEFAULT_PARTITIONER,
                             runner: Optional[RunnerConfig] = None,
                             scheduler: str = DEFAULT_SCHEDULER) -> RingLatencyResult:
    """Experiment A4: how sensitive is the partitioning result to the
    ring-queue forwarding latency?"""
    from repro.machine.cluster import make_clustered

    pairs = _ring_vs_flat(
        loops, {(xlat, n): make_clustered(n, inter_cluster_latency=xlat)
                for xlat in latencies for n in cluster_counts},
        do_unroll=True, partitioner=partitioner, use_moves=False,
        runner=runner, scheduler=scheduler)
    out: dict[int, dict[int, float]] = {}
    for (xlat, n), ok in pairs.items():
        out.setdefault(xlat, {})[n] = fraction(
            clust.outcome.ii == single.outcome.ii for single, clust in ok)
    return RingLatencyResult(same_ii=out)


# ---------------------------------------------------------------------------
# S2 -- supplementary: register-file hardware cost
# ---------------------------------------------------------------------------

@dataclass
class HardwareCostResult:
    """Area/delay comparison of RF organisations at equal machine width,
    with register counts taken from measured corpus demand (p95 rotating
    requirement) rather than guessed."""

    registers_used: dict[int, int]        # n_fus -> register count
    rows: dict[int, list]                 # n_fus -> [RfCost, ...]

    def render(self) -> str:
        lines = ["S2 -- register-file complexity "
                 "(area model: cells x ports^2; delay: 1 + 0.1/port)", ""]
        for n_fus, costs in self.rows.items():
            lines.append(f"{n_fus} FUs (corpus p95 register demand: "
                         f"{self.registers_used[n_fus]}):")
            for cost in costs:
                lines.append("  " + cost.render())
        return "\n".join(lines)


def hardware_cost(loops: Sequence[Ddg],
                  fu_sizes: Sequence[int] = (6, 12, 18),
                  *, runner: Optional[RunnerConfig] = None,
                  scheduler: str = DEFAULT_SCHEDULER) -> HardwareCostResult:
    """Experiment S2: the paper's 36-port argument, quantified.

    For each width: measure the corpus's p95 rotating-register demand on
    the conventional machine, then price a monolithic RF of that size
    against the flat and clustered QRF banks of the Fig. 7 budget.
    """
    from repro.machine.cost import cost_comparison
    from repro.machine.cluster import make_clustered
    from repro.machine.machine import RfKind, make_machine

    crfs = {n_fus: make_machine(n_fus, rf_kind=RfKind.CONVENTIONAL)
            for n_fus in fu_sizes}
    grid = Grid(loops)
    for n_fus, crf in crfs.items():
        grid.add(n_fus, crf,
                 dict(copies=False, allocate=False, scheduler=scheduler),
                 extras=("crf_registers",))
    registers_used: dict[int, int] = {}
    rows: dict[int, list] = {}
    for n_fus, block in grid.run(runner).items():
        demand = [r.extras["crf_registers"]["rotating"] for r in block
                  if not r.outcome.failed and r.extras.get("crf_registers")]
        registers = max(8, int(percentile(demand, 95)))
        cm = make_clustered(max(1, n_fus // 3))
        registers_used[n_fus] = registers
        rows[n_fus] = cost_comparison(crfs[n_fus], cm, registers)
    return HardwareCostResult(registers_used=registers_used, rows=rows)


# ---------------------------------------------------------------------------
# SC / PC -- every registered engine, head to head
# ---------------------------------------------------------------------------

def _search_effort(block: Sequence[JobResult]
                   ) -> tuple[int, int, float, float, float, float]:
    """(compiled, failed, II == MII rate, mean II - MII, mean placement
    attempts, mean evictions) of one engine's cell; the last two read the
    ``sched_stats`` extra."""
    ok = [r for r in block if not r.outcome.failed]
    stats = [r.extras["sched_stats"] for r in ok
             if r.extras.get("sched_stats")]
    return (len(ok), len(block) - len(ok),
            fraction(r.outcome.ii == r.outcome.mii for r in ok),
            mean(r.outcome.ii - r.outcome.mii for r in ok),
            mean(s["attempts"] for s in stats),
            mean(s["evictions"] for s in stats))


@dataclass
class SchedulerCompareResult:
    """Head-to-head quality/effort comparison of scheduling engines.

    Every metric is keyed by ``(machine name, scheduler name)``.
    ``mii_match`` compares each engine against the *first* scheduler in
    ``schedulers`` (the baseline, normally ``"ims"``): among the loops
    where the baseline achieved II == MII, the fraction this engine
    achieved it too -- the headline "SMS loses (almost) nothing"
    statistic.
    """

    schedulers: tuple[str, ...]
    machines: tuple[str, ...]
    n_ok: dict[tuple[str, str], int]
    n_failed: dict[tuple[str, str], int]
    mii_rate: dict[tuple[str, str], float]       # fraction II == MII
    mean_ii_excess: dict[tuple[str, str], float]  # mean (II - MII)
    static_ipc: dict[tuple[str, str], float]
    dynamic_ipc: dict[tuple[str, str], float]
    mean_queues: dict[tuple[str, str], float]
    mean_max_live: dict[tuple[str, str], float]
    mean_attempts: dict[tuple[str, str], float]
    mean_evictions: dict[tuple[str, str], float]
    mii_match: dict[tuple[str, str], float]

    def render(self) -> str:
        lines = ["SC -- scheduler comparison "
                 f"(baseline: {self.schedulers[0]})", "",
                 "machine       engine  sched  II=MII  mean-II-MII  "
                 "IPC-dyn  queues  MaxLive  attempts  evicted  "
                 "vs-baseline"]
        for m in self.machines:
            for s in self.schedulers:
                key = (m, s)
                lines.append(
                    m.ljust(14)
                    + f"{s:<6}  {self.n_ok[key]:5d}  "
                    + f"{self.mii_rate[key]*100:5.1f}%  "
                    + f"{self.mean_ii_excess[key]:11.2f}  "
                    + f"{self.dynamic_ipc[key]:7.2f}  "
                    + f"{self.mean_queues[key]:6.1f}  "
                    + f"{self.mean_max_live[key]:7.1f}  "
                    + f"{self.mean_attempts[key]:8.1f}  "
                    + f"{self.mean_evictions[key]:7.1f}  "
                    + f"{self.mii_match[key]*100:10.1f}%")
        return "\n".join(lines)


def exp_scheduler_compare(loops: Sequence[Ddg],
                          machines: Optional[Sequence[Machine]] = None,
                          schedulers: Optional[Sequence[str]] = None,
                          *, runner: Optional[RunnerConfig] = None
                          ) -> SchedulerCompareResult:
    """Experiment SC: sweep every engine over loops x machine presets.

    Reports, per (machine, engine): II-vs-MII quality, execution-weighted
    dynamic IPC, queue and conventional-register demand, and the engine's
    search effort (placement attempts, evictions).  Defaults: the paper's
    4/6/12-FU QRF presets and every registered engine, with the default
    engine pinned first so it stays the ``mii_match`` baseline no matter
    what else registers.
    """
    from repro.sched.strategies import available_schedulers

    machines = list(machines) if machines else paper_qrf_machines()
    engines = (tuple(schedulers) if schedulers
               else _pinned_first(available_schedulers(),
                                  DEFAULT_SCHEDULER))
    grid = Grid(loops)
    for m in machines:
        for s in engines:
            grid.add((m.name, s), m, dict(
                copies=True, allocate=True, scheduler=s,
                extras=("sched_stats", "crf_registers")))
    results = grid.run(runner)

    n_ok: dict[tuple[str, str], int] = {}
    n_failed: dict[tuple[str, str], int] = {}
    mii_rate: dict[tuple[str, str], float] = {}
    mean_excess: dict[tuple[str, str], float] = {}
    static: dict[tuple[str, str], float] = {}
    dynamic: dict[tuple[str, str], float] = {}
    mean_q: dict[tuple[str, str], float] = {}
    mean_ml: dict[tuple[str, str], float] = {}
    mean_att: dict[tuple[str, str], float] = {}
    mean_evi: dict[tuple[str, str], float] = {}
    mii_match: dict[tuple[str, str], float] = {}
    for m in machines:
        base_hit = {ddg.name for ddg, r in zip(loops,
                                               results[m.name, engines[0]])
                    if not r.outcome.failed
                    and r.outcome.ii == r.outcome.mii}
        for s in engines:
            key = (m.name, s)
            block = results[key]
            (n_ok[key], n_failed[key], mii_rate[key], mean_excess[key],
             mean_att[key], mean_evi[key]) = _search_effort(block)
            ok = [r for r in block if not r.outcome.failed]
            outcomes = [r.outcome for r in block]
            static[key] = weighted_static_ipc(outcomes)
            dynamic[key] = weighted_dynamic_ipc(outcomes)
            mean_q[key] = mean(r.outcome.total_queues or 0 for r in ok)
            mean_ml[key] = mean(
                r.extras["crf_registers"]["max_live"] for r in ok
                if r.extras.get("crf_registers"))
            # denominator: every loop the baseline hit; an engine that
            # fails outright on one of them counts as a non-match
            matched = [not r.outcome.failed
                       and r.outcome.ii == r.outcome.mii
                       for ddg, r in zip(loops, block)
                       if ddg.name in base_hit]
            mii_match[key] = fraction(matched)
    return SchedulerCompareResult(
        schedulers=engines,
        machines=tuple(m.name for m in machines),
        n_ok=n_ok, n_failed=n_failed, mii_rate=mii_rate,
        mean_ii_excess=mean_excess, static_ipc=static,
        dynamic_ipc=dynamic, mean_queues=mean_q, mean_max_live=mean_ml,
        mean_attempts=mean_att, mean_evictions=mean_evi,
        mii_match=mii_match)


@dataclass
class PartitionerCompareResult:
    """Head-to-head quality/effort comparison of partitioning engines.

    Every metric is keyed by ``(n_clusters, partitioner name)``:
    II-versus-MII quality on the clustered machine, the engine's search
    effort (placement attempts and evictions -- the quantity the
    partitioned search's backtracking burns), and the spatial quality of
    the assignment (values crossing the ring, peak per-cluster MaxLive).
    """

    partitioners: tuple[str, ...]
    cluster_counts: tuple[int, ...]
    n_ok: dict[tuple[int, str], int]
    n_failed: dict[tuple[int, str], int]
    mii_rate: dict[tuple[int, str], float]        # fraction II == MII
    mean_ii_excess: dict[tuple[int, str], float]  # mean (II - MII)
    mean_attempts: dict[tuple[int, str], float]
    mean_evictions: dict[tuple[int, str], float]
    mean_inter_cluster: dict[tuple[int, str], float]  # ring-crossing values
    mean_cluster_live: dict[tuple[int, str], float]   # peak per-cluster MaxLive

    def render(self) -> str:
        lines = ["PC -- partitioner comparison "
                 f"(baseline: {self.partitioners[0]})", "",
                 "clusters  engine         sched  II=MII  mean-II-MII  "
                 "attempts  evicted  ring-copies  cluster-MaxLive"]
        for n in self.cluster_counts:
            for p in self.partitioners:
                key = (n, p)
                lines.append(
                    f"{n:8d}  {p:<13}  {self.n_ok[key]:5d}  "
                    + f"{self.mii_rate[key]*100:5.1f}%  "
                    + f"{self.mean_ii_excess[key]:11.2f}  "
                    + f"{self.mean_attempts[key]:8.1f}  "
                    + f"{self.mean_evictions[key]:7.1f}  "
                    + f"{self.mean_inter_cluster[key]:11.2f}  "
                    + f"{self.mean_cluster_live[key]:15.2f}")
        return "\n".join(lines)


def exp_partitioner_compare(loops: Sequence[Ddg],
                            cluster_counts: Sequence[int] = PAPER_CLUSTER_COUNTS,
                            partitioners: Optional[Sequence[str]] = None,
                            *, runner: Optional[RunnerConfig] = None,
                            scheduler: str = DEFAULT_SCHEDULER
                            ) -> PartitionerCompareResult:
    """Experiment PC: sweep every partitioning engine over loops x rings.

    Reports, per (cluster count, engine): II-vs-MII quality, the search
    effort (placement attempts, evictions), the number of values that
    cross between clusters, and the peak per-cluster MaxLive -- the
    spatial-balance numbers that distinguish a good pre-assignment from a
    lucky greedy run.  Defaults: the paper's 4/5/6-cluster rings and
    every registered engine, default engine pinned first.
    """
    engines = (tuple(partitioners) if partitioners
               else _registered_partitioners())
    grid = Grid(loops)
    for n in cluster_counts:
        cm = clustered_machine(n)
        for p in engines:
            grid.add((n, p), cm, dict(
                copies=True, allocate=False, partitioner=p,
                scheduler=scheduler,
                extras=("sched_stats", "cluster_stats")))

    n_ok: dict[tuple[int, str], int] = {}
    n_failed: dict[tuple[int, str], int] = {}
    mii_rate: dict[tuple[int, str], float] = {}
    mean_excess: dict[tuple[int, str], float] = {}
    mean_att: dict[tuple[int, str], float] = {}
    mean_evi: dict[tuple[int, str], float] = {}
    mean_inter: dict[tuple[int, str], float] = {}
    mean_live: dict[tuple[int, str], float] = {}
    for key, block in grid.run(runner).items():
        (n_ok[key], n_failed[key], mii_rate[key], mean_excess[key],
         mean_att[key], mean_evi[key]) = _search_effort(block)
        stats = [r.extras["cluster_stats"] for r in block
                 if not r.outcome.failed and r.extras.get("cluster_stats")]
        mean_inter[key] = mean(s["inter_cluster_edges"] for s in stats)
        mean_live[key] = mean(s["max_cluster_live"] for s in stats)
    return PartitionerCompareResult(
        partitioners=engines, cluster_counts=tuple(cluster_counts),
        n_ok=n_ok, n_failed=n_failed, mii_rate=mii_rate,
        mean_ii_excess=mean_excess, mean_attempts=mean_att,
        mean_evictions=mean_evi, mean_inter_cluster=mean_inter,
        mean_cluster_live=mean_live)


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One experiment: what it reproduces and how to run it."""

    description: str
    driver: Callable[..., Any]
    #: the engine knobs (``"scheduler"``, ``"partitioner"``) the driver
    #: takes; the head-to-head comparisons sweep the others themselves
    engines: tuple[str, ...] = ("scheduler",)

    def run(self, loops: Sequence[Ddg],
            runner: Optional[RunnerConfig] = None, *,
            scheduler: str = DEFAULT_SCHEDULER,
            partitioner: str = DEFAULT_PARTITIONER) -> Any:
        """The driver's result on *loops* under the chosen engines."""
        chosen = {"scheduler": scheduler, "partitioner": partitioner}
        return self.driver(loops, runner=runner,
                           **{knob: chosen[knob] for knob in self.engines})


_BOTH = ("scheduler", "partitioner")

#: experiment id -> :class:`Experiment`, in the order ``experiment
#: --list`` prints them.
EXPERIMENTS: dict[str, Experiment] = {
    "fig3": Experiment("Fig. 3: loops schedulable within N queues",
                       fig3_queue_requirements),
    "sec2": Experiment("Section 2: copy-insertion impact on II / stage "
                       "count", sec2_copy_impact),
    "fig4": Experiment("Fig. 4: II speedup from loop unrolling",
                       fig4_unroll_speedup),
    "fig6": Experiment("Fig. 6: clustered vs single-cluster II",
                       fig6_ii_variation, _BOTH),
    "sec4": Experiment("Section 4 / Fig. 7: per-cluster queue budgets",
                       sec4_cluster_queues, _BOTH),
    "fig8": Experiment("Fig. 8: IPC sweep, all loops", fig8_ipc, _BOTH),
    "fig9": Experiment("Fig. 9: IPC sweep, resource-constrained loops",
                       fig9_ipc_rc, _BOTH),
    "a1": Experiment("ablation: copy fan-out tree strategy",
                     ablation_copy_tree),
    "a2": Experiment("ablation: cluster-partition heuristic",
                     ablation_partition),
    "a3": Experiment("ablation: explicit inter-cluster MOVE ops",
                     ablation_moves, _BOTH),
    "a4": Experiment("sensitivity: inter-cluster ring latency",
                     ring_latency_sensitivity, _BOTH),
    "s1": Experiment("supplementary: register pressure, QRF vs "
                     "conventional RF", register_pressure),
    "s2": Experiment("supplementary: register-file hardware cost",
                     hardware_cost),
    "e6b": Experiment("spill code under finite queue files",
                      spill_budget),
    "sc": Experiment("scheduler comparison: all registered engines head "
                     "to head", exp_scheduler_compare, ()),
    "pc": Experiment("partitioner comparison: all registered engines "
                     "head to head", exp_partitioner_compare),
}
