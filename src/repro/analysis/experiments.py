"""Experiment drivers: one function per paper figure/table (+ ablations).

Every driver consumes a list of loop DDGs (the corpus or a subset), fills
a labelled :class:`~repro.runner.sweep.Grid` with one cell per (machine,
pipeline variant) point, runs it through :func:`repro.runner.run_jobs`
and aggregates the results -- looked up by label, aligned to the loop
list -- into a :class:`Table`: one row per machine (or cluster count,
engine, ...) whose cells are the numbers the paper plots, and whose
``render()`` reproduces the figure as an ASCII table.

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

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping, Optional, Sequence

from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import Machine
from repro.machine.presets import (IPC_SWEEP_FUS, PAPER_CLUSTER_COUNTS,
                                   clustered_machine, paper_qrf_machines,
                                   qrf_machine)
from repro.runner import JobResult, RunnerConfig, spill_spec
from repro.runner.sweep import Grid
from repro.sched.mii import mii_report
from repro.sched.partitioners import DEFAULT_PARTITIONER, PARTITIONERS
from repro.sched.strategies import DEFAULT_SCHEDULER, SCHEDULERS

from .metrics import (cumulative_within, fraction, mean, percentile,
                      weighted_dynamic_ipc, weighted_static_ipc)

__all__ = [
    "Table", "Experiment", "EXPERIMENTS",
    "fig3_queue_requirements", "sec2_copy_impact", "fig4_unroll_speedup",
    "fig6_ii_variation", "sec4_cluster_queues",
    "ipc_sweep", "fig8_ipc", "fig9_ipc_rc",
    "ablation_copy_tree", "ablation_partition", "ablation_moves",
    "register_pressure", "spill_budget", "ring_latency_sensitivity",
    "hardware_cost", "exp_scheduler_compare", "exp_partitioner_compare",
]


@dataclass(frozen=True)
class Table:
    """An experiment's result: its numbers, and the table they print as.

    ``rows`` maps each row's label (a machine name, a cluster count, a
    ``(machine, engine)`` pair, ...) to its cells, keyed by name.
    :meth:`render` prints the title, a blank line, the header line, and
    then per row its label formatted by the ``label`` template followed
    by each column's cell formatted by that column's template -- or, when
    the row has no such cell, blanks as wide as the template prints.
    Templates are :meth:`str.format` strings that carry their own
    separators; the header is one literal line, never derived from them.
    A cell no column names (Fig. 4's ``min_speedup``) is kept but not
    printed.
    """

    title: str
    header: str
    #: template of the row label; a tuple label's parts are ``{0[0]}``, ...
    label: str
    #: (cell key, template) per printed column, in order
    columns: tuple[tuple[Hashable, str], ...]
    rows: Mapping[Hashable, Mapping[Hashable, Any]]

    def column(self, key: Hashable) -> dict[Hashable, Any]:
        """Row label -> the row's *key* cell, for the rows that have one."""
        return {label: cells[key] for label, cells in self.rows.items()
                if key in cells}

    def render(self) -> str:
        lines = [self.title, "", self.header]
        for label, cells in self.rows.items():
            lines.append(self.label.format(label) + "".join(
                template.format(cells[key]) if key in cells
                else " " * len(template.format(0))
                for key, template in self.columns))
        return "\n".join(lines)


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

def fig3_queue_requirements(
        loops: Sequence[Ddg],
        machines: Optional[Sequence[Machine]] = None,
        buckets: tuple[int, ...] = (4, 8, 16, 32),
        *, runner: Optional[RunnerConfig] = None,
        scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Per machine, the fraction of loops needing at most N queues, in
    cells keyed by the bucket N."""
    grid = Grid(loops)
    for m in machines or paper_qrf_machines():
        grid.add(m.name, m,
                 dict(copies=True, allocate=True, scheduler=scheduler))
    return Table(
        "Fig. 3 -- loops schedulable within N queues "
        "(QRF, copy ops inserted)",
        "machine".ljust(14) + "".join(f"<={b:<5}" for b in buckets),
        "{:<14}", tuple((b, "{:6.1%} ") for b in buckets),
        {name: cumulative_within([r.outcome.total_queues for r in block
                                  if not r.outcome.failed], buckets)
         for name, block in grid.run(runner).items()})


# ---------------------------------------------------------------------------
# E2 -- Section 2 text: impact of copy insertion on II / stage count
# ---------------------------------------------------------------------------

def sec2_copy_impact(loops: Sequence[Ddg],
                     machines: Optional[Sequence[Machine]] = None,
                     *, runner: Optional[RunnerConfig] = None,
                     scheduler: str = DEFAULT_SCHEDULER) -> Table:
    machines = list(machines) if machines else paper_qrf_machines()
    grid = Grid(loops)
    for m in machines:
        grid.add((m.name, "base"), m,
                 dict(copies=False, allocate=False, scheduler=scheduler))
        grid.add((m.name, "copies"), m,
                 dict(copies=True, allocate=False, scheduler=scheduler))
    results = grid.run(runner)
    rows = {}
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
        rows[m.name] = {"same_ii": fraction(flags_ii),
                        "same_sc": fraction(flags_sc),
                        # among the loops whose II changed
                        "ii_increase_by_1": fraction(increments),
                        "mean_copies": mean(copies)}
    return Table(
        "Section 2 -- copy-operation impact",
        "machine       same-II  same-SC  +1-cycle-of-changed  copies/loop",
        "{:<14}", (("same_ii", "{:7.1%}  "), ("same_sc", "{:7.1%}  "),
                   ("ii_increase_by_1", "{:13.1%}        "),
                   ("mean_copies", "{:.1f}")), rows)


# ---------------------------------------------------------------------------
# E3/E4 -- Fig. 4: II speedup from unrolling (+ queue growth)
# ---------------------------------------------------------------------------

def fig4_unroll_speedup(loops: Sequence[Ddg],
                        machines: Optional[Sequence[Machine]] = None,
                        *, runner: Optional[RunnerConfig] = None,
                        scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Per machine: the unrolled loop's II speedup over the rolled one,
    and (Section 3 text) its queue demand; the unprinted ``min_speedup``
    cell is the smallest speedup of any loop."""
    machines = list(machines) if machines else paper_qrf_machines()
    grid = Grid(loops)
    for m in machines:
        grid.add((m.name, "rolled"), m,
                 dict(copies=True, allocate=False, scheduler=scheduler))
        grid.add((m.name, "unrolled"), m,
                 dict(do_unroll=True, copies=True, allocate=True,
                      scheduler=scheduler))
    results = grid.run(runner)
    rows = {}
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
        rows[m.name] = {
            "speedup_gt1": fraction(s > 1.0 + 1e-9 for s in speedups),
            "mean_speedup": mean(speedups),
            "queues_le_32": fraction(fits),
            "same_sc": fraction(sc_flags),
            "min_speedup": min(speedups, default=1.0)}
    return Table(
        "Fig. 4 -- II speedup from loop unrolling",
        "machine       spd>1    mean-spd  <=32-queues  same-SC",
        "{:<14}", (("speedup_gt1", "{:6.1%}   "),
                   ("mean_speedup", "{:7.2f}  "),
                   ("queues_le_32", "{:10.1%}  "),
                   ("same_sc", "{:7.1%}")), rows)


# ---------------------------------------------------------------------------
# E5 -- Fig. 6: II variation of clustered vs single-cluster machines
# ---------------------------------------------------------------------------

def fig6_ii_variation(loops: Sequence[Ddg],
                      cluster_counts: Sequence[int] = PAPER_CLUSTER_COUNTS,
                      *, do_unroll: bool = True,
                      partitioner: str = DEFAULT_PARTITIONER,
                      use_moves: bool = False,
                      runner: Optional[RunnerConfig] = None,
                      scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Per cluster count: the fraction of loops keeping the flattened
    machine's II, and how much the others grow."""
    pairs = _ring_vs_flat(
        loops, {n: clustered_machine(n) for n in cluster_counts},
        do_unroll=do_unroll, partitioner=partitioner, use_moves=use_moves,
        runner=runner, scheduler=scheduler)
    rows = {}
    for n, ok in pairs.items():
        incs = [clust.outcome.ii - single.outcome.ii for single, clust in ok
                if clust.outcome.ii != single.outcome.ii]
        rows[n] = {"fus": 3 * n,
                   "same_ii": fraction(clust.outcome.ii == single.outcome.ii
                                       for single, clust in ok),
                   # among the loops whose II changed
                   "increase_by_1": fraction(i == 1 for i in incs),
                   "mean_increase": mean(incs)}
    return Table(
        "Fig. 6 -- loops keeping the single-cluster II",
        "clusters  FUs   same-II   +1-of-changed  mean-increase",
        "{:8d}  ", (("fus", "{:3d}   "), ("same_ii", "{:7.1%}   "),
                    ("increase_by_1", "{:11.1%}   "),
                    ("mean_increase", "{:8.2f}")), rows)


# ---------------------------------------------------------------------------
# E6 -- Section 4 text / Fig. 7: per-cluster queue budget
# ---------------------------------------------------------------------------

def sec4_cluster_queues(loops: Sequence[Ddg],
                        cluster_counts: Sequence[int] = PAPER_CLUSTER_COUNTS,
                        *, do_unroll: bool = True,
                        partitioner: str = DEFAULT_PARTITIONER,
                        runner: Optional[RunnerConfig] = None,
                        scheduler: str = DEFAULT_SCHEDULER) -> Table:
    cms = {n: clustered_machine(n) for n in cluster_counts}
    grid = Grid(loops)
    for n, cm in cms.items():
        grid.add(n, cm, dict(do_unroll=do_unroll, copies=True,
                             allocate=True, partitioner=partitioner,
                             scheduler=scheduler),
                 extras=("queue_locations",))
    rows = {}
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
        rows[n] = {"fits_budget": fraction(flags),
                   "p95_private": int(percentile(priv, 95)),
                   "p95_ring": int(percentile(ring, 95)),
                   "max_private": max(priv, default=0),
                   "max_ring": max(ring, default=0)}
    return Table(
        "Section 4 / Fig. 7 -- per-cluster queue requirements "
        "(budget: 8 private + 8 per ring direction)",
        "clusters  fits-8/8/8   p95-priv  p95-ring  max-priv  max-ring",
        "{:8d}  ", (("fits_budget", "{:10.1%}   "),
                    ("p95_private", "{:8d}  "), ("p95_ring", "{:8d}  "),
                    ("max_private", "{:8d}  "), ("max_ring", "{:8d}")),
        rows)


# ---------------------------------------------------------------------------
# E7/E8 -- Figs. 8-9: IPC sweep
# ---------------------------------------------------------------------------

def ipc_sweep(loops: Sequence[Ddg], *,
              fus: Sequence[int] = IPC_SWEEP_FUS,
              clustered_counts: Sequence[int] = PAPER_CLUSTER_COUNTS,
              resource_constrained_only: bool = False,
              do_unroll: bool = True,
              partitioner: str = DEFAULT_PARTITIONER,
              runner: Optional[RunnerConfig] = None,
              scheduler: str = DEFAULT_SCHEDULER,
              title: str = "Fig. 8 -- IPC, all loops") -> Table:
    """Shared driver of Figs. 8 and 9.

    ``resource_constrained_only`` filters, per FU point, the loops whose
    MII on that machine is resource-bound (Fig. 9's population).  Only
    the FU counts of a ring in *clustered_counts* have clustered cells.
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
    rows = {}
    for n_fus in fus:
        single = [r.outcome for r in results["single", n_fus]]
        rows[n_fus] = cells = {
            "static_single": weighted_static_ipc(single),
            "dynamic_single": weighted_dynamic_ipc(single),
            "n_loops": sum(not o.failed for o in single)}
        if ("ring", n_fus) in results:
            ring = [r.outcome for r in results["ring", n_fus]]
            cells["static_clustered"] = weighted_static_ipc(ring)
            cells["dynamic_clustered"] = weighted_dynamic_ipc(ring)
    return Table(
        title,
        "FUs   static-S.Cluster  dynamic-S.Cluster  "
        "static-Clustered  dynamic-Clustered  loops",
        "{:3d}   ", (("static_single", "{:15.2f}  "),
                     ("dynamic_single", "{:16.2f}  "),
                     ("static_clustered", "{:15.2f}  "),
                     ("dynamic_clustered", "{:16.2f}  "),
                     ("n_loops", "{:5d}")), rows)


def fig8_ipc(loops: Sequence[Ddg], **kwargs) -> Table:
    kwargs.setdefault("title", "Fig. 8 -- IPC, all loops")
    return ipc_sweep(loops, resource_constrained_only=False, **kwargs)


def fig9_ipc_rc(loops: Sequence[Ddg], **kwargs) -> Table:
    kwargs.setdefault("title", "Fig. 9 -- IPC, resource-constrained loops")
    return ipc_sweep(loops, resource_constrained_only=True, **kwargs)


# ---------------------------------------------------------------------------
# A1 -- ablation: copy fan-out tree strategy
# ---------------------------------------------------------------------------

def ablation_copy_tree(loops: Sequence[Ddg],
                       machine: Optional[Machine] = None,
                       strategies: Sequence[str] = ("chain", "balanced",
                                                    "slack"),
                       *, runner: Optional[RunnerConfig] = None,
                       scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Per strategy: the fraction of loops keeping the no-copy II, and
    the mean II and queue count."""
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
    rows = {}
    for strat, block in grid.run(runner).items():
        flags, iis, queues = [], [], []
        for ddg, r in zip(ok_loops, block):
            if r.outcome.failed:
                continue
            flags.append(r.outcome.ii == baselines[ddg.name])
            iis.append(r.outcome.ii)
            queues.append(r.outcome.total_queues or 0)
        rows[strat] = {"same_ii": fraction(flags), "mean_ii": mean(iis),
                       "mean_queues": mean(queues)}
    return Table(
        "Ablation A1 -- copy fan-out tree strategy",
        "strategy   same-II    mean-II   mean-queues",
        "{:<9}  ", (("same_ii", "{:7.1%}  "), ("mean_ii", "{:8.2f}  "),
                    ("mean_queues", "{:10.2f}")), rows)


# ---------------------------------------------------------------------------
# A2 -- ablation: cluster-choice strategy
# ---------------------------------------------------------------------------

def ablation_partition(loops: Sequence[Ddg], n_clusters: int = 5,
                       strategies: Optional[Sequence[str]] = None,
                       *, runner: Optional[RunnerConfig] = None,
                       scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """A2: Fig. 6's same-II fraction per partitioning engine (default:
    every engine in ``PARTITIONERS``, in table order, default first)."""
    return Table(
        "Ablation A2 -- partition heuristic "
        "(fraction keeping single-cluster II)",
        "engine          same-II", "{:<14}  ", (("same_ii", "{:7.1%}"),),
        {engine: {"same_ii": fig6_ii_variation(
            loops, cluster_counts=(n_clusters,), partitioner=engine,
            runner=runner, scheduler=scheduler).rows[n_clusters]["same_ii"]}
         for engine in strategies or PARTITIONERS})


# ---------------------------------------------------------------------------
# A3 -- ablation: MOVE ops between non-adjacent clusters (future work)
# ---------------------------------------------------------------------------

def ablation_moves(loops: Sequence[Ddg],
                   cluster_counts: Sequence[int] = (5, 6),
                   *, partitioner: str = DEFAULT_PARTITIONER,
                   runner: Optional[RunnerConfig] = None,
                   scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Fig. 6's same-II fraction per cluster count, without and with
    explicit MOVE ops."""
    base, moved = (fig6_ii_variation(
        loops, cluster_counts=cluster_counts, partitioner=partitioner,
        use_moves=use_moves, runner=runner, scheduler=scheduler).rows
        for use_moves in (False, True))
    return Table(
        "Ablation A3 -- explicit MOVE ops "
        "(fraction keeping single-cluster II)",
        "clusters   ring-only   with-moves",
        "{:8d}   ", (("without_moves", "{:8.1%}   "),
                     ("with_moves", "{:9.1%}")),
        {n: {"without_moves": base[n]["same_ii"],
             "with_moves": moved[n]["same_ii"]} for n in base})


# ---------------------------------------------------------------------------
# S1 -- supplementary: register pressure, QRF vs conventional RF
# ---------------------------------------------------------------------------

def register_pressure(loops: Sequence[Ddg],
                      machines: Optional[Sequence[Machine]] = None,
                      *, runner: Optional[RunnerConfig] = None,
                      scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Experiment S1: storage demand of QRF vs CRF on the same loops.

    For each loop scheduled on the same machine width: queues needed by
    the QRF scheme (copy ops inserted) versus the conventional-RF MaxLive,
    rotating-file and modulo-variable-expansion register counts (no copy
    ops needed -- a CRF supports multi-read values natively).
    """
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
    rows = {}
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
        rows[m.name] = {"mean_queues": mean(queues),
                        "p95_queues": int(percentile(queues, 95)),
                        "mean_max_live": mean(maxlive),
                        "mean_rotating": mean(rot),
                        "mean_mve_regs": mean(mve_regs),
                        "p95_mve_regs": int(percentile(mve_regs, 95)),
                        "mean_mve_unroll": mean(mve_unr)}
    return Table(
        "S1 -- register pressure: queue file vs conventional RF",
        "machine       queues(mean/p95)  MaxLive  rotating  "
        "MVE-regs(mean/p95)  MVE-kernel-copies",
        "{:<14}", (("mean_queues", "{:6.1f}/"), ("p95_queues", "{:<4d}"),
                   ("mean_max_live", "     {:7.1f}"),
                   ("mean_rotating", "  {:8.1f}"),
                   ("mean_mve_regs", "  {:8.1f}/"),
                   ("p95_mve_regs", "{:<4d}"),
                   ("mean_mve_unroll", "      {:6.2f}")), rows)


# ---------------------------------------------------------------------------
# E6b -- spills under the Fig. 7 hardware budget
# ---------------------------------------------------------------------------

def spill_budget(loops: Sequence[Ddg],
                 budgets: Sequence[tuple[int, int]] = ((4, 8), (8, 8),
                                                       (8, 16), (16, 16),
                                                       (32, 16)),
                 machine: Optional[Machine] = None,
                 *, runner: Optional[RunnerConfig] = None,
                 scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Experiment E6b: quantify the paper's "spill code will occasionally
    be required" across hardware budgets (queues x positions): per
    budget, the fraction of loops with no spill and the mean number of
    spilled lifetimes per loop."""
    spec = spill_spec(budgets)
    grid = Grid(loops)
    grid.add("spills", machine or qrf_machine(12),
             dict(copies=True, allocate=False, scheduler=scheduler),
             extras=(spec,))
    reports = [r.extras.get(spec) for r in grid.run(runner)["spills"]
               if not r.outcome.failed and r.extras.get(spec)]
    return Table(
        "E6b -- spill code under finite queue files "
        "(single-cluster 12-FU machine)",
        "queues  positions   spill-free   mean-spills/loop",
        "{0[0]:6d}  {0[1]:9d}   ", (("no_spill_fraction", "{:10.1%}   "),
                                    ("mean_spills", "{:10.2f}")),
        {(q, p): {"no_spill_fraction": fraction(
                      rep[f"{q}x{p}"]["fits"] for rep in reports),
                  "mean_spills": mean(
                      rep[f"{q}x{p}"]["n_spilled"] for rep in reports)}
         for q, p in budgets})


# ---------------------------------------------------------------------------
# A4 -- sensitivity: inter-cluster communication latency
# ---------------------------------------------------------------------------

def ring_latency_sensitivity(loops: Sequence[Ddg],
                             latencies: Sequence[int] = (0, 1, 2),
                             cluster_counts: Sequence[int] = (4, 6),
                             *, partitioner: str = DEFAULT_PARTITIONER,
                             runner: Optional[RunnerConfig] = None,
                             scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Experiment A4: how sensitive is the partitioning result to the
    ring-queue forwarding latency?  Fig. 6's same-II fraction per extra
    cycle a value needs to reach an adjacent cluster (the paper assumes
    0), in cells keyed by cluster count."""
    from repro.machine.cluster import make_clustered

    pairs = _ring_vs_flat(
        loops, {(xlat, n): make_clustered(n, inter_cluster_latency=xlat)
                for xlat in latencies for n in cluster_counts},
        do_unroll=True, partitioner=partitioner, use_moves=False,
        runner=runner, scheduler=scheduler)
    rows: dict[int, dict[int, float]] = {}
    for (xlat, n), ok in pairs.items():
        rows.setdefault(xlat, {})[n] = fraction(
            clust.outcome.ii == single.outcome.ii for single, clust in ok)
    counts = sorted(cluster_counts)
    return Table(
        "A4 -- same-II fraction vs inter-cluster latency",
        "xlat   " + "  ".join(f"{n}-clusters" for n in counts),
        "{:4d} ", tuple((n, "  {:10.1%}") for n in counts), rows)


# ---------------------------------------------------------------------------
# S2 -- supplementary: register-file hardware cost
# ---------------------------------------------------------------------------

class _CostTable(Table):
    """S2's table prints, per machine width, a heading line and then each
    cost's own line; it has no header line, so it keeps this renderer."""

    def render(self) -> str:
        lines = [self.title, ""]
        for n_fus, cells in self.rows.items():
            lines.append(f"{n_fus} FUs (corpus p95 register demand: "
                         f"{cells['registers']}):")
            lines += ["  " + cost.render() for cost in cells["costs"]]
        return "\n".join(lines)


def hardware_cost(loops: Sequence[Ddg],
                  fu_sizes: Sequence[int] = (6, 12, 18),
                  *, runner: Optional[RunnerConfig] = None,
                  scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Experiment S2: the paper's 36-port argument, quantified.

    For each width: measure the corpus's p95 rotating-register demand on
    the conventional machine (the ``registers`` cell), then price a
    monolithic RF of that size against the flat and clustered QRF banks
    of the Fig. 7 budget (the ``costs`` cell, one
    :class:`~repro.machine.cost.RfCost` each).
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
    rows = {}
    for n_fus, block in grid.run(runner).items():
        demand = [r.extras["crf_registers"]["rotating"] for r in block
                  if not r.outcome.failed and r.extras.get("crf_registers")]
        registers = max(8, int(percentile(demand, 95)))
        rows[n_fus] = {"registers": registers, "costs": cost_comparison(
            crfs[n_fus], make_clustered(max(1, n_fus // 3)), registers)}
    return _CostTable(
        "S2 -- register-file complexity "
        "(area model: cells x ports^2; delay: 1 + 0.1/port)",
        "", "", (), rows)


# ---------------------------------------------------------------------------
# SC / PC -- every engine, head to head
# ---------------------------------------------------------------------------

def _search_effort(block: Sequence[JobResult]) -> dict[str, Any]:
    """The cells both comparisons share, for one engine's grid cell:
    loops compiled and failed, the II == MII rate, the mean II - MII,
    and the mean placement attempts and evictions (read from the
    ``sched_stats`` extra)."""
    ok = [r for r in block if not r.outcome.failed]
    stats = [r.extras["sched_stats"] for r in ok
             if r.extras.get("sched_stats")]
    return {"n_ok": len(ok), "n_failed": len(block) - len(ok),
            "mii_rate": fraction(r.outcome.ii == r.outcome.mii for r in ok),
            "mean_ii_excess": mean(r.outcome.ii - r.outcome.mii for r in ok),
            "mean_attempts": mean(s["attempts"] for s in stats),
            "mean_evictions": mean(s["evictions"] for s in stats)}


def exp_scheduler_compare(loops: Sequence[Ddg],
                          machines: Optional[Sequence[Machine]] = None,
                          schedulers: Optional[Sequence[str]] = None,
                          *, runner: Optional[RunnerConfig] = None
                          ) -> Table:
    """Experiment SC: sweep every engine over loops x machine presets.

    Reports, per (machine, engine) row: II-vs-MII quality,
    execution-weighted dynamic IPC, queue and conventional-register
    demand, and the engine's search effort (placement attempts,
    evictions).  ``mii_match`` compares each engine against the *first*
    one (the baseline): among the loops where the baseline achieved
    II == MII, the fraction this engine achieved it too -- the headline
    "SMS loses (almost) nothing" statistic.  Defaults: the paper's
    4/6/12-FU QRF presets and every engine in ``SCHEDULERS``, whose
    first entry is the default engine, so it is the baseline.
    """
    machines = list(machines) if machines else paper_qrf_machines()
    engines = tuple(schedulers or SCHEDULERS)
    grid = Grid(loops)
    for m in machines:
        for s in engines:
            grid.add((m.name, s), m, dict(
                copies=True, allocate=True, scheduler=s,
                extras=("sched_stats", "crf_registers")))
    results = grid.run(runner)
    rows = {}
    for m in machines:
        base_hit = {ddg.name for ddg, r in zip(loops,
                                               results[m.name, engines[0]])
                    if not r.outcome.failed
                    and r.outcome.ii == r.outcome.mii}
        for s in engines:
            block = results[m.name, s]
            ok = [r for r in block if not r.outcome.failed]
            # denominator: every loop the baseline hit; an engine that
            # fails outright on one of them counts as a non-match
            matched = [not r.outcome.failed
                       and r.outcome.ii == r.outcome.mii
                       for ddg, r in zip(loops, block)
                       if ddg.name in base_hit]
            rows[m.name, s] = {
                **_search_effort(block),
                "dynamic_ipc": weighted_dynamic_ipc(
                    [r.outcome for r in block]),
                "mean_queues": mean(r.outcome.total_queues or 0
                                    for r in ok),
                "mean_max_live": mean(
                    r.extras["crf_registers"]["max_live"] for r in ok
                    if r.extras.get("crf_registers")),
                "mii_match": fraction(matched)}
    return Table(
        f"SC -- scheduler comparison (baseline: {engines[0]})",
        "machine       engine  sched  II=MII  mean-II-MII  IPC-dyn  "
        "queues  MaxLive  attempts  evicted  vs-baseline",
        "{0[0]:<14}{0[1]:<6}  ", (
            ("n_ok", "{:5d}  "), ("mii_rate", "{:6.1%}  "),
            ("mean_ii_excess", "{:11.2f}  "), ("dynamic_ipc", "{:7.2f}  "),
            ("mean_queues", "{:6.1f}  "), ("mean_max_live", "{:7.1f}  "),
            ("mean_attempts", "{:8.1f}  "), ("mean_evictions", "{:7.1f}  "),
            ("mii_match", "{:11.1%}")), rows)


def exp_partitioner_compare(loops: Sequence[Ddg],
                            cluster_counts: Sequence[int] = PAPER_CLUSTER_COUNTS,
                            partitioners: Optional[Sequence[str]] = None,
                            *, runner: Optional[RunnerConfig] = None,
                            scheduler: str = DEFAULT_SCHEDULER) -> Table:
    """Experiment PC: sweep every partitioning engine over loops x rings.

    Reports, per (cluster count, engine) row: II-vs-MII quality, the
    search effort (placement attempts, evictions -- the quantity the
    partitioned search's backtracking burns), the number of values that
    cross between clusters, and the peak per-cluster MaxLive -- the
    spatial-balance numbers that distinguish a good pre-assignment from a
    lucky greedy run.  Defaults: the paper's 4/5/6-cluster rings and
    every engine in ``PARTITIONERS``, default engine first.
    """
    engines = tuple(partitioners or PARTITIONERS)
    grid = Grid(loops)
    for n in cluster_counts:
        cm = clustered_machine(n)
        for p in engines:
            grid.add((n, p), cm, dict(
                copies=True, allocate=False, partitioner=p,
                scheduler=scheduler,
                extras=("sched_stats", "cluster_stats")))
    rows = {}
    for key, block in grid.run(runner).items():
        stats = [r.extras["cluster_stats"] for r in block
                 if not r.outcome.failed and r.extras.get("cluster_stats")]
        rows[key] = {
            **_search_effort(block),
            "mean_inter_cluster": mean(s["inter_cluster_edges"]
                                       for s in stats),
            "mean_cluster_live": mean(s["max_cluster_live"]
                                      for s in stats)}
    return Table(
        f"PC -- partitioner comparison (baseline: {engines[0]})",
        "clusters  engine         sched  II=MII  mean-II-MII  attempts  "
        "evicted  ring-copies  cluster-MaxLive",
        "{0[0]:8d}  {0[1]:<13}  ", (
            ("n_ok", "{:5d}  "), ("mii_rate", "{:6.1%}  "),
            ("mean_ii_excess", "{:11.2f}  "), ("mean_attempts", "{:8.1f}  "),
            ("mean_evictions", "{:7.1f}  "),
            ("mean_inter_cluster", "{:11.2f}  "),
            ("mean_cluster_live", "{:15.2f}")), rows)


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One experiment: what it reproduces and how to run it."""

    description: str
    driver: Callable[..., Table]
    #: the engine knobs (``"scheduler"``, ``"partitioner"``) the driver
    #: takes; the head-to-head comparisons sweep the others themselves
    engines: tuple[str, ...] = ("scheduler",)

    def run(self, loops: Sequence[Ddg],
            runner: Optional[RunnerConfig] = None, *,
            scheduler: str = DEFAULT_SCHEDULER,
            partitioner: str = DEFAULT_PARTITIONER) -> Table:
        """The driver's table on *loops* under the chosen engines."""
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
    "sc": Experiment("scheduler comparison: all engines head to head",
                     exp_scheduler_compare, ()),
    "pc": Experiment("partitioner comparison: all engines head to "
                     "head", exp_partitioner_compare),
}
