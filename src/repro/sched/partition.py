"""Partitioned modulo scheduling for clustered machines (Section 4).

The paper's partitioner extends IMS with cluster assignment: every op is
placed both *in time* (a modulo row, per IMS) and *in space* (a cluster).
The ring topology allows a value to flow only to an adjacent cluster, so an
op's feasible clusters are constrained by where its already-scheduled DATA
neighbours live; conflicts trigger the same forced-placement/eviction
machinery as plain IMS ("a backtracking process to unschedule conflicting
operations") and, when the budget runs out, an II increase -- the quantity
Fig. 6 reports.

*How* the space/time search picks clusters is up to the engine: the
five live in :mod:`repro.sched.partitioners` (``affinity``,
``agglomerative``, ``balance``, ``first``, ``random``) and are selected
by name through ``PartitionConfig.partitioner``.  This module owns the
II search all of them share (:func:`partitioned_schedule`) and the MOVE
extension.

:func:`schedule_with_moves` implements the paper's proposed future-work fix
(evaluated as ablation A3): a relaxed scheduling pass assigns clusters
ignoring adjacency, explicit MOVE ops are materialised along ring paths for
every edge spanning more than one hop, and a second constrained pass
schedules the augmented DDG with every op pinned to its cluster.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Optional

from repro.ir.ddg import Ddg, DepKind
from repro.ir.operations import Opcode
from repro.ir.validate import validate_ddg
from repro.machine.cluster import ClusteredMachine
from repro.obs import trace as _trace

from .arena import global_arena
from .iisearch import search_ii
from .ims import DEFAULT_BUDGET_RATIO
from .mii import mii_report
from .partitioners import (DEFAULT_PARTITIONER, PARTITIONERS,
                           PartitionState)
from .schedule import (ModuloSchedule, ScheduleStats, SchedulingError,
                       check_engine)

@dataclass
class PartitionConfig:
    """Tunables of the partitioned search.

    ``partitioner`` names the cluster-partitioning engine, a key of
    :data:`~repro.sched.partitioners.PARTITIONERS`.
    """

    max_ii: Optional[int] = None
    partitioner: str = DEFAULT_PARTITIONER

    def budget_for(self, n_ops: int) -> int:
        return max(1, DEFAULT_BUDGET_RATIO * n_ops)

    def ii_limit(self, ddg: Ddg, start_ii: int) -> int:
        if self.max_ii is not None:
            return self.max_ii
        return start_ii + ddg.n_ops + ddg.sum_latency() + 1


def partitioned_schedule(ddg: Ddg, cm: ClusteredMachine, *,
                         config: Optional[PartitionConfig] = None,
                         pinned: Optional[dict[int, int]] = None,
                         relax_adjacency: bool = False) -> ModuloSchedule:
    """Schedule *ddg* on a clustered machine.

    Raises :class:`SchedulingError` when no II up to the limit works and
    ``KeyError`` (listing the engines) on an unknown
    ``config.partitioner``.  ``pinned`` fixes some ops' clusters (used by
    the MOVE pipeline); ``relax_adjacency`` disables the ring constraint
    (internal use and upper-bound studies).
    """
    cfg = config or PartitionConfig()
    engine = check_engine(PARTITIONERS, "partitioner", cfg.partitioner)()
    ddg = cm.cluster.retime(ddg)
    validate_ddg(ddg)

    report = mii_report(ddg, cm)
    first_ii = max(report.mii, 1)
    stats = ScheduleStats(mii=report.mii, res_mii=report.res,
                          rec_mii=report.rec)
    limit = cfg.ii_limit(ddg, first_ii)
    rng = _random.Random(0)
    arena = global_arena()

    def probe(ii: int) -> Optional[PartitionState]:
        stats.iis_tried += 1
        stats.budget = cfg.budget_for(ddg.n_ops)
        if _trace.tracing_enabled():
            # placement-round / eviction accounting per attempt: the
            # engine accumulates onto *stats*, so the counter deltas
            # across one try_at_ii call are this attempt's rounds
            placed0, evicted0 = stats.attempts, stats.evictions
            state = engine.try_at_ii(
                ddg, cm, ii, budget=stats.budget, pinned=pinned,
                relax_adjacency=relax_adjacency, stats=stats, rng=rng,
                arena=arena)
            _trace.trace_count("partition.placements",
                               stats.attempts - placed0)
            _trace.trace_count("partition.evictions",
                               stats.evictions - evicted0)
            return state
        return engine.try_at_ii(
            ddg, cm, ii, budget=stats.budget, pinned=pinned,
            relax_adjacency=relax_adjacency, stats=stats, rng=rng,
            arena=arena)

    # stochastic engines consume one seeded stream across probes, so
    # only the sequential walk gives reproducible results; deterministic
    # engines search adaptively
    found = search_ii(probe, first_ii, limit, linear=engine.stochastic)
    if found is None:
        raise SchedulingError(
            f"no partitioned schedule for {ddg.name!r} on {cm.name} "
            f"with II <= {limit} ({cfg.partitioner!r} partitioner)")
    ii, state = found
    # normalise off the packed state; the state dies here, so its
    # cluster map transfers without a copy (the dicts are per-state,
    # never arena-pooled)
    shift = min(state.sigma.values())
    sigma = {o: t - shift for o, t in state.sigma.items()}
    sched = ModuloSchedule(
        ddg=ddg, ii=ii, sigma=sigma, cluster_of=state.cluster_of,
        n_clusters=cm.n_clusters, machine_name=cm.name, stats=stats)
    sched.validate(cm.cluster.fus.pool_caps,
                   adjacency=None if relax_adjacency else cm)
    return sched


# ---------------------------------------------------------------------------
# MOVE extension (the paper's future work; ablation A3)
# ---------------------------------------------------------------------------

@dataclass
class MoveScheduleResult:
    """Outcome of :func:`schedule_with_moves`."""

    schedule: ModuloSchedule
    n_moves: int
    ddg: Ddg = field(repr=False, default=None)  # the move-augmented DDG


def insert_moves(ddg: Ddg, cm: ClusteredMachine,
                 cluster_of: dict[int, int]) -> tuple[Ddg, dict[int, int]]:
    """Materialise MOVE chains for DATA edges spanning > 1 ring hop.

    Returns the augmented DDG and the cluster pin map covering *all* ops
    (originals keep their assignment; moves sit on the intermediate
    clusters of the shortest ring path).  Loop-carried distance stays on
    the final move->consumer edge so iteration semantics are unchanged.
    """
    out = ddg.copy()
    pins: dict[int, int] = dict(cluster_of)
    n_moves = 0
    for e in list(ddg.data_edges()):
        ca, cb = cluster_of[e.src], cluster_of[e.dst]
        if cm.are_adjacent(ca, cb):
            continue
        path = cm.hop_path(ca, cb)
        out.remove_edge(e)
        prev = e.src
        for hop_cluster in path[1:-1]:
            mv = out.add_operation(
                Opcode.MOVE,
                name=f"{ddg.op(e.src).name}.mv{n_moves}",
                origin=e.src,
                unroll_index=ddg.op(e.src).unroll_index)
            out.add_dependence(prev, mv.op_id, distance=0,
                               kind=DepKind.DATA)
            pins[mv.op_id] = hop_cluster
            prev = mv.op_id
            n_moves += 1
        out.add_dependence(prev, e.dst, distance=e.distance,
                           kind=DepKind.DATA)
    return out, pins


def schedule_with_moves(ddg: Ddg, cm: ClusteredMachine, *,
                        config: Optional[PartitionConfig] = None
                        ) -> MoveScheduleResult:
    """Two-pass scheduling with explicit inter-cluster MOVE ops.

    Pass 1 assigns clusters with the ring constraint relaxed (pure
    affinity/balance partitioning); pass 2 inserts MOVE chains on every
    non-adjacent edge and re-schedules with all ops pinned, enforcing the
    ring constraint.  The strict ring-only schedule is also attempted and
    the better of the two is returned (moves cost copy-unit slots and
    lengthen paths, so they should only be paid when the ring constraint
    actually binds).  The final schedule is always fully ring-legal.
    """
    cfg = config or PartitionConfig()

    strict: Optional[ModuloSchedule] = None
    try:
        strict = partitioned_schedule(ddg, cm, config=cfg)
    except SchedulingError:
        pass

    relaxed = partitioned_schedule(
        ddg, cm, config=cfg, relax_adjacency=True)
    moved, pins = insert_moves(relaxed.ddg, cm, relaxed.cluster_of)
    n_moves = moved.n_ops - relaxed.ddg.n_ops
    if n_moves == 0:
        # relaxed pass was already ring-legal
        relaxed.validate(cm.cluster.fus.pool_caps, adjacency=cm)
        via_moves = MoveScheduleResult(relaxed, 0, relaxed.ddg)
    else:
        try:
            final = partitioned_schedule(
                moved, cm, config=cfg, pinned=pins)
            via_moves = MoveScheduleResult(final, n_moves, moved)
        except SchedulingError:
            if strict is None:
                raise
            via_moves = None

    if via_moves is None:
        return MoveScheduleResult(strict, 0, ddg)
    if strict is not None and strict.ii <= via_moves.schedule.ii:
        return MoveScheduleResult(strict, 0, ddg)
    return via_moves
