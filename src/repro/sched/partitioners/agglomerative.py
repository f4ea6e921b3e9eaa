"""Two-phase agglomerative partitioning (in the spirit of Aletà et al.).

Phase 1 decides *space* before *time*: ops are merged bottom-up into
exactly ``n_clusters`` groups by descending DATA-affinity (the number of
values flowing between two groups), subject to per-cluster ResMII
balance -- a merge is refused while a group's local resource bound
``max_p ceil(demand_p / cap_p)`` would exceed the balanced share of the
machine.  The groups are then laid out around the ring so that heavily
communicating groups sit on adjacent clusters, and a bounded repair pass
moves individual ops until every DATA edge connects adjacent clusters.

Phase 2 reuses the slot-search engine with every op *pinned* to its
pre-assigned cluster: the search only has to solve the modulo-time
problem, which removes the space/time thrash that costs the greedy
heuristics evictions on ring-spanning recurrences.

When phase 1 cannot produce an adjacency-legal assignment (or the pinned
search exhausts its budget at this II), the engine falls back to the
plain affinity search so it stays total: ``agglomerative`` never fails
where ``affinity`` would succeed.
"""

from __future__ import annotations

import random as _random
from typing import Optional

from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine
from repro.machine.resources import pool_for

from ..arena import SchedArena
from ..schedule import ScheduleStats
from .base import PartitionState
from .slotsearch import SlotSearchPartitioner

#: Repair passes over adjacency-violating ops before giving up on the
#: pre-assignment (each pass may move every violating op once).
_REPAIR_PASSES = 4


def _local_res_mii(demand: dict, caps: dict) -> int:
    """Per-cluster resource bound of one group's FU demand."""
    bound = 0
    for pool, d in demand.items():
        cap = caps.get(pool, 0)
        if cap <= 0:
            return 1 << 30  # group needs units this cluster lacks
        bound = max(bound, -(-d // cap))
    return bound


def agglomerative_assignment(ddg: Ddg, cm: ClusteredMachine,
                             ii: int) -> Optional[dict[int, int]]:
    """Affinity-driven pre-assignment op -> cluster, or ``None``.

    Returns a *complete, adjacency-legal* cluster map (every DATA edge
    spans at most one ring hop) or ``None`` when no such map is found
    within the repair budget; callers fall back to the free search.
    """
    n = cm.n_clusters
    ops = ddg.op_ids
    if n <= 1 or len(ops) <= n:
        return None
    caps = {pool: c for pool, c in cm.cluster.fus.as_dict().items()
            if c > 0}
    pool_of = {o: pool_for(ddg.op(o).fu_type) for o in ops}

    # ---- phase 1a: agglomerative merge under ResMII balance ------------
    group_of = {o: i for i, o in enumerate(ops)}
    members: dict[int, list[int]] = {
        g: [o] for o, g in group_of.items()}
    demand: dict[int, dict] = {
        group_of[o]: {pool_of[o]: 1} for o in ops}
    weight: dict[tuple[int, int], int] = {}
    for e in ddg.data_edges():
        if e.src == e.dst:
            continue
        a, b = group_of[e.src], group_of[e.dst]
        key = (a, b) if a < b else (b, a)
        weight[key] = weight.get(key, 0) + 1

    # balanced per-cluster share; +1 slack keeps odd demands mergeable
    total: dict = {}
    for o in ops:
        total[pool_of[o]] = total.get(pool_of[o], 0) + 1
    balance_limit = max(
        (-(-d // (n * caps.get(pool, 1))) for pool, d in total.items()),
        default=1) + 1

    def merged_demand(a: int, b: int) -> dict:
        out = dict(demand[a])
        for pool, d in demand[b].items():
            out[pool] = out.get(pool, 0) + d
        return out

    def merge(a: int, b: int) -> None:
        members[a].extend(members[b])
        demand[a] = merged_demand(a, b)
        for o in members[b]:
            group_of[o] = a
        del members[b], demand[b]
        for (x, y), w in list(weight.items()):
            if b in (x, y):
                del weight[(x, y)]
                other = y if x == b else x
                if other == a:
                    continue
                key = (a, other) if a < other else (other, a)
                weight[key] = weight.get(key, 0) + w

    while len(members) > n:
        # best affinity-weighted merge that keeps the balance bound
        candidate: Optional[tuple[int, int]] = None
        for (a, b), w in sorted(weight.items(),
                                key=lambda kv: (-kv[1], kv[0])):
            if _local_res_mii(merged_demand(a, b), caps) <= balance_limit:
                candidate = (a, b)
                break
        if candidate is None:
            # forced merge: the pair whose union stays lightest
            gids = sorted(members)
            candidate = min(
                ((a, b) for i, a in enumerate(gids) for b in gids[i + 1:]),
                key=lambda ab: (_local_res_mii(merged_demand(*ab), caps),
                                len(members[ab[0]]) + len(members[ab[1]]),
                                ab))
        merge(*candidate)

    # ---- phase 1b: lay the groups out around the ring ------------------
    gids = sorted(members)

    def w_of(a: int, b: int) -> int:
        return weight.get((a, b) if a < b else (b, a), 0)

    if len(gids) == 1:
        path = list(gids)
    else:
        seed = max(((a, b) for i, a in enumerate(gids)
                    for b in gids[i + 1:]),
                   key=lambda ab: (w_of(*ab), -ab[0] - ab[1]))
        path = [seed[0], seed[1]]
        placed = set(path)
        while len(path) < len(gids):
            rest = [g for g in gids if g not in placed]
            head_best = max(rest, key=lambda g: (w_of(path[0], g), -g))
            tail_best = max(rest, key=lambda g: (w_of(path[-1], g), -g))
            if w_of(path[0], head_best) > w_of(path[-1], tail_best):
                path.insert(0, head_best)
                placed.add(head_best)
            else:
                path.append(tail_best)
                placed.add(tail_best)

    cluster_of = {o: path.index(g) for o, g in group_of.items()}

    # ---- phase 1c: adjacency repair ------------------------------------
    adj = [[cm.are_adjacent(a, b) for b in range(n)] for a in range(n)]
    nbrs = {o: sorted(ddg.neighbors_data(o)) for o in ops}

    def violations(o: int, c: int) -> int:
        return sum(1 for x in nbrs[o] if not adj[c][cluster_of[x]])

    for _ in range(_REPAIR_PASSES):
        broken = sorted(o for o in ops if violations(o, cluster_of[o]))
        if not broken:
            return cluster_of
        moved = False
        for o in broken:
            cur = violations(o, cluster_of[o])
            if not cur:
                continue  # an earlier move already fixed this op
            best_c = min(range(n), key=lambda c: (violations(o, c), c))
            if violations(o, best_c) < cur:
                cluster_of[o] = best_c
                moved = True
        if not moved:
            break
    if any(violations(o, cluster_of[o]) for o in ops):
        return None
    return cluster_of


class AgglomerativePartitioner(SlotSearchPartitioner):
    description = ("two-phase: affinity-weighted agglomerative "
                   "pre-assignment under ResMII balance, slot search "
                   "with clusters pinned")

    # the pinned phase (and the fallback) rank candidates like affinity
    def candidate_key(self, aff: int, t: int, load: int, c: int,
                      rng: _random.Random) -> tuple:
        return (-aff, t, load, c)

    def try_at_ii(self, ddg: Ddg, cm: ClusteredMachine, ii: int, *,
                  budget: int,
                  pinned: Optional[dict[int, int]] = None,
                  relax_adjacency: bool = False,
                  stats: Optional[ScheduleStats] = None,
                  rng: Optional[_random.Random] = None,
                  arena: Optional[SchedArena] = None,
                  ) -> Optional[PartitionState]:
        if not pinned and not relax_adjacency:
            pins = agglomerative_assignment(ddg, cm, ii)
            if pins is not None:
                # split the allowance so this engine's total per-II work
                # stays bounded by `budget` like every other engine's
                pinned_budget = max(1, budget // 2)
                state = super().try_at_ii(
                    ddg, cm, ii, budget=pinned_budget, pinned=pins,
                    relax_adjacency=relax_adjacency, stats=stats, rng=rng,
                    arena=arena)
                if state is not None:
                    return state
                budget -= pinned_budget
                if budget <= 0:
                    return None
        return super().try_at_ii(
            ddg, cm, ii, budget=budget, pinned=pinned,
            relax_adjacency=relax_adjacency, stats=stats, rng=rng,
            arena=arena)
