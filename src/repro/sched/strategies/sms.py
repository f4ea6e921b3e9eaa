"""Swing Modulo Scheduling (Llosa, Gonzalez, Ayguade, Valero; PACT'96).

SMS is the near-backtrack-free alternative to IMS favoured by the paper's
co-author: instead of forcing placements and evicting conflicting ops, it
(1) orders the ops so that every op is placed while at least one of its
neighbours is already scheduled, and (2) *swings* the placement scan
towards those neighbours, which keeps value lifetimes short.  One pass is
made per candidate II; if any op finds no free modulo slot the II is bumped
and the whole attempt restarts -- there is no eviction loop, so the number
of placement attempts is essentially ``n_ops * IIs-tried``.

The three phases, as implemented here:

1. **Bounds** (:func:`time_bounds`): for a candidate II, longest-path
   earliest start ``E`` and latest start ``L`` of every op over edge
   weights ``lat - d * II`` (loop-carried edges give back ``d * II``
   cycles).  ``E + H`` (height) measures the criticality of the longest
   path through an op; ``L - E`` is its slack ("mobility").

2. **Ordering** (:func:`sms_order`): strongly connected components are
   ranked by the criticality of their most critical path (recurrence sets
   first -- they have the least scheduling freedom), each preceded by the
   nodes on DDG paths between already-ordered sets and the new set.  Each
   set is emitted by alternating top-down / bottom-up sweeps: the frontier
   of ops adjacent to the ordered prefix grows along the current
   direction, most critical ops first, and when it empties the direction
   *swings*.  The invariant: no op is ordered while having both
   unscheduled predecessors and unscheduled successors among the ordered
   prefix's neighbours -- which is what makes the bidirectional placement
   of phase 3 lifetime-minimising.

3. **Placement** (:func:`try_sms_at_ii`): ops are placed in order.  An op
   with only scheduled predecessors scans *forward* from its earliest
   feasible cycle (consuming its inputs as soon as they exist -- short
   producer-side lifetimes); one with only scheduled successors scans
   *backward* from its latest feasible cycle (producing just in time --
   short consumer-side lifetimes); one with both scans forward inside the
   ``[Estart, Lstart]`` window.  Each direction visits at most II slots
   (rows repeat modulo II); if none is free the II fails.

Single-cluster machines only: clustered machines go through the
partitioner (see DESIGN.md §6 -- the partitioner embeds IMS's
eviction machinery, which the space dimension genuinely needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.ddg import Ddg
from repro.ir.validate import validate_ddg
from repro.kernels import earliest_starts
from repro.machine.machine import Machine

from ..arena import SchedArena, global_arena
from ..iisearch import search_ii
from ..mii import mii_report
from ..mrt import PackedMRT
from ..priority import heights_list
from ..schedule import ModuloSchedule, ScheduleStats, SchedulingError


@dataclass
class SmsConfig:
    """Tunables of the SMS search (mirrors :class:`ImsConfig`)."""

    max_ii: Optional[int] = None      # default: mii + n_ops + sum latency

    def ii_limit(self, ddg: Ddg, start_ii: int) -> int:
        if self.max_ii is not None:
            return self.max_ii
        # n_ops * max-latency cycles is enough for a fully serial schedule
        return start_ii + ddg.n_ops + ddg.sum_latency() + 1


#: Longest-path analysis of one (ddg, II) pair: earliest starts, latest
#: starts, heights.  Computed once per candidate II and shared by the
#: ordering and placement phases.
_Analysis = tuple[dict[int, int], dict[int, int], dict[int, int]]


def _analyse(ddg: Ddg, ii: int) -> _Analysis:
    """``(E, L, H)`` at *ii*; raises ``ValueError`` below RecMII.

    Memoised per (lowering, II) -- the adaptive II driver and repeated
    sweeps probe the same points; consumers read the dicts only.
    """
    if ii < 1:
        raise ValueError("II must be >= 1")
    arr = ddg.arrays()
    cached = arr.ii_cache.get(("sms_analysis", ii))
    if cached is not None:
        return cached
    e_list = earliest_starts(arr, ii)
    if e_list is None:
        raise ValueError(
            f"earliest starts diverge at II={ii}: positive dependence "
            f"cycle (II below RecMII?)")
    h_list = heights_list(arr, ii)
    span = max(map(int.__add__, e_list, h_list), default=0)
    ids = arr.ids
    e_of = dict(zip(ids, e_list))
    l_of = {o: span - h for o, h in zip(ids, h_list)}
    h = dict(zip(ids, h_list))
    arr.ii_cache[("sms_analysis", ii)] = (e_of, l_of, h)
    return e_of, l_of, h


def time_bounds(ddg: Ddg, ii: int) -> tuple[dict[int, int], dict[int, int]]:
    """Earliest / latest start times ``(E, L)`` of every op at *ii*.

    ``E`` is the longest path into the op over weights ``lat - d * II``
    (clamped at 0); ``L = span - H`` where ``H`` is the height and
    ``span`` the length of the longest path in the graph, so ``L - E >= 0``
    is the op's mobility.  Raises ``ValueError`` below RecMII (positive
    cycle).
    """
    e_of, l_of, _ = _analyse(ddg, ii)
    return e_of, l_of


def _neighbours(ddg: Ddg) -> tuple[dict[int, set[int]],
                                   dict[int, set[int]]]:
    """Predecessor and successor sets of every op (all edge kinds,
    self-loops dropped)."""
    arr = ddg.arrays()
    ids = arr.ids
    preds: dict[int, set[int]] = {u: set() for u in ids}
    succs: dict[int, set[int]] = {u: set() for u in ids}
    for s, d in zip(arr.e_src, arr.e_dst):
        if s != d:
            succs[ids[s]].add(ids[d])
            preds[ids[d]].add(ids[s])
    return preds, succs


def _reach(starts: set[int], nbrs: dict[int, set[int]]) -> set[int]:
    """Every op reachable from *starts* along *nbrs*, *starts* included
    (one multi-source search)."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _node_sets(ddg: Ddg, preds: dict[int, set[int]],
               succs: dict[int, set[int]],
               criticality: dict[int, int]) -> list[list[int]]:
    """SMS node sets: recurrence SCCs by decreasing criticality, each
    preceded by the nodes on paths between already-covered sets and the
    new one, then everything left."""
    arr = ddg.arrays()
    comps: dict[int, set[int]] = {}
    for u, comp in zip(arr.ids, arr.scc_id):
        comps.setdefault(comp, set()).add(u)
    sccs = [scc for scc in comps.values() if len(scc) > 1]
    sccs.sort(key=lambda s: (-max(criticality[u] for u in s),
                             -len(s), min(s)))
    sets: list[list[int]] = []
    covered: set[int] = set()
    for scc in sccs:
        if covered:
            # nodes on any directed path between the covered region and
            # this recurrence (either direction), excluding both ends
            between = ((_reach(covered, succs) & _reach(scc, preds))
                       - covered - scc)
            if not between:
                between = ((_reach(scc, succs) & _reach(covered, preds))
                           - covered - scc)
            if between:
                sets.append(sorted(between))
                covered |= between
        sets.append(sorted(scc))
        covered |= scc
    rest = [u for u in ddg.op_ids if u not in covered]
    if rest:
        sets.append(sorted(rest))
    return sets


def sms_order(ddg: Ddg, ii: int, *,
              analysis: Optional[_Analysis] = None) -> list[int]:
    """The SMS scheduling order of *ddg* at candidate *ii*.

    Within each node set the order alternates top-down (following
    successors, highest height -- i.e. most critical -- first) and
    bottom-up (following predecessors, deepest first) sweeps, so every op
    except set seeds is ordered adjacent to the already-ordered prefix.
    """
    e_of, l_of, h = analysis or _analyse(ddg, ii)
    criticality = {u: e_of[u] + h[u] for u in ddg.op_ids}
    preds, succs = _neighbours(ddg)

    def seed_of(work: set[int]) -> int:
        return min(work, key=lambda u: (-criticality[u],
                                        l_of[u] - e_of[u], u))

    order: list[int] = []
    placed: set[int] = set()
    for node_set in _node_sets(ddg, preds, succs, criticality):
        work = set(node_set)
        frontier = {u for u in work if preds[u] & placed}
        direction = "down"
        if not frontier:
            frontier = {u for u in work if succs[u] & placed}
            direction = "up"
        if not frontier:
            frontier = {seed_of(work)}
            direction = "down"
        while work:
            if not frontier:
                # swing: prefer the opposite direction, fall back to the
                # same one, and re-seed only for disconnected regions
                flipped = "up" if direction == "down" else "down"
                for cand in (flipped, direction):
                    nbrs = preds if cand == "down" else succs
                    cand_frontier = {u for u in work
                                     if nbrs[u] & placed}
                    if cand_frontier:
                        direction, frontier = cand, cand_frontier
                        break
                else:
                    direction, frontier = "down", {seed_of(work)}
            while frontier:
                if direction == "down":
                    u = min(frontier, key=lambda v: (
                        -h[v], l_of[v] - e_of[v], v))
                    grow = succs
                else:
                    u = min(frontier, key=lambda v: (
                        -e_of[v], l_of[v] - e_of[v], v))
                    grow = preds
                order.append(u)
                placed.add(u)
                work.discard(u)
                frontier.discard(u)
                frontier |= grow[u] & work
    return order


def try_sms_at_ii(ddg: Ddg, machine: Machine, ii: int, *,
                  order: Optional[list[int]] = None,
                  analysis: Optional[_Analysis] = None,
                  stats: Optional[ScheduleStats] = None,
                  arena: Optional[SchedArena] = None,
                  ) -> Optional[dict[int, int]]:
    """One SMS pass at a fixed II; returns ``sigma`` or ``None``.

    No backtracking: the first op that finds no free slot in its (at most
    II-wide) feasible window fails the whole II.  Issue times may be
    negative (bottom-up placements); callers normalise.  With an *arena*
    the reservation table is borrowed from its pool; the sigma dict is
    only materialised on success (failed IIs allocate nothing op-sized).
    """
    if analysis is None:
        analysis = _analyse(ddg, ii)
    if order is None:
        order = sms_order(ddg, ii, analysis=analysis)
    e_of = analysis[0]
    arr = ddg.arrays()
    index = arr.index
    pool = arr.pool
    in_ptr, in_src = arr.in_ptr, arr.in_src
    in_lat, in_dist = arr.in_lat, arr.in_dist
    out_ptr, out_dst = arr.out_ptr, arr.out_dst
    out_lat, out_dist = arr.out_lat, arr.out_dist
    if arena is not None:
        arena.begin_attempt()
        mrt = arena.take_mrt(ii, machine.fus.pool_caps)
    else:
        mrt = PackedMRT(ii, machine.fus.pool_caps)
    # SMS times go negative (bottom-up placements), so the unscheduled
    # sentinel cannot be -1; track placement separately
    sig = [0] * arr.n
    placed = [False] * arr.n

    for op_id in order:
        i = index[op_id]
        est: Optional[int] = None
        lst: Optional[int] = None
        for j in range(in_ptr[i], in_ptr[i + 1]):
            s = in_src[j]
            if not placed[s]:
                continue
            cand = sig[s] + in_lat[j] - in_dist[j] * ii
            if est is None or cand > est:
                est = cand
        for j in range(out_ptr[i], out_ptr[i + 1]):
            d = out_dst[j]
            if not placed[d]:
                continue
            cand = sig[d] - out_lat[j] + out_dist[j] * ii
            if lst is None or cand < lst:
                lst = cand

        if est is not None and lst is not None:
            scan = range(est, min(lst, est + ii - 1) + 1)
        elif est is not None:
            scan = range(est, est + ii)
        elif lst is not None:
            scan = range(lst, lst - ii, -1)
        else:
            scan = range(e_of[op_id], e_of[op_id] + ii)

        placed_at: Optional[int] = None
        p_i = pool[i]
        for t in scan:
            if mrt.can_place(p_i, t):
                placed_at = t
                break
        if stats is not None:
            stats.attempts += 1
        if placed_at is None:
            return None
        mrt.place(op_id, p_i, placed_at)
        sig[i] = placed_at
        placed[i] = True
    # materialise sigma in placement order (matches the historical
    # incrementally-built dict exactly)
    return {op_id: sig[index[op_id]] for op_id in order}


def sms_schedule(ddg: Ddg, machine: Machine, *,
                 config: Optional[SmsConfig] = None) -> ModuloSchedule:
    """Schedule *ddg* on a single-cluster *machine* with SMS.

    Mirrors :func:`repro.sched.ims.modulo_schedule`: the machine's latency
    model is applied first, IIs are tried from MII upward (see
    :mod:`repro.sched.iisearch`) and :class:`SchedulingError`
    is raised when the limit is exceeded (in practice only malformed
    inputs get there -- at ``II = n_ops * max-latency`` a fully serial
    placement always fits).
    """
    cfg = config or SmsConfig()
    ddg = machine.retime(ddg)
    validate_ddg(ddg)
    if not machine.can_execute(ddg):
        raise SchedulingError(
            f"machine {machine.name} lacks FU classes for {ddg.name!r}")

    report = mii_report(ddg, machine)
    first_ii = max(report.mii, 1)
    stats = ScheduleStats(mii=report.mii, res_mii=report.res,
                          rec_mii=report.rec)
    limit = cfg.ii_limit(ddg, first_ii)
    arena = global_arena()

    def probe(ii: int) -> Optional[dict[int, int]]:
        stats.iis_tried += 1
        return try_sms_at_ii(ddg, machine, ii, stats=stats, arena=arena)

    found = search_ii(probe, first_ii, limit)
    if found is None:
        raise SchedulingError(
            f"no SMS schedule for {ddg.name!r} on {machine.name} "
            f"with II <= {limit}")
    ii, sigma = found
    shift = min(sigma.values())
    if shift:
        sigma = {o: t - shift for o, t in sigma.items()}
    sched = ModuloSchedule(
        ddg=ddg, ii=ii, sigma=sigma, machine_name=machine.name,
        stats=stats)
    sched.validate(machine.fus.pool_caps)
    return sched


class SmsStrategy:
    """Swing modulo scheduling (Llosa et al. 1996)."""

    description = ("swing modulo scheduling (Llosa et al. 1996): "
                   "criticality ordering, bidirectional lifetime-"
                   "minimising placement, no backtracking")

    @staticmethod
    def schedule(ddg: Ddg, machine: Machine) -> ModuloSchedule:
        return sms_schedule(ddg, machine)
