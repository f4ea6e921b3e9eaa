"""Iterative Modulo Scheduling (Rau, 1996) for single-cluster machines.

The algorithm, as used by the paper's experimental framework:

1. ``II = MII``; compute height-based priorities.
2. Repeatedly pick the highest-priority unscheduled op.  Its *earliest
   start* is forced by already-scheduled predecessors::

       Estart = max(0, max_p sigma(p) + lat(p->op) - d(p->op) * II)

3. Search the II-wide window ``[Estart, Estart + II - 1]`` for a row with a
   free FU; place the op in the first one (placing later than
   ``Estart + II - 1`` is pointless -- rows repeat modulo II).
4. If no row is free, *force* the op at ``max(Estart, last_time + 1)``
   (guaranteeing forward progress on re-schedules), evicting whoever holds
   the FU row, and unschedule any op whose dependence the forced placement
   violates.
5. Each placement costs one unit of budget (``budget_ratio * n_ops``); when
   the budget is exhausted, give up on this II and retry at ``II + 1``.

The implementation validates its own output before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.ddg import Ddg
from repro.ir.validate import validate_ddg
from repro.machine.machine import Machine

from .arena import SchedArena, global_arena
from .iisearch import search_ii
from .mii import mii_report
from .mrt import PackedMRT
from .priority import priority_order_idx
from .schedule import ModuloSchedule, ScheduleStats, SchedulingError

#: Default Rau budget multiplier (the 1996 paper finds 3-6 sufficient).
DEFAULT_BUDGET_RATIO = 6


@dataclass
class ImsConfig:
    """Tunables of the IMS search."""

    budget_ratio: int = DEFAULT_BUDGET_RATIO
    max_ii: Optional[int] = None      # default: mii + n_ops + sum latency

    def budget_for(self, n_ops: int) -> int:
        return max(1, self.budget_ratio * n_ops)

    def ii_limit(self, ddg: Ddg, start_ii: int) -> int:
        if self.max_ii is not None:
            return self.max_ii
        # n_ops * max-latency cycles is enough for a fully serial schedule
        return start_ii + ddg.n_ops + ddg.sum_latency() + 1


def try_schedule_at_ii(ddg: Ddg, machine: Machine, ii: int, *,
                       budget: int,
                       stats: Optional[ScheduleStats] = None,
                       arena: Optional[SchedArena] = None,
                       ) -> Optional[dict[int, int]]:
    """One IMS attempt at a fixed II; returns ``sigma`` or ``None``.

    Runs entirely on the packed core: op indices from
    :meth:`~repro.ir.ddg.Ddg.arrays`, CSR edge walks for Estart and
    violation drops, and a :class:`~repro.sched.mrt.PackedMRT` keyed by
    integer pool ids.  Decisions (and therefore the returned sigma) are
    identical to the historical edge-object implementation -- pinned by
    the golden-schedule equivalence tests.  With an *arena* the
    reservation table is borrowed from its pool instead of allocated.
    """
    arr = ddg.arrays()
    n = arr.n
    order = priority_order_idx(arr, ii)
    pos = [0] * n
    for rank, i in enumerate(order):
        pos[i] = rank
    cursor = 0
    if arena is not None:
        arena.begin_attempt()
        mrt = arena.take_mrt(ii, machine.fus.pool_caps)
    else:
        mrt = PackedMRT(ii, machine.fus.pool_caps)
    ids = arr.ids
    index = arr.index
    pool = arr.pool
    in_ptr, in_src = arr.in_ptr, arr.in_src
    in_lat, in_dist = arr.in_lat, arr.in_dist
    out_ptr, out_dst = arr.out_ptr, arr.out_dst
    out_lat, out_dist = arr.out_lat, arr.out_dist
    sig = [-1] * n          # issue time per op index (-1 = unscheduled)
    last_time = [-1] * n
    unscheduled = set(order)
    # table hoists: the full-row mask list and caps array are mutated in
    # place (never reassigned) during an attempt, so the inlined
    # first_free below -- same mask rotation as PackedMRT.first_free --
    # reads them through loop-invariant locals
    full = mrt._full
    caps = mrt.caps
    counts = mrt._counts
    rows = mrt._rows
    usage = mrt._usage
    where = mrt._where
    all_full = (1 << ii) - 1
    mrt_remove = mrt.remove
    mrt_evict = mrt.evict_for

    while unscheduled:
        if budget <= 0:
            return None
        budget -= 1
        # ready pick: first op of `order` still unscheduled (the cursor
        # only rewinds on evictions, so the scan is O(1) amortised)
        while order[cursor] not in unscheduled:
            cursor += 1
        i = order[cursor]
        unscheduled.discard(i)

        est = 0
        for j in range(in_ptr[i], in_ptr[i + 1]):
            t = sig[in_src[j]]
            if t >= 0:
                cand = t + in_lat[j] - in_dist[j] * ii
                if cand > est:
                    est = cand

        # inlined PackedMRT.first_free (one probe per placement, the
        # attempt's hottest expression)
        p_i = pool[i]
        if caps[p_i] <= 0:
            placed_at = -1
        else:
            mask = full[p_i]
            if not mask:
                placed_at = est
            elif mask == all_full:
                placed_at = -1
            else:
                r = est % ii
                if r:
                    mask = ((mask >> r) | (mask << (ii - r))) & all_full
                fr = ~mask & all_full
                placed_at = est + (fr & -fr).bit_length() - 1
        if placed_at < 0:
            # forced placement with eviction
            placed_at = est
            prev = last_time[i]
            if prev >= 0 and placed_at <= prev:
                placed_at = prev + 1
            evicted = mrt_evict(p_i, placed_at)
            if stats is not None:
                stats.evictions += len(evicted)
            for victim in evicted:
                v = index[victim]
                sig[v] = -1
                unscheduled.add(v)
                if pos[v] < cursor:
                    cursor = pos[v]

        # inlined PackedMRT.place (validity is guaranteed here: the
        # probe above found a free unit, or evict_for just made room)
        op_id = ids[i]
        row = placed_at % ii
        slot = p_i * ii + row
        rows[slot].append(op_id)
        cnt = counts[slot] + 1
        counts[slot] = cnt
        if cnt >= caps[p_i]:
            full[p_i] |= 1 << row
        usage[p_i] += 1
        mrt._load += 1
        mrt._mut += 1
        where[op_id] = (p_i, placed_at)
        sig[i] = placed_at
        last_time[i] = placed_at
        if stats is not None:
            stats.attempts += 1

        # drop scheduled ops whose dependence the new placement violates
        t = placed_at
        for j in range(out_ptr[i], out_ptr[i + 1]):
            d = out_dst[j]
            ts = sig[d]
            if ts >= 0 and d != i and ts + out_dist[j] * ii \
                    < t + out_lat[j]:
                sig[d] = -1
                mrt_remove(ids[d])
                unscheduled.add(d)
                if pos[d] < cursor:
                    cursor = pos[d]
        for j in range(in_ptr[i], in_ptr[i + 1]):
            s = in_src[j]
            tp = sig[s]
            if tp >= 0 and s != i and t + in_dist[j] * ii \
                    < tp + in_lat[j]:
                sig[s] = -1
                mrt_remove(ids[s])
                unscheduled.add(s)
                if pos[s] < cursor:
                    cursor = pos[s]

    return {ids[i]: sig[i] for i in range(n)}


def modulo_schedule(ddg: Ddg, machine: Machine, *,
                    config: Optional[ImsConfig] = None,
                    start_ii: Optional[int] = None) -> ModuloSchedule:
    """Schedule *ddg* on a single-cluster *machine* with IMS.

    Raises :class:`SchedulingError` if no II up to the limit admits a
    schedule (in practice only malformed inputs do).  The machine's latency
    model, if any, is applied first.
    """
    cfg = config or ImsConfig()
    ddg = machine.retime(ddg)
    validate_ddg(ddg)
    if not machine.can_execute(ddg):
        raise SchedulingError(
            f"machine {machine.name} lacks FU classes for {ddg.name!r}")

    report = mii_report(ddg, machine)
    first_ii = max(report.mii, start_ii or 1)
    stats = ScheduleStats(mii=report.mii, res_mii=report.res,
                          rec_mii=report.rec)
    limit = cfg.ii_limit(ddg, first_ii)
    arena = global_arena()

    def probe(ii: int) -> Optional[dict[int, int]]:
        stats.iis_tried += 1
        stats.budget = cfg.budget_for(ddg.n_ops)
        return try_schedule_at_ii(ddg, machine, ii, budget=stats.budget,
                                  stats=stats, arena=arena)

    found = search_ii(probe, first_ii, limit)
    if found is None:
        raise SchedulingError(
            f"no schedule for {ddg.name!r} on {machine.name} "
            f"with II <= {limit}")
    ii, sigma = found
    # normalise: shift so the earliest issue is cycle >= 0 (IMS never
    # goes negative, but keep the invariant explicit)
    shift = min(sigma.values())
    if shift:
        sigma = {o: t - shift for o, t in sigma.items()}
    sched = ModuloSchedule(
        ddg=ddg, ii=ii, sigma=sigma, machine_name=machine.name,
        stats=stats)
    sched.validate(machine.fus.pool_caps)
    return sched
