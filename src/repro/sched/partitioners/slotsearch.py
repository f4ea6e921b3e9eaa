"""The slot-search partitioning engine family (paper Section 4).

One shared search loop -- partitioned IMS: every op is placed in the best
(cluster, slot) candidate, with forced placement, eviction and
deadlock-aging when the ring constraint or the MRTs refuse -- and one
thin subclass per cluster-choice heuristic (the engines compared in
ablation A2):

* ``"affinity"`` (default) -- prefer the cluster holding the most
  scheduled DATA neighbours, then earliest slot, then lightest load.
* ``"balance"``  -- prefer the least-loaded cluster, then earliest slot.
* ``"first"``    -- earliest slot, lowest cluster index (naive baseline).
* ``"random"``   -- uniformly random feasible candidate (seeded).

The inner loop is the hottest code in the clustered experiments, so the
search keeps flat state (:class:`~repro.sched.partitioners.base.
PartitionState`), walks the priority order with an index cursor (the
ready-op pick is O(1) amortised instead of an O(n) scan per placement),
computes the earliest start once per placement round instead of once
per candidate cluster, and evicts on the packed state alone: the
tables' derived fields and the public id-keyed maps are built once,
when the probe ends.
"""

from __future__ import annotations

import random as _random
from typing import Optional

from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine
from repro.machine.resources import HARDWARE_POOLS

from ..arena import SchedArena
from ..priority import priority_order_idx
from ..schedule import ScheduleStats
from .base import Partitioner, PartitionState
from .registry import register_partitioner


class SlotSearchPartitioner(Partitioner):
    """Shared search loop; subclasses supply the candidate ranking."""

    def candidate_key(self, aff: int, t: int, load: int, c: int,
                      rng: _random.Random) -> tuple:
        """Ranking key of one feasible (cluster, slot) candidate; the
        minimum key wins.  ``aff`` counts scheduled DATA neighbours on
        cluster ``c``, ``t`` is the earliest free slot there, ``load``
        the cluster's current reservation count."""
        raise NotImplementedError

    def try_at_ii(self, ddg: Ddg, cm: ClusteredMachine, ii: int, *,
                  budget: int,
                  pinned: Optional[dict[int, int]] = None,
                  relax_adjacency: bool = False,
                  stats: Optional[ScheduleStats] = None,
                  rng: Optional[_random.Random] = None,
                  arena: Optional[SchedArena] = None,
                  ) -> Optional[PartitionState]:
        rng = rng or _random.Random(0)
        state = PartitionState(ddg, cm, ii, arena=arena)
        arr = state.arr
        index = arr.index
        # pinned op index -> its one-cluster allowed list, built once
        pinned_allowed = ({index[o]: [c] for o, c in pinned.items()}
                          if pinned else {})
        order = priority_order_idx(arr, ii)
        n = arr.n
        pos = [0] * n
        for rank, i in enumerate(order):
            pos[i] = rank
        left = n                 # unscheduled ops (those with sig < 0)
        cursor = 0
        xlat = state.xlat
        key_fn = self.candidate_key
        estart_from = PartitionState.estart_from
        pool = arr.pool
        ids = arr.ids
        sig = state.sig
        cl = state.cl
        all_clusters = state.all_clusters
        last_time = [-1] * n
        in_ptr, in_src = arr.in_ptr, arr.in_src
        in_lat, in_dist = arr.in_lat, arr.in_dist
        out_ptr, out_dst = arr.out_ptr, arr.out_dst
        out_lat, out_dist = arr.out_lat, arr.out_dist
        nbr_ptr, nbr_arr = arr.nbr_ptr, arr.nbr
        in_data = arr.in_data
        # the loop owns the packed state: it keeps each table's occupant
        # rows and full-row masks (mutated in place, never reassigned)
        # plus a local per-cluster load, and PartitionState.close()
        # rebuilds the tables' derived fields once the probe ends
        mrts = state.mrts
        n_clusters = len(mrts)
        full_l = [m._full for m in mrts]
        rows_l = [m._rows for m in mrts]
        load = [0] * n_clusters
        caps0 = mrts[0].caps     # the ring's clusters share one vector
        all_full = (1 << ii) - 1
        # neighbour-cluster mask -> clusters adjacent to all of them
        allowed_of = state.allowed_of
        allowed_in = state.allowed_in
        # per-round scratch, emptied at the top of every round
        aff = [0] * n_clusters   # scheduled DATA neighbours per cluster
        no_aff = aff[:]
        arrivals: list[tuple[int, int]] = []
        # op index per placement round: its length is the round count,
        # and publish() reads the public maps' order (order of last
        # placement) off it
        log: list[int] = []
        evictions = 0
        # aging: repeated adjacency deadlocks rotate through cluster
        # choices (a deterministic heuristic would otherwise ping-pong
        # forever between two mutually-exclusive placements)
        deadlocks: dict[int, int] = {}

        def drop(v: int) -> None:
            """Evict one op index: release its MRT slot and packed
            mirrors; re-adding may rewind the cursor."""
            nonlocal cursor, left
            c = cl[v]
            p = pool[v]
            row = sig[v] % ii
            rows_l[c][p * ii + row].remove(ids[v])
            full_l[c][p] &= ~(1 << row)
            load[c] -= 1
            sig[v] = -1
            cl[v] = -1
            left += 1
            if pos[v] < cursor:
                cursor = pos[v]

        try:
            while left:
                if budget <= 0:
                    return None
                budget -= 1
                # ready pick: first op of `order` still unscheduled.  The
                # cursor only moves forward here; drop() rewinds it when
                # an eviction re-activates an earlier op.
                i = order[cursor]
                while sig[i] >= 0:
                    cursor += 1
                    i = order[cursor]

                # scheduled DATA neighbours: per-cluster affinity and the
                # mask of their clusters
                aff[:] = no_aff
                need = 0
                for j in range(nbr_ptr[i], nbr_ptr[i + 1]):
                    c = cl[nbr_arr[j]]
                    if c >= 0:
                        need |= 1 << c
                        aff[c] += 1
                if pinned_allowed and i in pinned_allowed:
                    allowed = pinned_allowed[i]
                elif relax_adjacency:
                    allowed = all_clusters
                else:
                    allowed = allowed_of.get(need) or allowed_in(need)
                # earliest start: one value for every cluster unless a
                # scheduled DATA predecessor pays the ring latency (then
                # `arrivals` holds those terms plus the common floor)
                est = 0
                if arrivals:
                    arrivals.clear()
                for j in range(in_ptr[i], in_ptr[i + 1]):
                    s = in_src[j]
                    t = sig[s]
                    if t < 0:
                        continue
                    t += in_lat[j] - in_dist[j] * ii
                    if xlat and in_data[j]:
                        arrivals.append((t, cl[s]))
                    elif t > est:
                        est = t
                if arrivals:
                    arrivals.append((est, -1))

                # ---- normal placement: best (cluster, slot) candidate --
                best: Optional[tuple] = None    # key of (cluster, t)
                p_i = pool[i]
                if caps0[p_i] > 0:
                    # inlined PackedMRT.first_free: one probe per
                    # candidate cluster is the search's hottest
                    # expression (with no unit of this pool anywhere,
                    # every probe would return -1 -- same outcome as
                    # skipping the loop)
                    for c in allowed:
                        mask = full_l[c][p_i]
                        if mask == all_full:
                            continue
                        e = (estart_from(arrivals, c, xlat) if arrivals
                             else est)
                        if mask:
                            r = e % ii
                            if r:
                                mask = ((mask >> r) | (mask << (ii - r))) \
                                    & all_full
                            fr = ~mask & all_full
                            e += (fr & -fr).bit_length() - 1
                        key = key_fn(aff[c], e, load[c], c, rng)
                        if best is None or key < best:
                            best, cluster, t = key, c, e

                if best is None:
                    # ---- forced placement -----------------------------
                    if allowed:
                        # adjacency satisfiable but no free slot: evict
                        # on the cluster with the best affinity, then the
                        # lightest load (`allowed` ascends, so the first
                        # of equals is the lowest index)
                        cluster = allowed[0]
                        for c in allowed:
                            if aff[c] > aff[cluster] or (
                                    aff[c] == aff[cluster]
                                    and load[c] < load[cluster]):
                                cluster = c
                    else:
                        # adjacency deadlock: rank clusters by violation
                        # count and rotate through the ranking as the
                        # same op deadlocks again (aging); after a full
                        # rotation, clear the whole data neighbourhood to
                        # re-seed the region
                        k = deadlocks.get(i, 0)
                        deadlocks[i] = k + 1
                        adj = state.adj
                        nbr_clusters = state.scheduled_nbr_clusters_idx(i)
                        ranked = sorted(
                            all_clusters,
                            key=lambda c: (
                                sum(1 for nc in nbr_clusters.values()
                                    if not adj[c][nc]),
                                load[c], c))
                        cluster = ranked[k % len(ranked)]
                        wide = k >= len(ranked)
                        for nbr, nc in nbr_clusters.items():
                            if wide or not adj[cluster][nc]:
                                drop(nbr)
                                evictions += 1
                    t = (estart_from(arrivals, cluster, xlat)
                         if arrivals else est)
                    prev = last_time[i]
                    if prev >= 0 and t <= prev:
                        t = prev + 1
                    # inlined PackedMRT.conflicts: the newest occupants
                    # of the row leave first
                    cap = caps0[p_i]
                    if not cap:
                        raise ValueError(
                            f"machine has no {HARDWARE_POOLS[p_i].value} "
                            f"units at all")
                    occupants = rows_l[cluster][p_i * ii + t % ii]
                    spare = len(occupants) - cap + 1
                    if spare > 0:
                        for victim in occupants[:-(spare + 1):-1]:
                            drop(index[victim])
                        evictions += spare

                # inlined PackedMRT.place (room is guaranteed: the probe
                # found a free slot or the forced path just dropped the
                # conflicting occupants)
                row = t % ii
                occupants = rows_l[cluster][p_i * ii + row]
                occupants.append(ids[i])
                if len(occupants) >= caps0[p_i]:
                    full_l[cluster][p_i] |= 1 << row
                load[cluster] += 1
                sig[i] = t
                cl[i] = cluster
                left -= 1
                last_time[i] = t
                log.append(i)

                # ---- drop successors whose dependence the new placement
                # violates.  No predecessor can be violated: t is at
                # least est, which bounds every scheduled predecessor's
                # arrival, and this round's evictions only unschedule.
                for j in range(out_ptr[i], out_ptr[i + 1]):
                    d = out_dst[j]
                    ts = sig[d]
                    if ts >= 0 and d != i and ts + out_dist[j] * ii \
                            < t + out_lat[j]:
                        drop(d)
        finally:
            state.close(load)
            if stats is not None:
                stats.attempts += len(log)
                stats.evictions += evictions
        state.publish(log)
        return state


@register_partitioner
class AffinityPartitioner(SlotSearchPartitioner):
    name = "affinity"
    description = ("most scheduled DATA neighbours first, then earliest "
                   "slot, then lightest load (paper default)")

    def candidate_key(self, aff: int, t: int, load: int, c: int,
                      rng: _random.Random) -> tuple:
        return (-aff, t, load, c)


@register_partitioner
class BalancePartitioner(SlotSearchPartitioner):
    name = "balance"
    description = "least-loaded cluster first, then earliest slot"

    def candidate_key(self, aff: int, t: int, load: int, c: int,
                      rng: _random.Random) -> tuple:
        return (load, t, -aff, c)


@register_partitioner
class FirstFitPartitioner(SlotSearchPartitioner):
    name = "first"
    description = "earliest slot, lowest cluster index (naive baseline)"

    def candidate_key(self, aff: int, t: int, load: int, c: int,
                      rng: _random.Random) -> tuple:
        return (t, c)


@register_partitioner
class RandomPartitioner(SlotSearchPartitioner):
    name = "random"
    description = "uniformly random feasible candidate (seeded)"
    # draws from the shared seeded stream on every candidate: probe
    # results depend on probe order, so the II driver pins this engine
    # to the linear walk (see Partitioner.stochastic)
    stochastic = True

    def candidate_key(self, aff: int, t: int, load: int, c: int,
                      rng: _random.Random) -> tuple:
        return (rng.random(),)
