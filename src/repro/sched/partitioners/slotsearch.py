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
and computes the predecessor arrival terms once per placement round
instead of once per candidate cluster.
"""

from __future__ import annotations

import random as _random
from typing import Optional

from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine

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
        pinned_idx = ({index[o]: c for o, c in pinned.items()}
                      if pinned else {})
        order = priority_order_idx(arr, ii)
        n = arr.n
        pos = [0] * n
        for rank, i in enumerate(order):
            pos[i] = rank
        unscheduled = set(order)
        cursor = 0
        xlat = state.xlat
        key_fn = self.candidate_key
        estart_from = PartitionState.estart_from
        pool = arr.pool
        sig = state.sig
        cl = state.cl
        adj_mask = state.adj_mask
        all_clusters = state.all_clusters
        last_time = [-1] * n
        in_ptr, in_src = arr.in_ptr, arr.in_src
        in_lat, in_dist = arr.in_lat, arr.in_dist
        out_ptr, out_dst = arr.out_ptr, arr.out_dst
        out_lat, out_dist = arr.out_lat, arr.out_dist
        nbr_ptr, nbr_arr = arr.nbr_ptr, arr.nbr
        in_data = arr.in_data
        # table hoists for the inlined per-candidate first_free below:
        # every cluster's full-row mask list is mutated in place (never
        # reassigned) during an attempt, and the ring's clusters share
        # one capacity vector, so the probes read loop-invariant locals
        mrts = state.mrts
        full_l = [m._full for m in mrts]
        counts_l = [m._counts for m in mrts]
        rows_l = [m._rows for m in mrts]
        usage_l = [m._usage for m in mrts]
        where_l = [m._where for m in mrts]
        caps0 = mrts[0].caps
        all_full = (1 << ii) - 1
        ids = arr.ids
        sigma_d = state.sigma
        cluster_d = state.cluster_of
        lastt_d = state.last_time
        # aging: repeated adjacency deadlocks rotate through cluster
        # choices (a deterministic heuristic would otherwise ping-pong
        # forever between two mutually-exclusive placements)
        deadlocks: dict[int, int] = {}

        def drop(victim: int) -> None:
            """Evict one op index; re-adding may rewind the cursor."""
            nonlocal cursor
            state.unschedule_idx(victim)
            unscheduled.add(victim)
            p = pos[victim]
            if p < cursor:
                cursor = p

        while unscheduled:
            if budget <= 0:
                return None
            budget -= 1
            # ready pick: first op of `order` still unscheduled.  The
            # cursor only moves forward here; drop() rewinds it when an
            # eviction re-activates an earlier op.
            while order[cursor] not in unscheduled:
                cursor += 1
            i = order[cursor]
            unscheduled.discard(i)

            # inlined scheduled_nbr_clusters_idx / allowed_from_nbrs /
            # pred_arrivals_idx (the three hottest per-round queries;
            # the methods on PartitionState stay the public forms)
            nbr_clusters: dict[int, int] = {}
            aff_count: dict[int, int] = {}
            need = 0
            for j in range(nbr_ptr[i], nbr_ptr[i + 1]):
                x = nbr_arr[j]
                c = cl[x]
                if c >= 0:
                    nbr_clusters[x] = c
                    need |= 1 << c
                    aff_count[c] = aff_count.get(c, 0) + 1
            if i in pinned_idx:
                allowed = [pinned_idx[i]]
            elif relax_adjacency or not need:
                allowed = all_clusters
            else:
                allowed = [c for c in all_clusters
                           if adj_mask[c] & need == need]
            arrivals: list[tuple[int, int]] = []
            uniform = True
            for j in range(in_ptr[i], in_ptr[i + 1]):
                s = in_src[j]
                t = sig[s]
                if t < 0:
                    continue
                base = t + in_lat[j] - in_dist[j] * ii
                if xlat and in_data[j]:
                    arrivals.append((base, cl[s]))
                    uniform = False
                else:
                    arrivals.append((base, -1))
            uniform_est = None
            if uniform:
                est0 = 0
                for base, _sc in arrivals:
                    if base > est0:
                        est0 = base
                uniform_est = est0

            # ---- normal placement: best (cluster, slot) candidate ------
            best: Optional[tuple[tuple, int, int]] = None  # key, c, slot
            p_i = pool[i]
            if caps0[p_i] > 0:
                # inlined PackedMRT.first_free / load(): one probe per
                # candidate cluster is the search's hottest expression
                # (with no unit of this pool anywhere, every probe would
                # return -1 -- same outcome as skipping the loop)
                for c in allowed:
                    est = (uniform_est if uniform_est is not None
                           else estart_from(arrivals, c, xlat))
                    mask = full_l[c][p_i]
                    if mask:
                        if mask == all_full:
                            continue
                        r = est % ii
                        if r:
                            mask = ((mask >> r) | (mask << (ii - r))) \
                                & all_full
                        fr = ~mask & all_full
                        t = est + (fr & -fr).bit_length() - 1
                    else:
                        t = est
                    key = key_fn(aff_count.get(c, 0), t, mrts[c]._load,
                                 c, rng)
                    if best is None or key < best[0]:
                        best = (key, c, t)

            if best is not None:
                _, cluster, t = best
            else:
                # ---- forced placement ---------------------------------
                if allowed:
                    # adjacency satisfiable but no free slot: evict on
                    # the cluster with the best affinity
                    cluster = min(
                        allowed,
                        key=lambda c: (-aff_count.get(c, 0),
                                       mrts[c].load(), c))
                else:
                    # adjacency deadlock: rank clusters by violation
                    # count and rotate through the ranking as the same op
                    # deadlocks again (aging); after a full rotation,
                    # clear the whole data neighbourhood to re-seed the
                    # region
                    k = deadlocks.get(i, 0)
                    deadlocks[i] = k + 1
                    adj = state.adj
                    ranked = sorted(
                        state.all_clusters,
                        key=lambda c: (
                            sum(1 for nc in nbr_clusters.values()
                                if not adj[c][nc]),
                            mrts[c].load(), c))
                    cluster = ranked[k % len(ranked)]
                    wide = k >= len(ranked)
                    for nbr in sorted(nbr_clusters):
                        if wide or not adj[cluster][nbr_clusters[nbr]]:
                            drop(nbr)
                            if stats is not None:
                                stats.evictions += 1
                t = estart_from(arrivals, cluster, xlat)
                prev = last_time[i]
                if prev >= 0 and t <= prev:
                    t = prev + 1
                # every victim leaves through drop() -> unschedule so
                # MRT, sigma/cluster_of and the cursor stay consistent
                victims = mrts[cluster].conflicts(p_i, t)
                for victim in victims:
                    drop(index[victim])
                if stats is not None:
                    stats.evictions += len(victims)

            # inlined PartitionState.place_idx + PackedMRT.place (room is
            # guaranteed: the probe found a free slot or the forced path
            # just dropped the conflicting occupants)
            oid = ids[i]
            mrt = mrts[cluster]
            row = t % ii
            slot = p_i * ii + row
            rows_l[cluster][slot].append(oid)
            cnt = counts_l[cluster][slot] + 1
            counts_l[cluster][slot] = cnt
            if cnt >= caps0[p_i]:
                full_l[cluster][p_i] |= 1 << row
            usage_l[cluster][p_i] += 1
            mrt._load += 1
            mrt._mut += 1
            where_l[cluster][oid] = (p_i, t)
            sig[i] = t
            cl[i] = cluster
            sigma_d[oid] = t
            cluster_d[oid] = cluster
            lastt_d[oid] = t
            last_time[i] = t
            if stats is not None:
                stats.attempts += 1

            # ---- drop ops whose dependence the new placement violates --
            for j in range(out_ptr[i], out_ptr[i + 1]):
                d = out_dst[j]
                ts = sig[d]
                if ts >= 0 and d != i and ts + out_dist[j] * ii \
                        < t + out_lat[j]:
                    drop(d)
            for j in range(in_ptr[i], in_ptr[i + 1]):
                s = in_src[j]
                tp = sig[s]
                if tp >= 0 and s != i and t + in_dist[j] * ii \
                        < tp + in_lat[j]:
                    drop(s)

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
