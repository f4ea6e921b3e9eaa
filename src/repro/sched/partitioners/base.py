"""The search state every cluster-partitioning engine works on.

:class:`PartitionState` is one II attempt's mutable state: the
per-cluster modulo reservation tables, the packed ``sig``/``cl``
mirrors and the flat caches the inner loop depends on.  During a probe
the search loop (:class:`~repro.sched.partitioners.slotsearch.
SlotSearchPartitioner`) owns that packed state alone; the id-keyed
``sigma``/``cluster_of`` maps and each table's derived fields are built
once, when the probe ends (:meth:`PartitionState.close` and
:meth:`PartitionState.publish`), so they cannot drift from the packed
state mid-search.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine

from ..arena import SchedArena
from ..mrt import PackedMRT


class PartitionState:
    """Mutable search state for one II attempt on a clustered machine.

    Built on the packed core: per-cluster
    :class:`~repro.sched.mrt.PackedMRT` tables and the loop's
    :class:`~repro.ir.ddgarrays.DdgArrays` lowering.  The engine inner
    loops work in op-*index* space through ``sig``/``cl`` (flat lists,
    -1 = unscheduled) and keep the tables' occupant rows and full-row
    masks current; :meth:`close` rebuilds the rest of every table from
    them when the probe ends, and :meth:`publish` builds the public
    ``sigma``/``cluster_of`` dicts, keyed by op id in order of last
    placement (drivers, tests and the MOVE pipeline consume those).

    With an *arena* the reservation tables and ring topology come from
    the arena's pools (reset in O(touched) between attempts) instead of
    being rebuilt; such a state is only valid until the arena's next
    ``begin_attempt`` and must not outlive the II driver that owns the
    arena -- the driver detaches the plain result dicts on success.
    """

    def __init__(self, ddg: Ddg, cm: ClusteredMachine, ii: int,
                 arena: Optional[SchedArena] = None) -> None:
        self.ddg = ddg
        self.cm = cm
        self.ii = ii
        self.arr = arr = ddg.arrays()
        self.sigma: dict[int, int] = {}
        self.cluster_of: dict[int, int] = {}
        caps = cm.cluster.fus.pool_caps
        n = cm.n_clusters
        if arena is not None:
            arena.begin_attempt()
            self.mrts = arena.take_mrts(n, ii, caps)
            self.adj, self.adj_mask, self.all_clusters = \
                arena.ring_topology(cm)
            self.allowed_of = arena.allowed_table(n)
        else:
            self.mrts = [PackedMRT(ii, caps) for _ in range(n)]
            self.adj = [[cm.are_adjacent(a, b) for b in range(n)]
                        for a in range(n)]
            self.adj_mask = [sum(1 << b for b in range(n) if row[b])
                             for row in self.adj]
            self.all_clusters = list(range(n))
            self.allowed_of = {}
        self.xlat = cm.inter_cluster_latency
        # packed mirrors of sigma / cluster_of, indexed by op index
        self.sig = [-1] * arr.n
        self.cl = [-1] * arr.n

    # ------------------------------------------------------- mutation

    def close(self, load: list[int]) -> None:
        """End a search loop's probe: rebuild every table's counts,
        usage, placement map and load from ``sig``/``cl``, the occupant
        rows the loop kept, and its per-cluster *load*.

        The tables come from a reset (all counts, usage and placements
        zero), so only occupied slots are written.  Bumping the mutation
        stamp voids any memo built before the probe.
        """
        arr = self.arr
        ii = self.ii
        ids, pool = arr.ids, arr.pool
        sig = self.sig
        mrts = self.mrts
        counts_l = [m._counts for m in mrts]
        rows_l = [m._rows for m in mrts]
        usage_l = [m._usage for m in mrts]
        where_l = [m._where for m in mrts]
        for i, c in enumerate(self.cl):
            if c >= 0:
                p = pool[i]
                t = sig[i]
                slot = p * ii + t % ii
                counts_l[c][slot] = len(rows_l[c][slot])
                usage_l[c][p] += 1
                where_l[c][ids[i]] = (p, t)
        for m, n_placed in zip(mrts, load):
            m._load = n_placed
            m._mut += 1

    def publish(self, log: list[int]) -> None:
        """Build the public ``sigma``/``cluster_of`` maps of a finished
        probe in order of last placement; *log* holds the op index placed
        in each round, so an op's last entry is its current placement."""
        ids = self.arr.ids
        sig, cl = self.sig, self.cl
        # newest first, each op once; reversed() restores the order
        newest = dict.fromkeys(reversed(log))
        self.sigma = {ids[i]: sig[i] for i in reversed(newest)}
        self.cluster_of = {ids[i]: cl[i] for i in reversed(newest)}

    # -------------------------------------------------------- queries

    @staticmethod
    def estart_from(arrivals: list[tuple[int, int]], cluster: int,
                    xlat: int) -> int:
        """Earliest start on *cluster* given one round's arrival terms:
        ``(base, src_cluster)`` per scheduled in-edge, where ``base =
        sigma(src) + latency - distance * II`` and ``src_cluster`` is -1
        when no ring latency can apply (a term the slot search builds
        inline, once per placement round)."""
        est = 0
        for base, sc in arrivals:
            if sc >= 0 and sc != cluster:
                base += xlat
            if base > est:
                est = base
        return est

    def scheduled_nbr_clusters_idx(self, i: int) -> dict[int, int]:
        """Scheduled DATA-neighbour op *index* -> its cluster."""
        arr = self.arr
        cl = self.cl
        ptr = arr.nbr_ptr
        nbr = arr.nbr
        out: dict[int, int] = {}
        for j in range(ptr[i], ptr[i + 1]):
            x = nbr[j]
            c = cl[x]
            if c >= 0:
                out[x] = c
        return out

    def allowed_in(self, need: int) -> list[int]:
        """Clusters adjacent to every cluster in the bitmask *need*
        (bitmask intersection over the cached ring topology), memoised
        in ``allowed_of``; the list is shared, never to be mutated."""
        allowed = self.allowed_of.get(need)
        if allowed is None:
            masks = self.adj_mask
            allowed = self.allowed_of[need] = [
                c for c in self.all_clusters if masks[c] & need == need]
        return allowed

