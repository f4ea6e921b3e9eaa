"""The cluster-partitioner contract.

A *partitioner* is one engine that attempts to place every op of a loop
DDG both *in time* (a modulo row) and *in space* (a ring cluster) at one
fixed II.  The surrounding II search, normalisation and validation live
in :func:`repro.sched.partition.partitioned_schedule`, which is
engine-agnostic: it asks the registry for an engine by name and calls
:meth:`Partitioner.try_at_ii` per candidate II.

Engines register themselves with
:func:`~repro.sched.partitioners.registry.register_partitioner` and are
looked up by name (``PartitionConfig(partitioner="agglomerative")``,
``PipelineOptions(partitioner=...)``, ``--partitioner`` on the CLI).

The mutable search state (:class:`PartitionState`) is shared by all
engines: it owns the per-cluster modulo reservation tables, the packed
``sig``/``cl`` mirrors and the flat caches the inner loop depends on.
During a probe the search loop owns that packed state alone; the
id-keyed ``sigma``/``cluster_of`` maps and each table's derived fields
are built once, when the probe ends (:meth:`PartitionState.close` and
:meth:`PartitionState.publish`), so they cannot drift from the packed
state mid-search.
"""

from __future__ import annotations

import abc
import random as _random
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine

from ..arena import SchedArena
from ..mrt import PackedMRT
from ..schedule import ScheduleStats

if TYPE_CHECKING:  # pragma: no cover
    pass


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
    :meth:`place_idx` is the one-op form that keeps everything current
    at once.

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

    def place_idx(self, i: int, cluster: int, t: int) -> None:
        """Place op index *i* on *cluster* at time *t* (all bookkeeping:
        MRT slot, packed mirrors, public dicts)."""
        op_id = self.arr.ids[i]
        self.mrts[cluster].place(op_id, self.arr.pool[i], t)
        self.sig[i] = t
        self.cl[i] = cluster
        self.sigma[op_id] = t
        self.cluster_of[op_id] = cluster

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

    def pred_arrivals_idx(self, i: int) -> list[tuple[int, int]]:
        """Scheduled-predecessor arrival terms for one placement round.

        Returns ``(base, src_cluster)`` per scheduled in-edge, where
        ``base = sigma(src) + latency - distance * II`` and
        ``src_cluster`` is -1 when no inter-cluster penalty can apply
        (zero ring latency or a non-DATA edge).  Computing this once per
        round turns the per-cluster estart into a max over a short list
        instead of a fresh edge walk per candidate cluster.
        """
        arr = self.arr
        sig = self.sig
        cl = self.cl
        ii = self.ii
        xlat = self.xlat
        in_src, in_lat = arr.in_src, arr.in_lat
        in_dist, in_data = arr.in_dist, arr.in_data
        out: list[tuple[int, int]] = []
        ptr = arr.in_ptr
        for j in range(ptr[i], ptr[i + 1]):
            s = in_src[j]
            t = sig[s]
            if t < 0:
                continue
            base = t + in_lat[j] - in_dist[j] * ii
            sc = cl[s] if xlat and in_data[j] else -1
            out.append((base, sc))
        return out

    @staticmethod
    def estart_from(arrivals: list[tuple[int, int]], cluster: int,
                    xlat: int) -> int:
        """Earliest start on *cluster* given cached arrival terms."""
        est = 0
        for base, sc in arrivals:
            if sc >= 0 and sc != cluster:
                base += xlat
            if base > est:
                est = base
        return est

    def estart(self, op_id: int, cluster: int) -> int:
        """Earliest start of *op_id* on *cluster* (uncached form)."""
        return self.estart_from(
            self.pred_arrivals_idx(self.arr.index[op_id]), cluster,
            self.xlat)

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

    def allowed_from_nbrs(self, nbr_clusters: dict[int, int]) -> list[int]:
        """Clusters adjacent to every scheduled DATA neighbour."""
        need = 0
        for nc in nbr_clusters.values():
            need |= 1 << nc
        return self.allowed_in(need)

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


class Partitioner(abc.ABC):
    """Base class of all cluster-partitioning engines.

    Subclasses set ``name`` (the registry key) and ``description`` (one
    line for ``repro-vliw partitioners``) and implement :meth:`try_at_ii`.
    """

    #: Registry key; also the value of ``PartitionConfig.partitioner``.
    name: ClassVar[str] = ""
    #: One-line summary shown by ``repro-vliw partitioners``.
    description: ClassVar[str] = ""
    #: True when attempts consume shared randomness (the ``random``
    #: engine): probe outcomes then depend on the *sequence* of IIs
    #: probed, so the II driver must keep the sequential linear walk --
    #: adaptive bracketing would visit different IIs and desynchronise
    #: the stream, breaking linear/adaptive schedule parity.
    stochastic: ClassVar[bool] = False

    @abc.abstractmethod
    def try_at_ii(self, ddg: Ddg, cm: ClusteredMachine, ii: int, *,
                  budget: int,
                  pinned: Optional[dict[int, int]] = None,
                  relax_adjacency: bool = False,
                  stats: Optional[ScheduleStats] = None,
                  rng: Optional[_random.Random] = None,
                  arena: Optional[SchedArena] = None,
                  ) -> Optional[PartitionState]:
        """One partitioned-scheduling attempt at a fixed II.

        Returns the final :class:`PartitionState` (``sigma`` +
        ``cluster_of``) or ``None`` when the placement budget runs out.
        ``pinned`` fixes some ops' clusters; ``relax_adjacency`` disables
        the ring constraint (the MOVE pipeline's first pass).  With an
        *arena* the attempt state borrows the arena's pooled buffers;
        the returned state is then only valid until the arena's next
        attempt begins (II drivers consume it immediately).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<partitioner {self.name!r}>"
