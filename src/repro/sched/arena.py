"""Scheduling arenas: preallocated, generation-stamped attempt state.

Every II attempt used to build its scratch state from nothing: a fresh
:class:`~repro.sched.mrt.PackedMRT` per cluster (one count vector plus
``N_POOLS * II`` occupant lists each), a fresh ring-adjacency matrix, and
fresh per-op mirrors.  On the paper sweeps -- dozens of loops x machines
x candidate IIs -- that allocation churn dominates the *control* hot
path the way edge objects once dominated the data hot path.

A :class:`SchedArena` owns those buffers across attempts, loops and jobs:

* **MRT pool** -- ``take_mrts(k, ii, caps)`` hands back *k* tables reset
  in O(touched slots) (see :meth:`PackedMRT.reset`); the pool grows to
  the widest attempt ever seen (the loop's *shape class*) and then stops
  allocating.
* **Generation stamps** -- :meth:`begin_attempt` bumps the arena
  generation and recycles every table handed out for the previous
  attempt.  A borrowed table is only valid for the generation it was
  taken in, which is why arena-backed state must never escape the II
  driver that owns the arena (drivers detach plain dicts on success).
* **Topology cache** -- the ring adjacency matrix and cluster list are
  pure functions of the cluster count; they are computed once per ring
  size and shared by every attempt, and so is the slot search's memo of
  allowed clusters per neighbour-cluster mask (:meth:`allowed_table`).
* **Counters** -- ``hits`` (buffer reuses), ``allocs`` (new buffers),
  ``resets`` (attempt begins) feed the perf telemetry
  (``ARENA_COUNTERS.json`` in CI) so arena effectiveness is observable,
  not assumed.

The module-global arena (:func:`global_arena`) is what the II drivers
use by default; worker processes each get their own copy-on-fork
instance, so sweep workers reuse arenas across jobs for free.  The
low-level ``try_*`` entry points keep ``arena=None`` defaults -- unit
tests that poke at attempt state get fresh, unshared buffers.
"""

from __future__ import annotations

from repro.machine.cluster import ClusteredMachine

from .mrt import PackedMRT


class SchedArena:
    """Reusable scratch buffers for scheduling attempts (one per process
    in practice; not thread-safe, like the engines themselves)."""

    __slots__ = ("generation", "resets", "hits", "allocs",
                 "_mrts", "_mrts_out", "_adjacency", "_allowed")

    def __init__(self) -> None:
        self.generation = 0
        self.resets = 0          # attempts begun
        self.hits = 0            # buffers served from the pool
        self.allocs = 0          # buffers newly allocated
        self._mrts: list[PackedMRT] = []
        self._mrts_out = 0       # tables handed out this generation
        #: n_clusters -> (adjacency matrix, adjacency bitmasks, cluster
        #: list); ring topology is a pure function of the cluster count.
        self._adjacency: dict[
            int, tuple[list[list[bool]], list[int], list[int]]] = {}
        #: n_clusters -> allowed-cluster memo (see allowed_table)
        self._allowed: dict[int, dict[int, list[int]]] = {}

    # ---------------------------------------------------------- attempts

    def begin_attempt(self) -> int:
        """Start a new attempt: recycle all borrowed buffers and bump the
        generation stamp.  Returns the new generation."""
        self.generation += 1
        self.resets += 1
        self._mrts_out = 0
        return self.generation

    def take_mrts(self, k: int, ii: int,
                  capacities: dict) -> list[PackedMRT]:
        """Borrow *k* empty reservation tables at *ii* for this attempt.

        Tables stay owned by the arena: they are recycled wholesale at the
        next :meth:`begin_attempt`, so callers must not keep them past the
        attempt that borrowed them.
        """
        pool = self._mrts
        start = self._mrts_out
        end = start + k
        self.hits += min(len(pool), end) - start
        while len(pool) < end:
            pool.append(PackedMRT(ii, capacities))
            self.allocs += 1
        self._mrts_out = end
        return [pool[i].reset(ii, capacities) for i in range(start, end)]

    def take_mrt(self, ii: int, capacities: dict) -> PackedMRT:
        return self.take_mrts(1, ii, capacities)[0]

    # ---------------------------------------------------------- topology

    def ring_topology(self, cm: ClusteredMachine
                      ) -> tuple[list[list[bool]], list[int], list[int]]:
        """``(adjacency, adj_masks, all_clusters)`` for *cm*'s ring,
        cached by cluster count (ring adjacency depends on nothing else).
        ``adj_masks[c]`` has bit *b* set iff *c* and *b* are adjacent."""
        n = cm.n_clusters
        cached = self._adjacency.get(n)
        if cached is None:
            adj = [[cm.are_adjacent(a, b) for b in range(n)]
                   for a in range(n)]
            masks = [sum(1 << b for b in range(n) if row[b])
                     for row in adj]
            cached = (adj, masks, list(range(n)))
            self._adjacency[n] = cached
            self.allocs += 1
        else:
            self.hits += 1
        return cached

    def allowed_table(self, n_clusters: int) -> dict[int, list[int]]:
        """The memo, shared by every attempt on a ring of *n_clusters*,
        that maps a bitmask of neighbour clusters to the clusters
        adjacent to all of them.  Starts empty; the slot search fills in
        each mask it meets."""
        table = self._allowed.get(n_clusters)
        if table is None:
            table = self._allowed[n_clusters] = {}
        return table

    # ---------------------------------------------------------- telemetry

    def counters(self) -> dict:
        """Counters for telemetry records and the CI artifact."""
        return {"generation": self.generation, "resets": self.resets,
                "hits": self.hits, "allocs": self.allocs,
                "pooled_mrts": len(self._mrts)}


#: Process-wide arena used by the II drivers.  Fork-based sweep workers
#: inherit a snapshot and then grow their own copy, so arena reuse inside
#: each worker needs no extra plumbing.
_GLOBAL_ARENA = SchedArena()


def global_arena() -> SchedArena:
    """The process-wide scheduling arena."""
    return _GLOBAL_ARENA


def arena_counters() -> dict:
    """Counters of the process-wide arena (telemetry surface)."""
    return _GLOBAL_ARENA.counters()
