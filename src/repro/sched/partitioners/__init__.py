"""Cluster-partitioning engines.

Every engine attempts to place a loop's ops in time *and* space at one
fixed II (``try_at_ii``); the II search in
:func:`repro.sched.partition.partitioned_schedule` is the same for all
of them.  All five share the slot-search loop of
:class:`~repro.sched.partitioners.slotsearch.SlotSearchPartitioner`:

* ``"affinity"`` (default) -- the paper's heuristic: most scheduled DATA
  neighbours, then earliest slot, then lightest load.
* ``"agglomerative"`` -- two-phase: merge affinity-weighted subgraphs
  under per-cluster ResMII balance, lay the groups around the ring, then
  slot-search with every op pinned to its cluster.
* ``"balance"`` -- least-loaded cluster first.
* ``"first"``   -- earliest slot, lowest cluster index (naive baseline).
* ``"random"``  -- uniformly random feasible candidate (seeded).

:data:`PARTITIONERS` is the closed table of them:
``PartitionConfig(partitioner=...)``, ``PipelineOptions``, the service's
job specs and the CLI's ``--partitioner``/``partitioners`` read it, and
:func:`repro.sched.schedule.check_engine` checks a name against it.
"""

from __future__ import annotations

from .base import PartitionState
from .slotsearch import (AffinityPartitioner, BalancePartitioner,
                         FirstFitPartitioner, RandomPartitioner,
                         SlotSearchPartitioner)
from .agglomerative import (AgglomerativePartitioner,
                            agglomerative_assignment)

#: name -> engine class, the default first.
PARTITIONERS: dict[str, type[SlotSearchPartitioner]] = {
    "affinity": AffinityPartitioner,
    "agglomerative": AgglomerativePartitioner,
    "balance": BalancePartitioner,
    "first": FirstFitPartitioner,
    "random": RandomPartitioner,
}

#: The engine used when nothing else is asked for.
DEFAULT_PARTITIONER = "affinity"

__all__ = [
    "PartitionState", "PARTITIONERS",
    "SlotSearchPartitioner", "AffinityPartitioner", "BalancePartitioner",
    "FirstFitPartitioner", "RandomPartitioner",
    "AgglomerativePartitioner", "agglomerative_assignment",
    "DEFAULT_PARTITIONER",
]
