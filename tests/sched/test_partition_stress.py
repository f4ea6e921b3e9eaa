"""Stress/regression tests for the partitioner's backtracking machinery.

The deterministic affinity heuristic used to livelock on recurrence
chains spanning many clusters (op A evicts neighbour B, B re-places and
evicts A, forever): these tests pin the deadlock-aging fix with the exact
family of loops that exposed it -- unrolled accumulators whose carried
chain must snake around the whole ring.
"""

import pytest

from repro.ir.copyins import insert_copies
from repro.ir.unroll import unroll
from repro.machine.cluster import make_clustered
from repro.sched.mii import mii
from repro.sched.partition import PartitionConfig, partitioned_schedule
from repro.workloads.kernels import dot_product, prefix_sum, state_update


@pytest.mark.parametrize("n_clusters", [4, 5, 6])
@pytest.mark.parametrize("factor", [4, 6, 8])
def test_unrolled_accumulator_chain(n_clusters, factor):
    """The original livelock case: dot product unrolled to a rotation
    chain as long as (or longer than) the ring."""
    cm = make_clustered(n_clusters)
    work = insert_copies(unroll(dot_product(), factor)).ddg
    s = partitioned_schedule(work, cm)
    s.validate(cm.cluster.fus.as_dict(), adjacency=cm)
    # the accumulator chain bounds II at `factor` adds on shared units;
    # the partitioner must land within one cycle of the machine-wide MII
    assert s.ii <= max(mii(work, cm), factor) + 1


@pytest.mark.parametrize("factor", [4, 6])
def test_unrolled_scan_with_stores(factor):
    """prefix sum adds a store (and hence a copy on the carried value)
    per unroll copy -- more eviction pressure."""
    cm = make_clustered(6)
    work = insert_copies(unroll(prefix_sum(), factor)).ddg
    s = partitioned_schedule(work, cm)
    s.validate(cm.cluster.fus.as_dict(), adjacency=cm)


def test_mutual_recurrence_across_ring():
    """Two mutually-recurrent state variables, unrolled: cross edges in
    both directions every copy."""
    cm = make_clustered(5)
    work = insert_copies(unroll(state_update(), 5)).ddg
    s = partitioned_schedule(work, cm)
    s.validate(cm.cluster.fus.as_dict(), adjacency=cm)


def test_budget_stays_bounded():
    """The aging fix must converge quickly, not just eventually: the
    original livelock burned the full budget at every II."""
    cm = make_clustered(6)
    work = insert_copies(unroll(dot_product(), 6)).ddg
    s = partitioned_schedule(work, cm)
    # one or two II attempts, a bounded number of evictions
    assert s.stats.iis_tried <= 3
    assert s.stats.evictions <= 8 * work.n_ops


def test_all_registered_engines_survive_stress():
    from repro.sched.partitioners import PARTITIONERS
    cm = make_clustered(6)
    work = insert_copies(unroll(dot_product(), 6)).ddg
    for engine in PARTITIONERS:
        s = partitioned_schedule(
            work, cm, config=PartitionConfig(partitioner=engine))
        s.validate(cm.cluster.fus.as_dict(), adjacency=cm)
