"""Unit tests for queue allocation on real schedules."""

import pytest

from repro.ir.copyins import insert_copies
from repro.machine.cluster import make_clustered
from repro.machine.presets import qrf_machine
from repro.regalloc.lifetimes import Lifetime, Location, LocationKind
from repro.regalloc.queues import (allocate_for_schedule, allocate_queues,
                                   q_compatible, queue_depth)
from repro.sched.ims import modulo_schedule
from repro.sched.partition import partitioned_schedule
from repro.verify import ViolationKind, verify_schedule
from repro.workloads.kernels import all_kernels, daxpy, dot_product


def _assert_pairwise_compatible(*allocs):
    """Every pair sharing a queue passes Theorem 1.1's closed form."""
    for alloc in allocs:
        for q in alloc.queues:
            for i, a in enumerate(q):
                for b in q[i + 1:]:
                    assert q_compatible(a, b, alloc.ii), \
                        f"{a.describe()} / {b.describe()}"


class TestAllocateQueues:
    def test_empty(self):
        alloc = allocate_queues([], 4)
        assert alloc.n_queues == 0
        assert alloc.max_depth == 0

    def test_single(self):
        alloc = allocate_queues([Lifetime(0, 1, 0, 0, 2)], 4)
        assert alloc.n_queues == 1
        assert alloc.depths == [1]

    def test_incompatible_split(self):
        # same write phase -> must use two queues
        a = Lifetime(0, 1, 0, 0, 2)
        b = Lifetime(2, 3, 0, 4, 3)
        alloc = allocate_queues([a, b], 4)
        assert alloc.n_queues == 2

    def test_compatible_share(self):
        a = Lifetime(0, 1, 0, 0, 2)
        b = Lifetime(2, 3, 0, 1, 2)
        alloc = allocate_queues([a, b], 4)
        assert alloc.n_queues == 1
        _assert_pairwise_compatible(alloc)

    def test_assignment_mapping(self):
        a = Lifetime(0, 1, 0, 0, 2)
        alloc = allocate_queues([a], 4)
        assert alloc.assignment() == {(0, 1, 0): 0}
        assert alloc.queue_of(a) == 0

    @pytest.mark.parametrize("ii", [0, -3])
    def test_rejects_non_positive_ii(self, ii):
        # even one lifetime, which needs no pairwise test, is refused
        with pytest.raises(ValueError, match="II must be >= 1"):
            allocate_queues([Lifetime(0, 1, 0, 0, 2)], ii)
        with pytest.raises(ValueError, match="II must be >= 1"):
            allocate_queues([], ii)

    def test_queue_of_missing(self):
        alloc = allocate_queues([], 4)
        with pytest.raises(KeyError):
            alloc.queue_of(Lifetime(9, 9, 0, 0, 1))

    def test_verify_catches_corruption(self):
        # two queues of a real packing merged: the verifier, which
        # proves the packing it is given, names the FIFO-order breach
        m = qrf_machine(4)
        s = modulo_schedule(insert_copies(daxpy()).ddg, m)
        usage = allocate_for_schedule(s)
        alloc = usage.by_location[Location(LocationKind.PRIVATE, 0)]
        assert alloc.n_queues >= 2
        assert not all(q_compatible(a, b, s.ii)
                       for a in alloc.queues[0] for b in alloc.queues[1])
        alloc.queues[0] += alloc.queues.pop(1)
        verdict = verify_schedule(s, m, usage=usage)
        assert verdict.first.kind is ViolationKind.QUEUE_ORDER


class TestQueueDepth:
    def test_depth_counts_overlap(self):
        lts = [Lifetime(0, 1, 0, 0, 6)]
        assert queue_depth(lts, 4) == 2

    def test_preload_depth(self):
        # two pre-loop instances (negative virtual slots) coexist
        lts = [Lifetime(0, 0, 0, 2, 9, 2)]
        assert queue_depth(lts, 4) >= 2

    def test_injected_bypass_zero_depth(self):
        lts = [Lifetime(0, 0, 0, 8, 0, 2)]
        assert queue_depth(lts, 4) == 0


class TestScheduleAllocation:
    def test_daxpy_single_location(self):
        m = qrf_machine(4)
        work = insert_copies(daxpy()).ddg
        s = modulo_schedule(work, m)
        usage = allocate_for_schedule(s)
        assert list(usage.by_location) == \
            [Location(LocationKind.PRIVATE, 0)]
        assert usage.total_queues >= 1
        _assert_pairwise_compatible(*usage.by_location.values())

    def test_every_kernel_allocates(self):
        m = qrf_machine(6)
        for ddg in all_kernels():
            work = insert_copies(ddg).ddg
            s = modulo_schedule(work, m)
            usage = allocate_for_schedule(s)
            _assert_pairwise_compatible(*usage.by_location.values())
            # every DATA edge covered
            n_edges = sum(1 for _ in work.data_edges())
            assert sum(len(q) for a in usage.by_location.values()
                       for q in a.queues) == n_edges

    def test_clustered_ring_locations(self):
        cm = make_clustered(4)
        work = insert_copies(dot_product()).ddg
        from repro.ir.unroll import unroll
        work = insert_copies(unroll(dot_product(), 4)).ddg
        s = partitioned_schedule(work, cm)
        usage = allocate_for_schedule(s, cm)
        _assert_pairwise_compatible(*usage.by_location.values())
        kinds = {loc.kind for loc in usage.by_location}
        assert LocationKind.PRIVATE in kinds

    def test_fits_budget(self):
        m = qrf_machine(4)
        work = insert_copies(daxpy()).ddg
        s = modulo_schedule(work, m)
        usage = allocate_for_schedule(s)
        assert usage.fits_budget(private=8, ring_each_direction=8)
        assert not usage.fits_budget(private=0, ring_each_direction=0)

    def test_accessors(self):
        m = qrf_machine(4)
        work = insert_copies(daxpy()).ddg
        s = modulo_schedule(work, m)
        usage = allocate_for_schedule(s)
        assert usage.private_queues(0) == usage.total_queues
        assert usage.ring_queues(0, LocationKind.RING_CW) == 0
        assert usage.max_queues_per_location == usage.total_queues
