"""Scheduling arenas: buffer reuse, O(touched) resets, result safety."""

from repro.ir.copyins import insert_copies
from repro.machine.presets import clustered_machine, qrf_machine
from repro.machine.resources import N_POOLS
from repro.sched.arena import SchedArena, arena_counters, global_arena
from repro.sched.ims import modulo_schedule
from repro.sched.partition import PartitionConfig, partitioned_schedule
from repro.workloads.kernels import kernel


def caps():
    return [2, 1, 1, 1][:N_POOLS] + [0] * max(0, N_POOLS - 4)


class TestMrtPool:
    def test_tables_are_reused_across_attempts(self):
        arena = SchedArena()
        arena.begin_attempt()
        first = arena.take_mrts(4, 5, caps())
        assert arena.counters()["allocs"] == 4
        arena.begin_attempt()
        second = arena.take_mrts(4, 7, caps())
        assert [id(t) for t in first] == [id(t) for t in second]
        assert arena.counters()["allocs"] == 4          # no new buffers
        assert arena.counters()["hits"] == 4            # all 4 reused
        assert all(t.ii == 7 and t.load() == 0 for t in second)

    def test_pool_grows_to_widest_attempt_then_stops(self):
        arena = SchedArena()
        arena.begin_attempt()
        arena.take_mrts(2, 3, caps())
        arena.begin_attempt()
        arena.take_mrts(6, 3, caps())
        allocs = arena.counters()["allocs"]
        for _ in range(5):
            arena.begin_attempt()
            arena.take_mrts(6, 9, caps())
        assert arena.counters()["allocs"] == allocs

    def test_reused_table_starts_empty_after_occupied_attempt(self):
        arena = SchedArena()
        arena.begin_attempt()
        [t] = arena.take_mrts(1, 4, caps())
        t.place(1, 0, 0)
        t.place(2, 1, 3)
        arena.begin_attempt()
        [t2] = arena.take_mrts(1, 4, caps())
        assert t2 is t
        assert t2.load() == 0
        assert t2.first_free(0, 0) == 0
        assert not t2.is_placed(1)

    def test_sequential_takes_within_one_attempt_are_distinct(self):
        """The agglomerative engine builds two states per probe; their
        tables must not alias."""
        arena = SchedArena()
        arena.begin_attempt()
        a = arena.take_mrts(2, 4, caps())
        b = arena.take_mrts(2, 4, caps())
        assert {id(t) for t in a}.isdisjoint({id(t) for t in b})


class TestTopologyCache:
    def test_ring_topology_cached_by_cluster_count(self):
        arena = SchedArena()
        cm = clustered_machine(5)
        adj1, masks1, all1 = arena.ring_topology(cm)
        adj2, masks2, all2 = arena.ring_topology(clustered_machine(5))
        assert adj1 is adj2 and masks1 is masks2 and all1 is all2
        # masks mirror the matrix
        for c, row in enumerate(adj1):
            for b, ok in enumerate(row):
                assert bool(masks1[c] >> b & 1) == ok

    def test_distinct_ring_sizes_distinct_entries(self):
        arena = SchedArena()
        _, masks4, _ = arena.ring_topology(clustered_machine(4))
        _, masks6, _ = arena.ring_topology(clustered_machine(6))
        assert len(masks4) == 4 and len(masks6) == 6


class TestDriverIntegration:
    def test_global_arena_accumulates_and_counters_export(self):
        before = arena_counters()["resets"]
        work = insert_copies(kernel("daxpy")).ddg
        modulo_schedule(work, qrf_machine(4))
        partitioned_schedule(work, clustered_machine(4),
                             config=PartitionConfig())
        after = arena_counters()
        assert after["resets"] > before
        assert set(after) == {"generation", "resets", "hits", "allocs",
                              "pooled_mrts"}
        assert global_arena().counters() == after

    def test_returned_schedules_survive_later_arena_attempts(self):
        """Arena-backed state must never leak into returned schedules:
        scheduling another loop cannot mutate an earlier result."""
        cm = clustered_machine(4)
        work = insert_copies(kernel("dot")).ddg
        first = partitioned_schedule(work, cm, config=PartitionConfig())
        snapshot = (first.ii, dict(first.sigma), dict(first.cluster_of))
        for name in ("fir4", "vadd", "tridiag"):
            other = insert_copies(kernel(name)).ddg
            partitioned_schedule(other, cm, config=PartitionConfig())
        assert snapshot == (first.ii, first.sigma, first.cluster_of)
        first.validate(cm.cluster.fus.as_dict(), adjacency=cm)
