"""Unit tests for the DDG container."""

import pytest

from repro.ir.builder import LoopBuilder
from repro.ir.ddg import Ddg, DepKind, merge_ddgs
from repro.ir.operations import (FuType, LatencyModel, Opcode)


def simple_ddg() -> Ddg:
    ddg = Ddg("t", trip_count=10)
    a = ddg.add_operation(Opcode.LOAD, name="a")
    b = ddg.add_operation(Opcode.ADD, name="b")
    c = ddg.add_operation(Opcode.STORE, name="c")
    ddg.add_dependence(a, b)
    ddg.add_dependence(b, c)
    return ddg


class TestConstruction:
    def test_ids_are_dense(self):
        ddg = simple_ddg()
        assert ddg.op_ids == [0, 1, 2]
        assert ddg.n_ops == 3

    def test_bad_trip_count(self):
        with pytest.raises(ValueError):
            Ddg("x", trip_count=0)

    def test_insert_duplicate_id_rejected(self):
        ddg = simple_ddg()
        with pytest.raises(ValueError):
            ddg.insert_operation(ddg.op(0))

    def test_data_edge_from_store_rejected(self):
        ddg = simple_ddg()
        with pytest.raises(ValueError, match="non-producer"):
            ddg.add_dependence(2, 0, kind=DepKind.DATA)

    def test_mem_edge_from_store_allowed(self):
        ddg = simple_ddg()
        e = ddg.add_dependence(2, 0, distance=1, kind=DepKind.MEM)
        assert e.kind is DepKind.MEM
        assert e.latency == 1

    def test_data_edge_latency_defaults_to_producer(self):
        ddg = simple_ddg()
        (e,) = ddg.producers(1)
        assert e.latency == Opcode.LOAD.default_latency

    def test_edge_to_missing_op(self):
        ddg = simple_ddg()
        with pytest.raises(KeyError):
            ddg.add_dependence(0, 99)

    def test_parallel_edges_get_distinct_keys(self):
        ddg = Ddg("p")
        x = ddg.add_operation(Opcode.LOAD, name="x")
        sq = ddg.add_operation(Opcode.MUL, name="sq")
        e1 = ddg.add_dependence(x, sq)
        e2 = ddg.add_dependence(x, sq)
        assert (e1.key, e2.key) == (0, 1)
        assert len(ddg.producers(sq.op_id)) == 2


class TestQueries:
    def test_fanout(self):
        ddg = Ddg("f")
        x = ddg.add_operation(Opcode.LOAD, name="x")
        for i in range(3):
            c = ddg.add_operation(Opcode.ADD, name=f"c{i}")
            ddg.add_dependence(x, c)
        assert ddg.fanout(x.op_id) == 3
        assert ddg.max_fanout() == 3

    def test_fu_demand(self):
        demand = simple_ddg().fu_demand()
        assert demand[FuType.LS] == 2
        assert demand[FuType.ADD] == 1

    def test_neighbors_data(self):
        ddg = simple_ddg()
        assert ddg.neighbors_data(1) == {0, 2}
        assert ddg.neighbors_data(0) == {1}

    def test_live_in_ops(self):
        ddg = simple_ddg()
        assert ddg.live_in_ops() == [0]

    def test_recurrence_ops_empty_for_dag(self):
        assert simple_ddg().recurrence_ops() == set()

    def test_recurrence_ops_self_loop(self):
        ddg = simple_ddg()
        ddg.add_dependence(1, 1, distance=1)
        assert ddg.recurrence_ops() == {1}

    def test_recurrence_ops_cycle(self):
        ddg = simple_ddg()
        ddg.add_dependence(1, 0, distance=2)  # b -> a next iterations
        assert ddg.recurrence_ops() == {0, 1}

    def test_zero_distance_cycle_detection(self):
        ddg = Ddg("c")
        a = ddg.add_operation(Opcode.ADD, name="a")
        b = ddg.add_operation(Opcode.ADD, name="b")
        ddg.add_dependence(a, b, distance=0)
        assert not ddg.has_zero_distance_cycle()
        ddg.add_dependence(b, a, distance=0)
        assert ddg.has_zero_distance_cycle()

    def test_sum_latency(self):
        assert simple_ddg().sum_latency() == 2 + 1 + 1


class TestMutation:
    def test_remove_operation_drops_edges(self):
        ddg = simple_ddg()
        ddg.remove_operation(1)
        assert ddg.n_ops == 2
        assert ddg.n_edges == 0

    def test_edge_cache_invalidation(self):
        ddg = simple_ddg()
        assert len(ddg.producers(1)) == 1   # populate cache
        x = ddg.add_operation(Opcode.LOAD, name="x2")
        ddg.add_dependence(x, 1)
        assert len(ddg.producers(1)) == 2   # cache refreshed

    def test_remove_edge(self):
        ddg = simple_ddg()
        (e,) = ddg.producers(1)
        ddg.remove_edge(e)
        assert ddg.producers(1) == []

    def test_parallel_edge_keys_skip_keys_in_use(self):
        # the key is the number of parallel edges, bumped past keys still
        # in use (networkx's MultiDiGraph rule, which edge order and job
        # keys depend on)
        ddg = Ddg("k")
        x = ddg.add_operation(Opcode.LOAD, name="x")
        y = ddg.add_operation(Opcode.MUL, name="y")
        e0, _e1, _e2 = (ddg.add_dependence(x, y) for _ in range(3))
        ddg.remove_edge(e0)
        assert ddg.add_dependence(x, y).key == 3
        assert [e.key for e in ddg.producers(y.op_id)] == [1, 2, 3]
        # retiming re-adds every edge in order: keys renumber from 0
        fast = ddg.retimed(LatencyModel({Opcode.LOAD: 5}))
        assert [e.key for e in fast.producers(y.op_id)] == [0, 1, 2]

    def test_remove_missing_edge_raises(self):
        ddg = simple_ddg()
        (e,) = ddg.producers(1)
        ddg.remove_edge(e)
        with pytest.raises(KeyError):
            ddg.remove_edge(e)

    def test_replace_operation(self):
        ddg = simple_ddg()
        ddg.replace_operation(ddg.op(1).renamed("bb"))
        assert ddg.op(1).name == "bb"


class TestCopyAndRetime:
    def test_copy_is_deep_for_edges(self):
        ddg = simple_ddg()
        clone = ddg.copy()
        clone.add_dependence(0, 2)
        assert clone.n_edges == ddg.n_edges + 1

    def test_copy_preserves_everything(self):
        ddg = simple_ddg()
        clone = ddg.copy("other")
        assert clone.name == "other"
        assert clone.trip_count == ddg.trip_count
        assert [o.name for o in clone.operations] == \
            [o.name for o in ddg.operations]

    def test_retimed_updates_data_edge_latency(self):
        ddg = simple_ddg()
        fast = ddg.retimed(LatencyModel({Opcode.LOAD: 5}))
        (e,) = fast.producers(1)
        assert e.latency == 5
        # original untouched
        (e0,) = ddg.producers(1)
        assert e0.latency == 2

    def test_retimed_preserves_mem_latency(self):
        ddg = simple_ddg()
        ddg.add_dependence(2, 0, distance=1, kind=DepKind.MEM, latency=3)
        fast = ddg.retimed(LatencyModel({Opcode.STORE: 1}))
        mems = list(fast.edges(DepKind.MEM))
        assert mems[0].latency == 3


class TestMerge:
    def test_merge_disjoint_union(self):
        b1 = LoopBuilder("one")
        x = b1.load("x")
        b1.store("s", x)
        b2 = LoopBuilder("two")
        y = b2.load("y")
        b2.store("t", y)
        merged = merge_ddgs("m", [b1.build(), b2.build()])
        assert merged.n_ops == 4
        assert merged.n_edges == 2
        assert merged.name == "m"

    def test_merge_remaps_distances(self):
        b = LoopBuilder("r")
        a = b.add("a")
        b.carry(a, a, distance=2)
        merged = merge_ddgs("m", [b.build(), b.build()])
        carried = [e for e in merged.data_edges() if e.distance == 2]
        assert len(carried) == 2

    def test_merge_rejects_zero_trip_count(self):
        b = LoopBuilder("z")
        b.store("s", b.load("x"))
        with pytest.raises(ValueError, match="trip_count"):
            merge_ddgs("m", [b.build()], trip_count=0)

    def test_merge_keeps_parallel_edge_keys(self):
        b = LoopBuilder("sq")
        x = b.load("x")
        b.store("s", b.mul("xx", x, x))
        merged = merge_ddgs("m", [b.build(), b.build()])
        assert [e.key for e in merged.producers(4)] == [0, 1]
