"""Unit tests for height-based priority."""

import pytest

from repro.ir.builder import LoopBuilder, chain
from repro.sched.priority import heights, highest_priority, priority_order
from repro.sched.strategies.sms import time_bounds
from repro.workloads.kernels import daxpy


class TestHeights:
    def test_chain_heights(self):
        # load(2) -> mul(2) -> add(1) -> store: heights 5, 3, 1, 0
        ddg = chain("c", ["load", "mul", "add", "store"])
        h = heights(ddg, ii=4)
        assert [h[i] for i in ddg.op_ids] == [5, 3, 1, 0]

    def test_carried_edge_discounts_by_ii(self):
        b = LoopBuilder("r")
        a = b.add("a", latency=3)
        b.carry(a, a, distance=1)
        ddg = b.build()
        # at II=3 the self-edge contributes 3 - 3 = 0 -> height 0
        assert heights(ddg, 3)[a.op_id] == 0

    def test_below_recmii_diverges(self):
        b = LoopBuilder("r")
        a = b.add("a", latency=3)
        b.carry(a, a, distance=1)
        ddg = b.build()
        with pytest.raises(ValueError, match="diverge"):
            heights(ddg, 2)
        # the earliest-start relaxation diverges on the same cycle
        with pytest.raises(ValueError, match="earliest starts diverge"):
            time_bounds(ddg, 2)

    def test_bad_ii(self):
        with pytest.raises(ValueError):
            heights(daxpy(), 0)


class TestPriorityOrder:
    def test_descending_heights(self):
        ddg = daxpy()
        order = priority_order(ddg, 2)
        h = heights(ddg, 2)
        hs = [h[o] for o in order]
        assert hs == sorted(hs, reverse=True)

    def test_ties_break_by_id(self):
        ddg = daxpy()
        order = priority_order(ddg, 2)
        h = heights(ddg, 2)
        for a, b in zip(order, order[1:]):
            if h[a] == h[b]:
                assert a < b

    def test_all_ops_present(self):
        ddg = daxpy()
        assert sorted(priority_order(ddg, 2)) == ddg.op_ids


class TestHighestPriority:
    def test_picks_first_unscheduled(self):
        order = [3, 1, 2]
        assert highest_priority({1, 2}, order) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            highest_priority(set(), [1, 2])
