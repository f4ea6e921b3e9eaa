"""Unit tests for copy-operation insertion."""

import gc

import pytest

from repro.ir.builder import LoopBuilder
from repro.ir.copyins import (count_required_copies, insert_copies,
                              logical_dataflow, strip_copies)
from repro.ir.validate import validate_ddg
from repro.workloads.kernels import all_kernels, daxpy, norm2, prefix_sum


def fanout_loop(n_consumers: int):
    b = LoopBuilder(f"fan{n_consumers}")
    v = b.load("v")
    outs = []
    for i in range(n_consumers):
        outs.append(b.add(f"a{i}", v))
    for i, o in enumerate(outs):
        b.store(f"s{i}", o)
    return b.build()


class TestBasics:
    def test_no_fanout_no_copies(self):
        res = insert_copies(daxpy())
        assert res.n_copies == 0
        assert res.ddg.n_ops == daxpy().n_ops

    def test_copy_count_formula(self):
        for n in (2, 3, 5, 8):
            ddg = fanout_loop(n)
            assert count_required_copies(ddg) == n - 1
            res = insert_copies(ddg)
            assert res.n_copies == n - 1

    def test_fanout_after_insertion(self):
        res = insert_copies(fanout_loop(6))
        out = res.ddg
        for oid in out.op_ids:
            limit = 2 if out.op(oid).is_copy else 1
            assert out.fanout(oid) <= limit
        validate_ddg(out)

    def test_strategies_all_valid(self):
        for strat in ("chain", "balanced", "slack"):
            res = insert_copies(fanout_loop(7), strategy=strat)
            validate_ddg(res.ddg)
            assert res.n_copies == 6

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            insert_copies(daxpy(), strategy="bogus")  # type: ignore[arg-type]

    def test_input_unmodified(self):
        ddg = fanout_loop(4)
        before = ddg.n_ops
        insert_copies(ddg)
        assert ddg.n_ops == before


class TestTreeShape:
    def test_chain_depths(self):
        res = insert_copies(fanout_loop(5), strategy="chain")
        # edges from the fan-out producer (op 0); store edges are depth 0
        depths = sorted(d for (src, _dst, _k), d in
                        res.depth_by_edge.items() if src == 0)
        # chain: consumer i at depth i (1..n-1), last two share the tail
        assert depths == [1, 2, 3, 4, 4]

    def test_balanced_depth_logarithmic(self):
        res = insert_copies(fanout_loop(8), strategy="balanced")
        assert res.max_depth == 3  # ceil(log2(8))

    def test_chain_depth_linear(self):
        res = insert_copies(fanout_loop(8), strategy="chain")
        assert res.max_depth == 7

    def test_slack_no_deeper_than_chain(self):
        for n in (3, 5, 9):
            chain_d = insert_copies(fanout_loop(n),
                                    strategy="chain").max_depth
            slack_d = insert_copies(fanout_loop(n),
                                    strategy="slack").max_depth
            assert slack_d <= chain_d

    def test_recurrence_edge_gets_shallowest_position(self):
        # accumulator also feeding a store: the carried edge must sit at
        # depth 1 (any deeper raises RecMII further)
        ddg = prefix_sum()  # s consumed by store and by itself (d=1)
        res = insert_copies(ddg, strategy="slack")
        carried = [(k, d) for k, d in res.depth_by_edge.items()
                   if k[0] == k[1]]  # self edge src == dst
        assert carried and all(d == 1 for _k, d in carried)


class TestSemanticPreservation:
    def test_logical_dataflow_preserved(self):
        for ddg in (daxpy(), norm2(), prefix_sum(), fanout_loop(6)):
            before = logical_dataflow(ddg)
            after = logical_dataflow(insert_copies(ddg).ddg)
            assert before == after

    def test_strip_copies_roundtrip_op_count(self):
        ddg = fanout_loop(5)
        res = insert_copies(ddg)
        stripped = strip_copies(res.ddg)
        assert stripped.n_ops == ddg.n_ops
        assert {o.name for o in stripped.operations} == \
            {o.name for o in ddg.operations}

    def test_distance_preserved_through_tree(self):
        b = LoopBuilder("d")
        v = b.add("v")
        c1 = b.add("c1", v)
        b.store("s", v)
        b.carry(v, v, distance=3)   # fanout 3 on v: c1, store, itself
        ddg = b.build()
        res = insert_copies(ddg)
        flows = logical_dataflow(res.ddg)
        assert (v.op_id, v.op_id, 3) in flows
        assert (v.op_id, c1.op_id, 0) in flows


class TestCopyLatency:
    def test_custom_copy_latency(self):
        res = insert_copies(fanout_loop(3), copy_latency=2)
        copies = [res.ddg.op(c) for c in res.ddg.copy_ops()]
        assert copies and all(c.latency == 2 for c in copies)

    def test_copy_names_carry_producer(self):
        res = insert_copies(fanout_loop(3))
        names = [res.ddg.op(c).name for c in res.ddg.copy_ops()]
        assert all(n.startswith("v.cp") for n in names)


class TestMemory:
    def test_leaves_no_cyclic_garbage(self):
        """Reference counting alone frees everything the rewrite builds:
        with the cycle collector off, nothing is left for it to find."""
        kernels = all_kernels()
        gc.collect()
        gc.disable()
        try:
            for ddg in kernels:
                for strategy in ("chain", "balanced", "slack"):
                    insert_copies(ddg, strategy=strategy)
            assert gc.collect() == 0
        finally:
            gc.enable()
