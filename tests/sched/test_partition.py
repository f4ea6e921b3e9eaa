"""Tests for the clustered partitioning scheduler."""

import pytest

from repro.ir.copyins import insert_copies
from repro.ir.unroll import unroll
from repro.machine.cluster import ClusteredMachine, make_clustered
from repro.machine.presets import qrf_machine
from repro.sched.ims import modulo_schedule
from repro.sched.mii import mii
from repro.sched.partition import (PartitionConfig, insert_moves,
                                   partitioned_schedule,
                                   schedule_with_moves)
from repro.sched.schedule import SchedulingError
from repro.workloads.corpus import paper_corpus
from repro.workloads.kernels import (all_kernels, daxpy, dot_product,
                                     wide_independent)


def prepared(ddg, factor=1):
    work = unroll(ddg, factor) if factor > 1 else ddg
    return insert_copies(work).ddg


class TestBasicPartitioning:
    def test_single_cluster_equals_ims(self):
        """The two copies of the paper's IMS placement loop agree: IMS
        on an n-FU machine and the affinity partitioner on a one-cluster
        ring of that machine find the same II and issue cycles after the
        same number of placements and evictions."""
        loops = ([prepared(ddg) for ddg in all_kernels()]
                 + [prepared(ddg, 2) for ddg in paper_corpus()[:8]])
        for n in (4, 10, 16):
            flat = qrf_machine(n)
            ring = ClusteredMachine(name=f"ring1-{n}fu", cluster=flat,
                                    n_clusters=1)
            for work in loops:
                ims = modulo_schedule(work, flat)
                ps = partitioned_schedule(
                    work, ring, config=PartitionConfig(partitioner="affinity"))
                assert ((ps.ii, ps.sigma, ps.stats.attempts,
                         ps.stats.evictions)
                        == (ims.ii, ims.sigma, ims.stats.attempts,
                            ims.stats.evictions)), (work.name, n)

    def test_adjacency_enforced(self):
        cm = make_clustered(6)
        work = prepared(wide_independent())
        s = partitioned_schedule(work, cm)
        s.validate(cm.cluster.fus.as_dict(), adjacency=cm)

    def test_spreads_over_clusters(self):
        cm = make_clustered(4)
        work = prepared(wide_independent())   # 8 independent lanes
        s = partitioned_schedule(work, cm)
        assert len(set(s.cluster_of.values())) >= 3

    def test_ii_at_least_flat_mii(self):
        cm = make_clustered(4)
        work = prepared(daxpy(), 4)
        s = partitioned_schedule(work, cm)
        assert s.ii >= mii(work, cm)

    def test_stats_and_name(self):
        cm = make_clustered(4)
        s = partitioned_schedule(prepared(daxpy()), cm)
        assert s.machine_name == cm.name
        assert s.n_clusters == 4

    def test_all_registered_engines_produce_valid_schedules(self):
        from repro.sched.partitioners import PARTITIONERS
        cm = make_clustered(5)
        work = prepared(dot_product(), 4)
        for engine in PARTITIONERS:
            s = partitioned_schedule(
                work, cm, config=PartitionConfig(partitioner=engine))
            s.validate(cm.cluster.fus.as_dict(), adjacency=cm)

    def test_unknown_partitioner_names_the_alternatives(self):
        cm = make_clustered(4)
        with pytest.raises(KeyError, match="affinity"):
            partitioned_schedule(
                prepared(daxpy()), cm,
                config=PartitionConfig(partitioner="bogus"))

    def test_strategy_alias_still_selects_the_engine(self):
        # the pre-registry ``strategy`` spelling is gone: one field names
        # the engine
        with pytest.raises(TypeError, match="strategy"):
            PartitionConfig(strategy="balance")

    def test_replace_switches_engine_despite_alias_history(self):
        import dataclasses
        cfg = PartitionConfig(partitioner="balance")
        swapped = dataclasses.replace(cfg, partitioner="agglomerative")
        assert swapped.partitioner == "agglomerative"
        assert not hasattr(swapped, "strategy")

    def test_determinism(self):
        cm = make_clustered(5)
        work = prepared(daxpy(), 4)
        s1 = partitioned_schedule(work, cm)
        s2 = partitioned_schedule(work, cm)
        assert s1.sigma == s2.sigma
        assert s1.cluster_of == s2.cluster_of


class TestPinning:
    def test_pins_respected(self):
        cm = make_clustered(4)
        work = prepared(daxpy())
        pins = {work.op_ids[0]: 2}
        s = partitioned_schedule(work, cm, pinned=pins)
        assert s.cluster_of[work.op_ids[0]] == 2

    def test_relax_adjacency_skips_check(self):
        cm = make_clustered(6)
        work = prepared(wide_independent(), 2)
        s = partitioned_schedule(work, cm, relax_adjacency=True)
        # schedule is valid except possibly adjacency
        s.validate(cm.cluster.fus.as_dict())


class TestMoves:
    def test_insert_moves_bridges_hops(self):
        cm = make_clustered(6)
        work = prepared(daxpy())
        cluster_of = {o: 0 for o in work.op_ids}
        # stretch the edge into the store (a sink: no further out-edges)
        store = next(o for o in work.op_ids
                     if not work.op(o).produces_value)
        cluster_of[store] = 3
        moved, pins = insert_moves(work, cm, cluster_of)
        n_moves = moved.n_ops - work.n_ops
        assert n_moves == 2    # 0 -> 1 -> 2 -> 3
        # pins cover all ops, moves pinned on the path interior
        assert set(pins) == set(moved.op_ids)
        move_pins = sorted(pins[o] for o in moved.op_ids
                           if moved.op(o).is_move)
        assert move_pins == [1, 2]

    def test_insert_moves_noop_when_adjacent(self):
        cm = make_clustered(4)
        work = prepared(daxpy())
        cluster_of = {o: 0 for o in work.op_ids}
        moved, _pins = insert_moves(work, cm, cluster_of)
        assert moved.n_ops == work.n_ops

    def test_schedule_with_moves_is_ring_legal(self):
        cm = make_clustered(6)
        work = prepared(wide_independent(), 2)
        res = schedule_with_moves(work, cm)
        res.schedule.validate(cm.cluster.fus.as_dict(), adjacency=cm)

    def test_moves_never_worse_than_many_clusters_strict(self):
        """With moves available the scheduler handles loops the strict
        ring rejects at low II; II(with moves) <= II(ring-only)."""
        cm = make_clustered(6)
        work = prepared(dot_product(), 6)
        strict = partitioned_schedule(work, cm)
        relaxed = schedule_with_moves(work, cm)
        assert relaxed.schedule.ii <= strict.ii + 1  # moves cost resources


class TestFailureModes:
    def test_max_ii_exhaustion(self):
        cm = make_clustered(2)
        work = prepared(wide_independent())
        with pytest.raises(SchedulingError):
            partitioned_schedule(work, cm,
                                 config=PartitionConfig(max_ii=1))
