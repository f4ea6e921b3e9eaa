"""Unit tests for the ModuloSchedule result object."""

import pytest

from repro.ir.builder import chain
from repro.machine.presets import qrf_machine
from repro.sched.ims import modulo_schedule
from repro.sched.schedule import (ModuloSchedule, ScheduleValidationError)
from repro.workloads.kernels import daxpy


def tiny_schedule():
    ddg = chain("c", ["load", "add", "store"])
    # load@0 (lat2), add@2 (lat1), store@3; II=2
    return ModuloSchedule(ddg=ddg, ii=2,
                          sigma={0: 0, 1: 2, 2: 3})


class TestDerivedQuantities:
    def test_rows_and_stages(self):
        s = tiny_schedule()
        assert s.row_of(0) == 0
        assert s.row_of(2) == 1
        assert s.stage_of(2) == 1
        assert s.stage_count == 2
        assert s.max_time == 3

    def test_static_ipc(self):
        assert tiny_schedule().static_ipc() == pytest.approx(1.5)

    def test_cycles_for(self):
        s = tiny_schedule()
        # (N + SC - 1) * II
        assert s.cycles_for(10) == (10 + 1) * 2

    def test_cycles_for_unrolled(self):
        s = tiny_schedule()
        assert s.cycles_for(10, unroll_factor=4) == (3 + 1) * 2

    def test_dynamic_ipc_less_than_static(self):
        s = tiny_schedule()
        assert s.dynamic_ipc(iterations=5) < s.static_ipc()

    def test_dynamic_ipc_approaches_static(self):
        s = tiny_schedule()
        assert s.dynamic_ipc(iterations=100_000) == \
            pytest.approx(s.static_ipc(), rel=1e-3)

    def test_value_times(self):
        s = tiny_schedule()
        assert s.value_write_time(0) == 2   # load issues 0, lat 2
        edges = list(s.ddg.data_edges())
        assert s.value_read_time(edges[0]) == 2
        assert s.edge_slack(edges[0]) == 0

    def test_bad_ii(self):
        with pytest.raises(ValueError):
            ModuloSchedule(ddg=chain("c", ["add"]), ii=0, sigma={0: 0})


class TestValidation:
    def test_valid_schedule_passes(self):
        tiny_schedule().validate()

    def test_dependence_violation_detected(self):
        s = tiny_schedule()
        s.sigma[1] = 1   # add before load's value is ready
        with pytest.raises(ScheduleValidationError, match="dependence"):
            s.validate()

    def test_missing_op_detected(self):
        s = tiny_schedule()
        del s.sigma[2]
        with pytest.raises(ScheduleValidationError, match="unscheduled"):
            s.validate()

    def test_unknown_op_detected(self):
        s = tiny_schedule()
        s.sigma[99] = 0
        with pytest.raises(ScheduleValidationError, match="unknown"):
            s.validate()

    def test_negative_time_detected(self):
        s = tiny_schedule()
        s.sigma[0] = -1
        with pytest.raises(ScheduleValidationError):
            s.validate()

    def test_resource_overflow_detected(self):
        from repro.ir.operations import FuType
        s = tiny_schedule()
        s.sigma[2] = 2  # store at row 0 with load -> 2 L/S ops on 1 unit
        with pytest.raises(ScheduleValidationError, match="capacity"):
            s.validate({FuType.LS: 1, FuType.ADD: 1})

    def test_adjacency_violation_detected(self):
        from repro.machine.cluster import make_clustered
        cm = make_clustered(6)
        s = tiny_schedule()
        s.n_clusters = 6
        s.cluster_of = {0: 0, 1: 3, 2: 3}
        with pytest.raises(ScheduleValidationError, match="non-adjacent"):
            s.validate(adjacency=cm)

    @pytest.mark.parametrize("n_clusters", [1, 2, 3, 4, 6])
    def test_adjacency_audit_matches_per_edge_machine_check(self,
                                                            n_clusters):
        """The audit's ring arithmetic decides like asking
        ``cm.are_adjacent`` about every DATA edge: the same problems in
        the same order, and the same IndexError for an out-of-range
        cluster id (a same-cluster edge included)."""
        import random
        import re

        from repro.ir.copyins import insert_copies
        from repro.machine.cluster import make_clustered
        from repro.workloads.kernels import kernel

        def reference(sched, cm):
            cl = sched.cluster_of
            out = []
            for e in sched.ddg.data_edges():
                a, b = cl.get(e.src, 0), cl.get(e.dst, 0)
                if not cm.are_adjacent(a, b):
                    out.append((e.src, e.dst))
            return out

        cm = make_clustered(n_clusters)
        rng = random.Random(n_clusters)
        for name in ("dot", "fir4", "cmul"):
            work = insert_copies(kernel(name)).ddg
            sched = modulo_schedule(work, qrf_machine(16))
            for _ in range(40):
                ids = work.op_ids
                hi = n_clusters + (1 if rng.random() < 0.3 else 0)
                lo = -1 if rng.random() < 0.1 else 0
                sched.cluster_of = {o: rng.randint(lo, hi - 1)
                                    for o in ids if rng.random() < 0.95}
                try:
                    expect = reference(sched, cm)
                except IndexError as exc:
                    with pytest.raises(IndexError,
                                       match=re.escape(str(exc))):
                        sched.validate(adjacency=cm)
                    continue
                if not expect:
                    sched.validate(adjacency=cm)
                    continue
                with pytest.raises(ScheduleValidationError) as info:
                    sched.validate(adjacency=cm)
                assert str(info.value).count("spans non-adjacent") \
                    == len(expect)


class TestRender:
    def test_render_contains_ops(self):
        s = modulo_schedule(daxpy(), qrf_machine(4))
        text = s.render()
        assert "II=" in text
        assert "ax@" in text
