"""Unit and integration tests for Iterative Modulo Scheduling."""

import pytest

from repro.ir.builder import LoopBuilder, chain
from repro.ir.copyins import insert_copies
from repro.machine.presets import narrow_test_machine, qrf_machine
from repro.sched.ims import ImsConfig, modulo_schedule
from repro.sched.mii import mii
from repro.sched.schedule import SchedulingError
from repro.workloads.kernels import (all_kernels, daxpy, dot_product,
                                     tridiagonal, wide_independent)


class TestBasicScheduling:
    def test_daxpy_achieves_mii(self):
        m = qrf_machine(4)
        s = modulo_schedule(daxpy(), m)
        assert s.ii == mii(daxpy(), m) == 2
        s.validate(m.fus.as_dict())

    def test_recurrence_achieves_recmii(self):
        m = qrf_machine(12)
        s = modulo_schedule(tridiagonal(), m)
        assert s.ii == 3

    def test_wide_loop_saturates(self):
        m = qrf_machine(12)
        s = modulo_schedule(wide_independent(), m)
        # 16 L/S ops on 4 units -> II = 4
        assert s.ii == 4

    def test_every_kernel_schedules_on_every_paper_machine(self):
        for ddg in all_kernels():
            for n in (4, 6, 12):
                m = qrf_machine(n)
                work = insert_copies(ddg).ddg
                s = modulo_schedule(work, m)
                s.validate(m.fus.as_dict())
                assert s.ii >= mii(work, m)

    def test_machine_latency_model_applied(self):
        from repro.ir.operations import LatencyModel, Opcode
        from repro.machine.machine import make_machine
        slow = make_machine(4, latencies=LatencyModel({Opcode.LOAD: 10}))
        s = modulo_schedule(daxpy(), slow)
        loads = [o for o in s.ddg.operations if o.opcode is Opcode.LOAD]
        assert all(op.latency == 10 for op in loads)

    def test_missing_fu_class(self):
        from repro.ir.operations import FuType
        from repro.machine.machine import Machine, RfKind
        from repro.machine.resources import FuSet
        m = Machine(name="nomul",
                    fus=FuSet({FuType.LS: 1, FuType.ADD: 1}),
                    rf_kind=RfKind.CONVENTIONAL)
        with pytest.raises(SchedulingError, match="lacks"):
            modulo_schedule(daxpy(), m)


class TestSearchControls:
    def test_start_ii_respected(self):
        m = qrf_machine(4)
        s = modulo_schedule(daxpy(), m, start_ii=5)
        assert s.ii == 5

    def test_max_ii_exhaustion(self):
        m = narrow_test_machine()
        big = wide_independent()   # needs II 16 on 1 L/S unit
        with pytest.raises(SchedulingError):
            modulo_schedule(big, m, config=ImsConfig(max_ii=3))

    def test_budget_zero_falls_through_iis(self):
        # ratio so small the first II fails; a later II still succeeds
        # because the budget is per-II
        m = qrf_machine(4)
        cfg = ImsConfig(budget_ratio=1)
        s = modulo_schedule(daxpy(), m, config=cfg)
        s.validate(m.fus.as_dict())

    def test_stats_populated(self):
        m = qrf_machine(4)
        s = modulo_schedule(daxpy(), m)
        assert s.stats.mii == 2
        assert s.stats.attempts >= s.n_ops
        assert s.stats.iis_tried >= 1

    def test_input_validation_catches_bad_graph(self):
        from repro.ir.ddg import Ddg, DepKind
        from repro.ir.operations import Opcode
        ddg = Ddg("bad")
        a = ddg.add_operation(Opcode.ADD, name="a")
        b = ddg.add_operation(Opcode.ADD, name="b")
        ddg.add_dependence(a, b)
        ddg.add_dependence(b, a, distance=0, kind=DepKind.DATA,
                           latency=1)
        with pytest.raises(Exception):
            modulo_schedule(ddg, qrf_machine(4))


class TestLoopCarried:
    def test_distance_allows_overlap(self):
        # x[i] = x[i-3]*c + y[i]: RecMII = ceil((2+1)/3) = 1; on a wide
        # machine II can go below the serial latency
        b = LoopBuilder("rec3")
        y = b.load("y")
        xm = b.mul("xm")
        x = b.add("x", xm, y)
        b.carry(x, xm, distance=3)
        m = qrf_machine(12)
        s = modulo_schedule(b.build(), m)
        assert s.ii == 1

    def test_dot_product_overlaps_loads(self):
        m = qrf_machine(6)
        s = modulo_schedule(dot_product(), m)
        assert s.ii == 1   # 2 loads on 2 LS units, acc chain d=1 lat 1
        s.validate(m.fus.as_dict())


class TestDeterminism:
    def test_same_input_same_schedule(self):
        m = qrf_machine(6)
        ddg = chain("c", ["load", "mul", "add", "store"], carry_distance=2)
        s1 = modulo_schedule(ddg, m)
        s2 = modulo_schedule(ddg, m)
        assert s1.sigma == s2.sigma
        assert s1.ii == s2.ii
