"""Unit tests for MII bounds (hand-computed cases)."""

import pytest

from repro.ir.builder import LoopBuilder, chain
from repro.machine.presets import qrf_machine
from repro.sched.mii import (max_cycle_ratio, mii, mii_report, rec_mii,
                             res_mii, theoretical_ipc_bound)
from repro.workloads.kernels import daxpy, dot_product, tridiagonal


class TestResMii:
    def test_daxpy_on_4fu(self):
        # 3 L/S ops (x, y, st) on 2 L/S units -> ceil(3/2) = 2
        assert res_mii(daxpy(), qrf_machine(4)) == 2

    def test_daxpy_on_12fu(self):
        assert res_mii(daxpy(), qrf_machine(12)) == 1

    def test_missing_fu(self):
        from repro.machine.machine import Machine, RfKind
        from repro.machine.resources import FuSet
        from repro.ir.operations import FuType
        m = Machine(name="nols", fus=FuSet({FuType.ADD: 1, FuType.MUL: 1}),
                    rf_kind=RfKind.CONVENTIONAL)
        with pytest.raises(ValueError):
            res_mii(daxpy(), m)


class TestRecMii:
    def test_acyclic_is_one(self):
        assert rec_mii(daxpy()) == 1

    def test_accumulator(self):
        # dot: acc(add, lat 1) -> acc, d=1 -> RecMII = 1
        assert rec_mii(dot_product()) == 1

    def test_tridiagonal(self):
        # cycle: sub(1) -> mul(2) -> sub, distance 1 -> lat 3 / 1 = 3
        assert rec_mii(tridiagonal()) == 3

    def test_chain_recurrence(self):
        # load(2) -> mul(2) -> add(1), carried add->load d=1: 5/1
        ddg = chain("r", ["load", "mul", "add", "store"], carry_distance=1)
        assert rec_mii(ddg) == 5

    def test_distance_divides_bound(self):
        b = LoopBuilder("d2")
        a = b.add("a", latency=6)
        b.carry(a, a, distance=3)
        assert rec_mii(b.build()) == 2  # ceil(6/3)

    def test_non_divisible_rounds_up(self):
        b = LoopBuilder("d3")
        a = b.add("a", latency=7)
        b.carry(a, a, distance=3)
        assert rec_mii(b.build()) == 3  # ceil(7/3)

    def test_mem_edges_participate(self):
        b = LoopBuilder("m")
        v = b.load("v")          # latency 2
        st = b.store("st", v)
        b.mem_order(st, v, distance=1)   # st -> next load, latency 1
        # cycle: v ->(2) st ->(1) v, distance 1 -> RecMII 3
        assert rec_mii(b.build()) == 3


class TestMaxCycleRatio:
    def test_acyclic_zero(self):
        assert max_cycle_ratio(daxpy()) == pytest.approx(0.0, abs=1e-6)

    def test_simple_ratio(self):
        b = LoopBuilder("r")
        a = b.add("a", latency=5)
        b.carry(a, a, distance=2)
        assert max_cycle_ratio(b.build()) == pytest.approx(2.5, abs=1e-4)

    def test_known_ratio_within_half_tol(self):
        """Regression: the bisection used to return the *upper* bound of
        the final interval, biasing every estimate high by up to a full
        ``tol``; the midpoint must sit within ``tol/2`` of the true
        maximum ratio on a cycle whose ratio is known exactly."""
        b = LoopBuilder("known")
        a = b.add("a", latency=3)
        c = b.add("c", a, latency=4)
        b.carry(c, a, distance=2)
        # cycle latency 3 + 4 = 7 over distance 2 -> ratio 3.5 exactly
        tol = 1e-6
        ratio = max_cycle_ratio(b.build(), tol=tol)
        assert abs(ratio - 3.5) <= tol / 2

    def test_tighter_tol_tightens_the_answer(self):
        b = LoopBuilder("r7")
        a = b.add("a", latency=7)
        b.carry(a, a, distance=3)
        loose = max_cycle_ratio(b.build(), tol=1e-2)
        tight = max_cycle_ratio(b.build(), tol=1e-8)
        assert abs(loose - 7 / 3) <= 0.5e-2
        assert abs(tight - 7 / 3) <= 0.5e-8

    def test_matches_recmii_ceiling(self, synth_sample):
        for ddg in synth_sample[:15]:
            ratio = max_cycle_ratio(ddg)
            expected = rec_mii(ddg)
            if ratio == 0.0:
                assert expected == 1
            else:
                import math
                assert math.ceil(ratio - 1e-4) == expected


class TestMiiReport:
    def test_binding_bound(self):
        rep = mii_report(tridiagonal(), qrf_machine(12))
        assert rep.rec == 3
        assert rep.mii == max(rep.res, rep.rec)
        assert not rep.resource_constrained

    def test_resource_constrained_flag(self):
        rep = mii_report(daxpy(), qrf_machine(4))
        assert rep.resource_constrained

    def test_mii_function(self):
        assert mii(daxpy(), qrf_machine(4)) == 2

    def test_ipc_bound(self):
        assert theoretical_ipc_bound(daxpy(), qrf_machine(4)) == \
            pytest.approx(5 / 2)


class TestZeroDistanceCycle:
    def test_rejected(self):
        from repro.ir.ddg import Ddg, DepKind
        from repro.ir.operations import Opcode
        ddg = Ddg("bad")
        a = ddg.add_operation(Opcode.ADD, name="a")
        b2 = ddg.add_operation(Opcode.ADD, name="b")
        ddg.add_dependence(a, b2, distance=0)
        ddg.add_dependence(b2, a, distance=0, kind=DepKind.DATA,
                           latency=1)
        with pytest.raises(ValueError, match="cycle"):
            rec_mii(ddg)
