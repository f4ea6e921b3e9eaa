"""Unit tests for lifetime extraction and occupancy analysis."""

from dataclasses import replace

import pytest

from repro.ir.copyins import insert_copies
from repro.machine.cluster import make_clustered
from repro.machine.presets import qrf_machine
from repro.regalloc.lifetimes import (Lifetime, Location, LocationKind,
                                      extract_lifetimes, location_of_edge,
                                      max_live, merged_value_lifetimes,
                                      steady_state_occupancy)
from repro.regalloc.queues import queue_depth
from repro.sched.ims import modulo_schedule
from repro.sched.partition import partitioned_schedule
from repro.workloads.kernels import daxpy, dot_product


def lt(start, length, distance=0):
    return Lifetime(0, 1, 0, start, length, distance)


class TestLifetimeBasics:
    def test_end(self):
        assert lt(3, 4).end == 7

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            lt(3, -1)

    def test_describe(self):
        assert "[3, 7)" in lt(3, 4).describe()


class TestExtraction:
    def test_daxpy_lifetimes(self):
        m = qrf_machine(4)
        s = modulo_schedule(daxpy(), m)
        lts = extract_lifetimes(s)
        assert len(lts) == 4  # one per DATA edge
        for l in lts:
            assert l.length >= 0
            assert l.location == Location(LocationKind.PRIVATE, 0)

    def test_carried_edge_has_distance(self):
        m = qrf_machine(4)
        s = modulo_schedule(dot_product(), m)
        carried = [l for l in extract_lifetimes(s) if l.distance > 0]
        assert len(carried) == 1
        assert carried[0].producer == carried[0].consumer

    def test_built_tuples_equal_checked_lifetimes(self):
        s = modulo_schedule(insert_copies(daxpy()).ddg, qrf_machine(4))
        for l in extract_lifetimes(s):
            assert type(l) is Lifetime
            assert l == Lifetime(*l)

    def test_violated_dependence_raises_the_lifetime_error(self):
        s = modulo_schedule(daxpy(), qrf_machine(4))
        e = next(iter(s.ddg.data_edges()))
        sigma = dict(s.sigma)
        sigma[e.dst] = sigma[e.src] + e.latency - e.distance * s.ii - 1
        broken = replace(s, sigma=sigma)
        with pytest.raises(ValueError) as got:
            extract_lifetimes(broken)
        with pytest.raises(ValueError) as want:
            Lifetime(e.src, e.dst, e.key, sigma[e.src] + e.latency, -1)
        assert str(got.value) == str(want.value)

    def test_clustered_locations(self):
        cm = make_clustered(4)
        work = insert_copies(daxpy()).ddg
        s = partitioned_schedule(work, cm)
        lts = extract_lifetimes(s, cm)
        for l in lts:
            ca = s.cluster_of[l.producer]
            cb = s.cluster_of[l.consumer]
            if ca == cb:
                assert l.location.kind is LocationKind.PRIVATE
            else:
                assert l.location.kind in (LocationKind.RING_CW,
                                           LocationKind.RING_CCW)
                assert l.location.cluster == ca

    def test_clustered_edge_without_machine_raises(self):
        cm = make_clustered(4)
        work = insert_copies(daxpy()).ddg
        s = partitioned_schedule(work, cm)
        if len(set(s.cluster_of.values())) > 1:
            with pytest.raises(ValueError):
                extract_lifetimes(s, None)


class TestOccupancy:
    def test_single_short_lifetime(self):
        # [0, 2) at II 4: live at phases 0, 1
        occ = steady_state_occupancy([lt(0, 2)], 4)
        assert occ == [1, 1, 0, 0]

    def test_lifetime_longer_than_ii_overlaps_self(self):
        # length 6 at II 4: floor(6/4)=1 always, +1 for 2 phases
        occ = steady_state_occupancy([lt(0, 6)], 4)
        assert occ == [2, 2, 1, 1]

    def test_zero_length_never_occupies(self):
        assert steady_state_occupancy([lt(5, 0)], 3) == [0, 0, 0]

    def test_max_live(self):
        assert max_live([lt(0, 2), lt(1, 2)], 4) == 2

    def test_empty(self):
        assert steady_state_occupancy([], 3) == [0, 0, 0]
        assert max_live([], 3) == 0


class TestRequiredPositions:
    def test_matches_steady_state_without_carries(self):
        lts = [lt(0, 3), lt(1, 2)]
        assert queue_depth(lts, 4) == max_live(lts, 4)

    def test_injected_bypass_needs_no_position(self):
        # zero-length carried lifetime: the initial value's virtual write
        # slot is >= 0, so the prologue injects it exactly when it is read
        # (combinational bypass) -- no queue position needed
        carried = lt(6, 0, distance=1)
        assert max_live([carried], 6) == 0
        assert queue_depth([carried], 6) == 0

    def test_preloaded_value_needs_a_position(self):
        # virtual write slot of the k=-1 instance is 2 - 6 < 0: the value
        # exists before the loop starts and occupies a position until its
        # read at cycle end - ii = 1
        carried = lt(2, 5, distance=1)
        assert queue_depth([carried], 6) >= 1

    def test_distance_two_needs_two_positions(self):
        # both pre-loop instances have negative slots (2-8, 2-4) and are
        # alive simultaneously at cycle -1
        carried = lt(2, 9, distance=2)
        assert queue_depth([carried], 4) >= 2

    def test_bad_ii(self):
        with pytest.raises(ValueError):
            queue_depth([lt(0, 1)], 0)


class TestMergedValueLifetimes:
    def test_multi_consumer_merges_to_last_read(self):
        from repro.ir.builder import LoopBuilder
        b = LoopBuilder("m")
        v = b.load("v")
        a = b.add("a", v)
        c = b.mul("c", v)
        b.store("s1", a)
        b.store("s2", c)
        m = qrf_machine(6)
        # schedule without copies: conventional-RF analysis
        s = modulo_schedule(b.build(), m)
        merged = merged_value_lifetimes(s)
        by_producer = {l.producer: l for l in merged}
        last_read = max(s.sigma[a.op_id], s.sigma[c.op_id])
        assert by_producer[v.op_id].end == last_read
