"""The search state after every kind of partitioner probe.

The slot-search loop keeps only the packed state current while it runs
(``sig``/``cl``, the tables' occupant rows and full-row masks, a local
load per cluster) and rebuilds the rest when the probe ends.  This
property drives every registered engine through successful,
budget-exhausted, pinned and adjacency-relaxed probes on small generated
loops and 2- to 6-cluster rings, one shared arena per example, and
checks at the end of each probe:

* every borrowed table equals a recount from ``sig``/``cl``: counts,
  occupant rows, full-row masks, usage, load and placement map, and its
  memoised ``occupants()`` answers match the rows;
* the ops placed so far respect every dependence among themselves;
* a returned state's public maps equal the packed mirrors;
* the arena's next attempt hands back empty tables (checked before
  each probe too, at its II).
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.copyins import insert_copies
from repro.ir.operations import FuType
from repro.machine.cluster import make_clustered
from repro.machine.resources import N_POOLS, POOL_IDS
from repro.sched.arena import SchedArena
from repro.sched.mii import mii_report
from repro.sched.partitioners import PARTITIONERS, PartitionState
from repro.sched.partitioners import slotsearch
from repro.sched.schedule import ScheduleStats
from repro.workloads.synth import SynthConfig, generate_loop

#: the pool whose row-0 occupants the clean check memoises
_PRIMED = POOL_IDS[FuType.ADD]


def _assert_tables_match_mirrors(state: PartitionState) -> None:
    arr, ii = state.arr, state.ii
    caps = state.mrts[0].caps
    for c, mrt in enumerate(state.mrts):
        mine = [i for i in range(arr.n) if state.cl[i] == c]
        assert mrt._where == {arr.ids[i]: (arr.pool[i], state.sig[i])
                              for i in mine}
        assert mrt._load == len(mine)
        slots: dict[int, list[int]] = {}
        for i in mine:
            slots.setdefault(arr.pool[i] * ii + state.sig[i] % ii,
                             []).append(arr.ids[i])
        for slot in range(N_POOLS * ii):
            held = slots.get(slot, [])
            assert sorted(mrt._rows[slot]) == sorted(held), (c, slot)
            assert mrt._counts[slot] == len(held), (c, slot)
        for p in range(N_POOLS):
            assert mrt._usage[p] == sum(1 for i in mine
                                        if arr.pool[i] == p)
            full = sum(1 << r for r in range(ii)
                       if len(slots.get(p * ii + r, [])) >= caps[p] > 0)
            assert mrt._full[p] == full, (c, p)
        # memoised queries see the rebuilt table (the memo the clean
        # check below left behind is asked first)
        for p, r in [(_PRIMED, 0)] + [(p, r) for p in range(N_POOLS)
                                      for r in range(ii)]:
            assert mrt.occupants(p, r) == tuple(mrt._rows[p * ii + r])


def _assert_dependences_hold(state: PartitionState) -> None:
    arr, sig, ii = state.arr, state.sig, state.ii
    for s, d, lat, dist in zip(arr.e_src, arr.e_dst, arr.e_lat,
                               arr.e_dist):
        if s != d and sig[s] >= 0 and sig[d] >= 0:
            assert sig[d] + dist * ii >= sig[s] + lat, (s, d)


class _CheckedState(PartitionState):
    """Audits its tables the moment its probe closes (an engine may run
    a second probe on the same arena before returning)."""

    closed = 0

    def close(self, load: list[int]) -> None:
        super().close(load)
        _assert_tables_match_mirrors(self)
        _assert_dependences_hold(self)
        _CheckedState.closed += 1


def _assert_next_attempt_is_clean(arena: SchedArena, n: int, ii: int,
                                  caps: object) -> None:
    arena.begin_attempt()
    for mrt in arena.take_mrts(n, ii, caps):
        assert not any(mrt._counts)
        assert not any(mrt._rows)
        assert not mrt._where and mrt._load == 0
        assert not any(mrt._usage) and not any(mrt._full)
        # leave a memo behind: the next probe must not be served it
        mrt.occupants(_PRIMED, 0)


@st.composite
def probe_plans(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    ddg = generate_loop(random.Random(seed),
                        SynthConfig(n_loops=1, max_ops=18), seed)
    n_clusters = draw(st.integers(min_value=2, max_value=6))
    xlat = draw(st.sampled_from([0, 0, 1]))
    probes = draw(st.lists(st.tuples(
        st.sampled_from(tuple(PARTITIONERS)),
        st.sampled_from(["plain", "starved", "pinned", "relaxed"]),
        st.integers(min_value=0, max_value=3)), min_size=1, max_size=4))
    return insert_copies(ddg).ddg, n_clusters, xlat, probes, seed


@given(probe_plans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_state_after_every_probe(plan):
    ddg, n_clusters, xlat, probes, seed = plan
    cm = make_clustered(n_clusters, inter_cluster_latency=xlat)
    work = cm.cluster.retime(ddg)
    mii = mii_report(work, cm).mii
    caps = cm.cluster.fus.pool_caps
    arena = SchedArena()
    rng = random.Random(seed)
    with mock.patch.object(slotsearch, "PartitionState", _CheckedState):
        for engine, mode, extra_ii in probes:
            ii = mii + extra_ii
            budget = 6 * work.n_ops
            pinned = None
            if mode == "starved":
                # fewer rounds than ops: the probe must run out
                budget = rng.randint(1, work.n_ops - 1) \
                    if work.n_ops > 1 else 0
            elif mode == "pinned":
                pinned = {o: rng.randrange(n_clusters)
                          for o in work.op_ids if rng.random() < 0.5}
            _assert_next_attempt_is_clean(arena, n_clusters, ii, caps)
            closed = _CheckedState.closed
            state = PARTITIONERS[engine]().try_at_ii(
                work, cm, ii, budget=budget, pinned=pinned,
                relax_adjacency=mode == "relaxed", stats=ScheduleStats(),
                rng=rng, arena=arena)
            assert _CheckedState.closed > closed
            if mode == "starved":
                assert state is None
            if state is not None:
                arr = state.arr
                assert state.sigma == dict(zip(arr.ids, state.sig))
                assert state.cluster_of == dict(zip(arr.ids, state.cl))
                assert min(state.sig) >= 0
        _assert_next_attempt_is_clean(arena, n_clusters,
                                      mii + rng.randint(0, 3), caps)
