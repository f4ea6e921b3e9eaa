"""Property test: queue depth in closed form equals the execution sweep.

``queue_depth`` (the allocator's) and the verifier's local
``_queue_positions`` both count steady-state MaxLive per phase, and both
answer a one-lifetime queue as ⌈L/II⌉ without the per-phase table.  The
reference below is the per-instance event sweep they replaced: it walks
every instance an execution holds -- the ``distance`` preloads included
-- and takes the peak.  Equality is the claim that prologue preloads
never need more positions than the steady state.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.regalloc.lifetimes import (Lifetime, max_live,
                                      steady_state_occupancy)
from repro.regalloc.queues import queue_depth
from repro.verify.verifier import _queue_positions


def _event_sweep(lifetimes, ii):
    """Peak occupancy over a whole execution, instance by instance.

    Instances run from ``k = -distance`` (the preloads) on; a preload
    whose virtual write slot is negative exists from cycle -1, the rest
    are written at their slot.  Occupancy is end-of-cycle: an instance
    written at *s* and read at *e* occupies [s, e).
    """
    if not lifetimes:
        return 0
    horizon = max(lt.end for lt in lifetimes) + 2 * ii
    events = []
    for lt in lifetimes:
        k = -lt.distance
        while True:
            s, e = lt.start + k * ii, lt.end + k * ii
            if s > horizon:
                break
            s_clamped = max(s, -1) if k < 0 else s
            if e > s_clamped:
                events.append((s_clamped, +1))
                events.append((e, -1))
            k += 1
    events.sort()
    peak = cur = 0
    for _t, delta in events:
        cur += delta
        peak = max(peak, cur)
    return peak


def _phase_scan(lifetimes, ii):
    """Steady-state occupancy per phase by counting instances at one
    absolute cycle of each phase, far past every write."""
    base = (max((lt.end for lt in lifetimes), default=0) // ii + 1) * ii
    occ = []
    for phase in range(ii):
        t = base + phase
        occ.append(sum(len(range(-(-(t - lt.end + 1) // ii),
                                 (t - lt.start) // ii + 1))
                       for lt in lifetimes if lt.length))
    return occ


@st.composite
def queue_sets(draw):
    """Lifetimes with carried distances, zero lengths and II = 1."""
    ii = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=0, max_value=12))
    lts = []
    for i in range(n):
        start = draw(st.integers(min_value=0, max_value=3 * ii))
        length = draw(st.one_of(st.just(0),
                                st.integers(min_value=0, max_value=4 * ii)))
        distance = draw(st.integers(min_value=0, max_value=4))
        lts.append(Lifetime(2 * i, 2 * i + 1, i, start, length, distance))
    return lts, ii


@st.composite
def single_lifetimes(draw):
    """One lifetime -- the common queue, answered in closed form."""
    ii = draw(st.integers(min_value=1, max_value=10))
    lt = Lifetime(0, 1, 0, draw(st.integers(min_value=0, max_value=3 * ii)),
                  draw(st.integers(min_value=0, max_value=6 * ii)),
                  draw(st.integers(min_value=0, max_value=4)))
    return [lt], ii


def _verifier_positions(lts, ii):
    return _queue_positions(list(range(len(lts))),
                            [lt.start for lt in lts],
                            [lt.length for lt in lts], ii)


@given(queue_sets())
@settings(max_examples=600, deadline=None)
def test_queue_depth_matches_event_sweep(case):
    lts, ii = case
    assert queue_depth(lts, ii) == _event_sweep(lts, ii)


@given(queue_sets())
@settings(max_examples=600, deadline=None)
def test_verifier_positions_match_event_sweep(case):
    lts, ii = case
    assert _verifier_positions(lts, ii) == \
        _event_sweep(lts, ii)


def _per_phase_recount(starts, lengths, ii):
    """Steady-state peak, phase by phase: each lifetime holds ``L // II``
    instances at every phase plus one on the ``L % II`` phases from its
    write phase on (mod II)."""
    return max(sum(length // ii
                   + ((phase - start) % ii < length % ii)
                   for start, length in zip(starts, lengths))
               for phase in range(ii))


@st.composite
def queue_runs(draw):
    """Two or more (start, length) pairs: II = 1, zero lengths, lengths
    of II and more, and partial runs that wrap past the last phase."""
    ii = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=16)))
    n = draw(st.integers(min_value=2, max_value=8))
    starts = draw(st.lists(st.integers(min_value=0, max_value=4 * ii),
                           min_size=n, max_size=n))
    lengths = draw(st.lists(
        st.one_of(st.just(0), st.just(ii),
                  st.integers(min_value=0, max_value=5 * ii)),
        min_size=n, max_size=n))
    return starts, lengths, ii


@given(queue_runs())
@example(([0, 0], [0, 0], 1))           # II = 1, zero lengths
@example(([3, 5], [7, 2], 1))           # II = 1: every L >= II
@example(([3, 1], [4, 8], 4))           # L = II and L = 2 * II
@example(([3, 2, 0], [3, 0, 1], 4))     # a run wrapping onto phase 0
@example(([1, 3], [2, 1], 4))           # a run ending where one starts
@settings(max_examples=800, deadline=None)
def test_verifier_positions_match_per_phase_recount(case):
    starts, lengths, ii = case
    assert _queue_positions(list(range(len(starts))), starts, lengths,
                            ii) == _per_phase_recount(starts, lengths, ii)


@given(single_lifetimes())
@settings(max_examples=300, deadline=None)
def test_one_lifetime_depth_matches_event_sweep(case):
    lts, ii = case
    want = _event_sweep(lts, ii)
    assert max_live(lts, ii) == want
    assert queue_depth(lts, ii) == want
    assert _verifier_positions(lts, ii) == want
    assert want == max(steady_state_occupancy(lts, ii))


@pytest.mark.parametrize("ii", [0, -1])
def test_one_lifetime_fast_path_keeps_the_ii_guard(ii):
    with pytest.raises(ValueError):
        max_live([Lifetime(0, 1, 0, 0, 3)], ii)


@given(queue_sets())
@settings(max_examples=300, deadline=None)
def test_closed_form_occupancy_matches_phase_scan(case):
    lts, ii = case
    assert steady_state_occupancy(lts, ii) == _phase_scan(lts, ii)
    assert max_live(lts, ii) == max(_phase_scan(lts, ii))


def test_fixed_corner_cases():
    # II = 1: every lifetime of length L holds L positions at once
    assert queue_depth([Lifetime(0, 1, 0, 3, 5, 2)], 1) == 5
    # a zero-length carried lifetime is a bypass at any distance
    assert queue_depth([Lifetime(0, 1, 0, 0, 0, 3)], 4) == 0
    # a partial run wrapping past the last phase
    assert steady_state_occupancy([Lifetime(0, 1, 0, 3, 6, 0)], 4) == \
        [2, 1, 1, 2]
