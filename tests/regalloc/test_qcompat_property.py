"""Property test: the closed-form Q-Compatibility test (Theorem 1.1) must
agree exactly with brute-force FIFO event simulation on random lifetimes,
and the sorted-order test for a whole queue (DESIGN.md §5.2) with both.

This is the central correctness property of the queue allocator: any
discrepancy here would silently corrupt allocations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regalloc.lifetimes import Lifetime
from repro.regalloc.queues import (allocate_queues, fifo_order_consistent,
                                   q_compatible)
from repro.verify.verifier import _fifo_ordered


@st.composite
def lifetime_pairs(draw):
    ii = draw(st.integers(min_value=1, max_value=12))
    s_a = draw(st.integers(min_value=0, max_value=3 * ii))
    s_b = draw(st.integers(min_value=0, max_value=3 * ii))
    l_a = draw(st.integers(min_value=0, max_value=3 * ii))
    l_b = draw(st.integers(min_value=0, max_value=3 * ii))
    return (Lifetime(0, 1, 0, s_a, l_a),
            Lifetime(2, 3, 0, s_b, l_b), ii)


@given(lifetime_pairs())
@settings(max_examples=400, deadline=None)
def test_closed_form_matches_event_simulation(case):
    a, b, ii = case
    assert q_compatible(a, b, ii) == fifo_order_consistent(a, b, ii)


@given(lifetime_pairs())
@settings(max_examples=200, deadline=None)
def test_symmetry(case):
    a, b, ii = case
    assert q_compatible(a, b, ii) == q_compatible(b, a, ii)


@st.composite
def lifetime_sets(draw):
    ii = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=1, max_value=10))
    lts = []
    for i in range(n):
        s = draw(st.integers(min_value=0, max_value=2 * ii))
        l = draw(st.integers(min_value=0, max_value=2 * ii))
        lts.append(Lifetime(2 * i, 2 * i + 1, 0, s, l))
    return lts, ii


@given(lifetime_sets())
@settings(max_examples=150, deadline=None)
def test_allocation_is_pairwise_compatible(case):
    lts, ii = case
    alloc = allocate_queues(lts, ii)
    for q in alloc.queues:
        for i, a in enumerate(q):
            for b in q[i + 1:]:
                assert q_compatible(a, b, ii)
    # every lifetime allocated exactly once
    assert sum(len(q) for q in alloc.queues) == len(lts)


@given(lifetime_sets())
@settings(max_examples=100, deadline=None)
def test_allocation_pairwise_implies_global_fifo(case):
    """Pairwise compatibility within a queue implies a globally consistent
    FIFO order: validated by checking all pairs against the *event
    simulation* (not the closed form the allocator used)."""
    lts, ii = case
    alloc = allocate_queues(lts, ii)
    for q in alloc.queues:
        for i, a in enumerate(q):
            for b in q[i + 1:]:
                assert fifo_order_consistent(a, b, ii)


@given(lifetime_sets())
@settings(max_examples=100, deadline=None)
def test_allocation_deterministic(case):
    lts, ii = case
    a1 = allocate_queues(lts, ii)
    a2 = allocate_queues(list(reversed(lts)), ii)
    # input order must not matter (allocator sorts internally)
    assert [len(q) for q in a1.queues] == [len(q) for q in a2.queues]


def _first_fit_reference(lifetimes, ii):
    """The plain first-fit scan: every queue, every member, no residue
    index."""
    queues = []
    for lt in sorted(lifetimes, key=lambda lt: (lt.start, lt.length,
                                                lt.producer, lt.consumer,
                                                lt.edge_key)):
        for q in queues:
            if all(q_compatible(lt, other, ii) for other in q):
                q.append(lt)
                break
        else:
            queues.append([lt])
    return queues


@st.composite
def crowded_lifetime_sets(draw):
    """Many lifetimes over few start residues, so most queues already
    hold the incoming residue (II = 1 puts every start on one)."""
    ii = draw(st.integers(min_value=1, max_value=12))
    residues = draw(st.lists(st.integers(min_value=0, max_value=ii - 1),
                             min_size=1, max_size=3))
    n = draw(st.integers(min_value=1, max_value=40))
    lts = []
    for i in range(n):
        r = draw(st.sampled_from(residues))
        s = r + ii * draw(st.integers(min_value=0, max_value=4))
        l = draw(st.integers(min_value=0, max_value=3 * ii))
        lts.append(Lifetime(2 * i, 2 * i + 1, 0, s, l))
    return lts, ii


@given(st.one_of(crowded_lifetime_sets(), lifetime_sets()))
@settings(max_examples=300, deadline=None)
def test_residue_indexed_first_fit_matches_plain_scan(case):
    lts, ii = case
    assert allocate_queues(lts, ii).queues == _first_fit_reference(lts, ii)


@st.composite
def near_fifo_sets(draw):
    """Lifetime sets built around the sorted-order form -- distinct
    residues, ends mostly increasing -- so both answers are common.
    II = 1, zero-length lifetimes and lengths of several II occur."""
    ii = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=1, max_value=min(ii, 6) + 1))
    residues = sorted(draw(st.lists(st.integers(min_value=0,
                                                max_value=ii - 1),
                                    min_size=n, max_size=n)))
    lts = []
    end = residues[0] + draw(st.integers(min_value=0, max_value=2 * ii))
    for i, r in enumerate(residues):
        if i:
            end += draw(st.integers(min_value=0, max_value=ii))
        end = max(end, r + draw(st.integers(min_value=0, max_value=1)))
        start = r + ii * draw(st.integers(min_value=0, max_value=3))
        lts.append(Lifetime(2 * i, 2 * i + 1, 0, start, end - r))
    return draw(st.permutations(lts)), ii


@given(st.one_of(near_fifo_sets(), lifetime_sets()))
@settings(max_examples=300, deadline=None)
def test_sorted_order_test_matches_pairwise_forms(case):
    """A set can share one FIFO (sorted-order test) iff every pair is
    Q-compatible (closed form) iff every pair keeps FIFO order (event
    simulation); first-fit packs exactly those sets into one queue."""
    lts, ii = case
    pairs = [(a, b) for i, a in enumerate(lts) for b in lts[i + 1:]]
    closed = all(q_compatible(a, b, ii) for a, b in pairs)
    ordered = _fifo_ordered(list(range(len(lts))),
                            [lt.start for lt in lts],
                            [lt.length for lt in lts], ii)
    assert ordered == closed
    assert closed == all(fifo_order_consistent(a, b, ii) for a, b in pairs)
    assert (allocate_queues(lts, ii).n_queues == 1) == closed


@st.composite
def roomy_lifetime_sets(draw):
    """Short lifetimes at a long II: queues hold many members, so new
    lifetimes land between, before and after a queue's residues."""
    ii = draw(st.integers(min_value=4, max_value=24))
    n = draw(st.integers(min_value=1, max_value=40))
    lts = []
    for i in range(n):
        s = draw(st.integers(min_value=0, max_value=3 * ii))
        l = draw(st.integers(min_value=0, max_value=ii // 2))
        lts.append(Lifetime(2 * i, 2 * i + 1, 0, s, l))
    return lts, ii


@given(roomy_lifetime_sets())
@settings(max_examples=200, deadline=None)
def test_sorted_order_first_fit_matches_pairwise_first_fit(case):
    lts, ii = case
    assert allocate_queues(lts, ii).queues == _first_fit_reference(lts, ii)
