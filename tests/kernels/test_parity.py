"""Reference parity: the scalar kernels and table probes match brute force.

Every primitive the schedulers lean on -- the max-plus relaxations and
audits of :mod:`repro.kernels`, the :class:`PackedMRT` probes and reset,
and the slot search's predecessor-arrival round -- is compared here
against a deliberately naive reference written from its definition
(Floyd-Warshall for positive cycles, forward Bellman-Ford sweeps in
``Ddg`` edge order, per-slot counting for capacity, linear scans for
``first_free``).  Seeded random structures cover the edge cases the
workloads cannot: negative slack, unplaced predecessors, zero-capacity
pools, full rows and IIs past 63 rows.
"""

import random
from collections import Counter

import pytest

from repro import kernels
from repro.ir.copyins import insert_copies
from repro.ir.ddg import DepKind
from repro.ir.operations import FuType
from repro.ir.unroll import unroll
from repro.machine.cluster import make_clustered
from repro.machine.presets import qrf_machine
from repro.machine.resources import POOL_ID_FOR
from repro.sched.ims import modulo_schedule
from repro.sched.mrt import PackedMRT
from repro.sched.partitioners.base import PartitionState
from repro.workloads.kernels import kernel


def _ddg(name, factor=1):
    d = kernel(name)
    if factor > 1:
        d = unroll(d, factor)
    return insert_copies(d).ddg


WORKLOADS = [("daxpy", 1), ("dot", 4), ("fir4", 2), ("hydro1", 1),
             ("tridiag", 2)]


# ------------------------------------------------------------ references

def _ref_positive_cycle(n, edges, ii):
    """Floyd-Warshall in the max-plus semiring: a positive cycle shows up
    as a positive diagonal entry of the closure."""
    neg = float("-inf")
    best = [[neg] * n for _ in range(n)]
    for s, d, lat, dist in edges:
        best[s][d] = max(best[s][d], lat - ii * dist)
    for k in range(n):
        row_k = best[k]
        for i in range(n):
            ik = best[i][k]
            if ik == neg:
                continue
            row_i = best[i]
            for j in range(n):
                cand = ik + row_k[j]
                if cand > row_i[j]:
                    row_i[j] = cand
    return any(best[i][i] > kernels.EPS for i in range(n))


def _index_edges(ddg, arr, *, zero_only=False):
    """``(src, dst, lat, dist)`` per edge, op indices, ``Ddg`` order."""
    return [(arr.index[e.src], arr.index[e.dst], e.latency, e.distance)
            for e in ddg.edges() if not zero_only or e.distance == 0]


def _ref_longest(n, edges, ii, *, backwards):
    """Least fixed point >= 0 of the longest-path relaxation, by forward
    sweeps in edge order (the kernels sweep in their own order), or
    ``None`` if it still moves after ``n + 1`` sweeps."""
    val = [0] * n
    for _ in range(n + 1):
        changed = False
        for s, d, lat, dist in edges:
            src, dst = (d, s) if backwards else (s, d)
            cand = val[src] + lat - dist * ii
            if cand > val[dst]:
                val[dst] = cand
                changed = True
        if not changed:
            return val
    return None


def _ref_capacity_clean(pool, sig, cl, ii, caps):
    used = Counter((cl[i], pool[i], t % ii)
                   for i, t in enumerate(sig) if t >= 0)
    return all(c <= caps[p] for (_cl, p, _row), c in used.items())


# ---------------------------------------------------------- Bellman-Ford

@pytest.mark.parametrize("seed", range(4))
def test_cycle_tester_parity_random(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 24)
    edges = [(rng.randrange(n), rng.randrange(n),
              rng.randint(1, 4), rng.randint(0, 2))
             for _ in range(rng.randint(1, 6 * n))]
    # the loop-carried subgraph alone has a finite cycle ratio, so its
    # verdict flips inside the probed range
    carried = [e for e in edges if e[3] > 0]
    for es in (edges, carried):
        test = kernels.cycle_tester(n, es)
        for ii in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0):
            assert test(ii) == _ref_positive_cycle(n, es, ii), (seed, ii)


@pytest.mark.parametrize("name,factor", WORKLOADS)
def test_relaxation_parity_workloads(name, factor):
    ddg = _ddg(name, factor)
    arr = ddg.arrays()
    edges = _index_edges(ddg, arr)
    for ii in (1, 2, 3, 5):
        assert kernels.heights(arr, ii) == _ref_longest(
            arr.n, edges, ii, backwards=True)
        assert kernels.earliest_starts(arr, ii) == _ref_longest(
            arr.n, edges, ii, backwards=False)
    assert kernels.zero_heights(arr) == _ref_longest(
        arr.n, _index_edges(ddg, arr, zero_only=True), 0, backwards=True)


def test_relaxation_divergence_parity():
    """A recurrence too tight for the probed II must diverge (return
    ``None``) exactly when the graph has a positive cycle at that II."""
    ddg = _ddg("dot", 4)
    arr = ddg.arrays()
    edges = _index_edges(ddg, arr)
    # ii=0 makes every distance-carrying cycle positive
    for ii in (0, 1, 8):
        diverges = _ref_positive_cycle(arr.n, edges, ii)
        assert (kernels.heights(arr, ii) is None) == diverges, ii
        assert (kernels.earliest_starts(arr, ii) is None) == diverges, ii
    assert kernels.heights(arr, 0) is None


# --------------------------------------------------------------- audits

@pytest.mark.parametrize("name,factor", WORKLOADS[:3])
def test_audit_parity_on_real_schedules(name, factor):
    work = _ddg(name, factor)
    machine = qrf_machine(4)
    sched = modulo_schedule(work, machine)
    arr = sched.ddg.arrays()
    edges = _index_edges(sched.ddg, arr)
    sig = [sched.sigma[o] for o in arr.ids]
    cl = [0] * arr.n
    caps = machine.fus.pool_caps
    ii = sched.ii

    def ref_dependence_clean():
        return all(sig[d] + dist * ii >= sig[s] + lat
                   for s, d, lat, dist in edges)

    assert kernels.dependence_clean(arr, sig, ii)
    assert kernels.capacity_clean(arr.pool, sig, cl, ii, caps)
    # corrupt one placement at a time: verdicts must track exactly
    rng = random.Random(factor)
    for _ in range(12):
        i = rng.randrange(arr.n)
        old = sig[i]
        sig[i] = rng.randint(-1, 3 * ii)
        if sig[i] >= 0:
            assert (kernels.dependence_clean(arr, sig, ii)
                    == ref_dependence_clean())
        assert (kernels.capacity_clean(arr.pool, sig, cl, ii, caps)
                == _ref_capacity_clean(arr.pool, sig, cl, ii, caps))
        sig[i] = old


@pytest.mark.parametrize("seed", range(4))
def test_capacity_parity_random(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(3, 80)
    ii = rng.randint(1, 9)
    caps = [rng.randint(0, 3) for _ in range(4)]
    pool = [rng.randrange(4) for _ in range(n)]
    sig = [rng.randint(-1, 4 * ii) for _ in range(n)]
    cl = [rng.randrange(3) for _ in range(n)]
    assert (kernels.capacity_clean(pool, sig, cl, ii, caps)
            == _ref_capacity_clean(pool, sig, cl, ii, caps))


# ------------------------------------------------------------ MRT probes

def _random_mrt(rng, ii):
    caps = {FuType.LS: rng.randint(0, 2), FuType.ADD: rng.randint(1, 3),
            FuType.MUL: rng.randint(0, 2), FuType.COPY: rng.randint(1, 2)}
    mrt = PackedMRT(ii, caps)
    oid = 0
    for _ in range(rng.randint(0, 6 * ii)):
        fu = rng.choice((FuType.LS, FuType.ADD, FuType.MUL, FuType.COPY))
        pid = POOL_ID_FOR[fu]
        t = rng.randint(0, 3 * ii)
        if mrt.can_place(pid, t):
            mrt.place(oid, pid, t)
            oid += 1
    return mrt


def _ref_can_place(mrt, pid, t):
    return len(mrt.occupants(pid, t)) < mrt.capacity(pid)


def _ref_first_free(mrt, pid, est):
    for t in range(est, est + mrt.ii):
        if _ref_can_place(mrt, pid, t):
            return t
    return -1


@pytest.mark.parametrize("seed", range(4))
def test_zero_counts_parity(seed):
    """``reset`` tears down every touched slot: afterwards the table is
    indistinguishable from a fresh one, at the old II or a new one."""
    rng = random.Random(200 + seed)
    ii = rng.randint(1, 12)
    for new_ii in (None, rng.randint(1, 12)):
        a = _random_mrt(rng, ii)
        a.reset(new_ii)
        fresh = PackedMRT(a.ii, list(a.caps))
        assert list(a._counts) == [0] * len(a._counts)
        assert a.load() == 0 and list(a) == []
        for pid in range(4):
            for t in range(a.ii):
                assert a.occupants(pid, t) == ()
                assert a.can_place(pid, t) == fresh.can_place(pid, t)


@pytest.mark.parametrize("seed", range(4))
def test_can_place_batch_parity(seed):
    rng = random.Random(300 + seed)
    ii = rng.randint(1, 12)
    mrt = _random_mrt(rng, ii)
    times = [rng.randint(0, 5 * ii) for _ in range(rng.randint(1, 40))]
    for pid in range(4):
        assert ([mrt.can_place(pid, t) for t in times]
                == [_ref_can_place(mrt, pid, t) for t in times])


@pytest.mark.parametrize("ii", [1, 2, 7, 63])
def test_first_free_batch_parity(ii):
    """The mask-rotation ``first_free`` vs a linear scan over a batch of
    tables, including the 63-row case and zero-capacity pools."""
    rng = random.Random(ii)
    mrts = [_random_mrt(rng, ii) for _ in range(20)]
    ests = [rng.randint(0, 4 * ii) for _ in mrts]
    for pid in range(4):
        assert ([m.first_free(pid, e) for m, e in zip(mrts, ests)]
                == [_ref_first_free(m, pid, e) for m, e in zip(mrts, ests)])


def test_first_free_batch_wide_ii_falls_back():
    """IIs beyond 63 rows need masks wider than a machine word; the
    probe must still see every row, not a truncated window."""
    rng = random.Random(64)
    mrts = [_random_mrt(rng, 70) for _ in range(20)]
    ests = [rng.randint(0, 140) for _ in mrts]
    pid = POOL_ID_FOR[FuType.ADD]
    assert ([m.first_free(pid, e) for m, e in zip(mrts, ests)]
            == [_ref_first_free(m, pid, e) for m, e in zip(mrts, ests)])


# ----------------------------------------------------- slot-search round

def _random_state(rng, name, factor, n_clusters, xlat, ii, horizon):
    ddg = _ddg(name, factor)
    cm = make_clustered(n_clusters, inter_cluster_latency=xlat)
    state = PartitionState(ddg, cm, ii)
    arr = state.arr
    state.sig = [rng.choice((-1, rng.randint(0, horizon)))
                 for _ in range(arr.n)]
    state.cl = [rng.randrange(n_clusters) for _ in range(arr.n)]
    return ddg, state


def _arrivals(state, i):
    """One placement round's arrival terms for op index *i*, built off
    the packed in-edges as the slot search builds them: ``(base,
    src_cluster)`` per scheduled predecessor, ``src_cluster`` -1 where no
    ring latency can apply."""
    arr, sig, cl = state.arr, state.sig, state.cl
    out = []
    for j in range(arr.in_ptr[i], arr.in_ptr[i + 1]):
        s = arr.in_src[j]
        if sig[s] < 0:
            continue
        base = sig[s] + arr.in_lat[j] - arr.in_dist[j] * state.ii
        out.append((base, cl[s] if state.xlat and arr.in_data[j] else -1))
    return out


def _ref_estart(ddg, state, op_id, cluster):
    """Earliest start from the ``Ddg`` edges directly: scheduled
    predecessors only, plus the ring latency on a DATA edge that crosses
    clusters."""
    arr, ii = state.arr, state.ii
    est = 0
    for e in ddg.in_edges(op_id):
        s = arr.index[e.src]
        if state.sig[s] < 0:
            continue
        t = state.sig[s] + e.latency - e.distance * ii
        if e.kind is DepKind.DATA and state.cl[s] != cluster:
            t += state.xlat
        est = max(est, t)
    return est


@pytest.mark.parametrize("seed", range(6))
def test_pred_arrivals_round_decision_parity(seed):
    """One arrivals round (what the slot search computes per placement)
    decides the same earliest start on every cluster as a fresh walk of
    the graph, and is cluster-independent when no term can cross."""
    rng = random.Random(400 + seed)
    n_clusters = 4
    xlat = rng.choice((0, 1, 2))
    ddg, state = _random_state(rng, "dot", 4, n_clusters, xlat, 2, 30)
    for i, op_id in enumerate(state.arr.ids):
        arrivals = _arrivals(state, i)
        ests = [PartitionState.estart_from(arrivals, c, xlat)
                for c in range(n_clusters)]
        assert ests == [_ref_estart(ddg, state, op_id, c)
                        for c in range(n_clusters)], (seed, i)
        if all(sc < 0 for _base, sc in arrivals):
            assert len(set(ests)) == 1


@pytest.mark.parametrize("seed", range(6))
def test_estart_parity(seed):
    """The single-cluster earliest start (the IMS rule) matches the
    graph walk for partial schedules with unplaced predecessors."""
    rng = random.Random(500 + seed)
    ii = rng.randint(1, 5)
    ddg, state = _random_state(rng, "fir4", 2, 1, 0, ii, 40)
    for i, op_id in enumerate(state.arr.ids):
        est = PartitionState.estart_from(_arrivals(state, i), 0, state.xlat)
        assert est == _ref_estart(ddg, state, op_id, 0), (seed, op_id, ii)
