"""Property test: PackedMRT must agree exactly with the legacy dict MRT.

A seeded random driver applies the same place/remove/evict/conflicts/query
sequence to both tables (the legacy :class:`ModuloReservationTable` keyed
by FuType, the packed :class:`PackedMRT` keyed by integer pool id) and
requires bit-exact agreement after every step -- occupancy, victim
selection *order*, usage counters, and placement bookkeeping.  This is the
hypothesis-style loop that pins the packed core to the legacy semantics.
"""

import random

import pytest

from repro.ir.operations import FuType
from repro.machine.resources import POOL_ID_FOR, pool_for
from repro.sched.mrt import ModuloReservationTable, PackedMRT

FU_TYPES = (FuType.LS, FuType.ADD, FuType.MUL, FuType.COPY, FuType.MOVE)


def _assert_agree(legacy: ModuloReservationTable, packed: PackedMRT,
                  ii: int) -> None:
    assert legacy.load() == packed.load()
    for fu in FU_TYPES:
        pool = pool_for(fu)
        pid = POOL_ID_FOR[fu]
        assert legacy.usage(pool) == packed.usage(pid), fu
        for t in range(ii):
            if legacy.capacity(fu):
                assert legacy.can_place(fu, t) == packed.can_place(pid, t)
            assert (tuple(legacy.occupants(fu, t))
                    == packed.occupants(pid, t)), (fu, t)
    legacy_placements = list(legacy)
    packed_placements = list(packed)
    assert [(p.op_id, p.pool, p.time, p.row) for p in legacy_placements] \
        == [(p.op_id, p.pool, p.time, p.row) for p in packed_placements]


@pytest.mark.parametrize("seed", range(8))
def test_random_sequences_agree(seed, legacy_kernels_env):
    rng = random.Random(seed)
    ii = rng.randint(1, 7)
    caps = {FuType.LS: rng.randint(0, 2), FuType.ADD: rng.randint(1, 3),
            FuType.MUL: rng.randint(0, 2), FuType.COPY: rng.randint(1, 2)}
    legacy = ModuloReservationTable(ii, caps)
    packed = PackedMRT(ii, caps)
    next_id = 0
    live: list[int] = []
    fu_of: dict[int, FuType] = {}

    for _step in range(300):
        action = rng.random()
        fu = rng.choice(FU_TYPES)
        pid = POOL_ID_FOR[fu]
        t = rng.randint(0, 3 * ii)
        if action < 0.45:
            # place (only when legal -- both must agree it is)
            can_l = legacy.can_place(fu, t)
            assert can_l == packed.can_place(pid, t)
            if can_l:
                legacy.place(next_id, fu, t)
                packed.place(next_id, pid, t)
                live.append(next_id)
                fu_of[next_id] = fu
                next_id += 1
        elif action < 0.60 and live:
            victim = live.pop(rng.randrange(len(live)))
            legacy.remove(victim)
            packed.remove(victim)
            del fu_of[victim]
        elif action < 0.75:
            # non-mutating conflicts probe: identical victims, same order
            if legacy.capacity(fu) == 0:
                with pytest.raises(ValueError):
                    legacy.conflicts(fu, t)
                with pytest.raises(ValueError):
                    packed.conflicts(pid, t)
            else:
                assert (tuple(legacy.conflicts(fu, t))
                        == packed.conflicts(pid, t))
        elif action < 0.90:
            if legacy.capacity(fu) == 0:
                continue
            ev_l = tuple(legacy.evict_for(fu, t))
            ev_p = packed.evict_for(pid, t)
            assert ev_l == ev_p
            for v in ev_l:
                live.remove(v)
                del fu_of[v]
        else:
            _assert_agree(legacy, packed, ii)

    _assert_agree(legacy, packed, ii)


def test_first_free_matches_linear_scan():
    rng = random.Random(42)
    for _ in range(50):
        ii = rng.randint(1, 6)
        caps = {FuType.ADD: rng.randint(1, 2), FuType.LS: rng.randint(0, 1)}
        packed = PackedMRT(ii, caps)
        legacy = ModuloReservationTable(ii, caps)
        oid = 0
        for _ in range(rng.randint(0, 2 * ii)):
            fu = rng.choice((FuType.ADD, FuType.LS))
            t = rng.randint(0, 2 * ii)
            if legacy.can_place(fu, t):
                legacy.place(oid, fu, t)
                packed.place(oid, POOL_ID_FOR[fu], t)
                oid += 1
        for fu in (FuType.ADD, FuType.LS):
            pid = POOL_ID_FOR[fu]
            for est in range(2 * ii):
                expect = -1
                for t in range(est, est + ii):
                    if legacy.can_place(fu, t):
                        expect = t
                        break
                assert packed.first_free(pid, est) == expect


def test_conflicts_empty_is_shared_tuple():
    packed = PackedMRT(4, {FuType.ADD: 1})
    pid = POOL_ID_FOR[FuType.ADD]
    assert packed.conflicts(pid, 0) is packed.conflicts(pid, 2)


def test_occupants_conflicts_memo_mutation_safety():
    """Regression: the one-entry ``occupants()``/``conflicts()`` memos
    are keyed on the mutation stamp -- an unchanged table returns the
    *same* cached tuple, and any place/remove/evict must invalidate it
    (a stale tuple here silently corrupts eviction decisions)."""
    packed = PackedMRT(4, {FuType.ADD: 2})
    pid = POOL_ID_FOR[FuType.ADD]
    packed.place(1, pid, 0)
    first = packed.occupants(pid, 0)
    assert first == (1,)
    # untouched table: the memoised tuple object itself comes back
    assert packed.occupants(pid, 0) is first
    packed.place(2, pid, 0)
    assert packed.occupants(pid, 0) == (1, 2)   # stale (1,) is the bug
    conf = packed.conflicts(pid, 0)
    assert conf == (2,)
    assert packed.conflicts(pid, 0) is conf
    packed.remove(2)
    assert packed.conflicts(pid, 0) == ()
    assert packed.occupants(pid, 0) == (1,)
    # eviction is a mutation too
    packed.place(3, pid, 0)
    assert packed.evict_for(pid, 0) == (3,)
    assert packed.occupants(pid, 0) == (1,)
    # reset must not leak a memo into the next attempt
    packed.reset()
    assert packed.occupants(pid, 0) == ()


def test_packed_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PackedMRT(0, {FuType.ADD: 1})
    with pytest.raises(ValueError):
        PackedMRT(4, [1, 2])  # wrong pool-vector length
    t = PackedMRT(2, {FuType.ADD: 1})
    t.place(1, POOL_ID_FOR[FuType.ADD], 0)
    with pytest.raises(ValueError, match="already"):
        t.place(1, POOL_ID_FOR[FuType.ADD], 1)
    with pytest.raises(ValueError, match="free"):
        t.place(2, POOL_ID_FOR[FuType.ADD], 2)
    with pytest.raises(ValueError, match="no"):
        t.conflicts(POOL_ID_FOR[FuType.MUL], 0)
