"""Modulo reservation tables (MRTs).

An MRT tracks FU usage per ``cycle mod II`` row: in a modulo schedule, an
op issued at time *t* occupies one unit of its FU pool at row ``t % II`` in
*every* iteration, so two ops of the same pool may share a row only while
the pool has spare units.  FUs are fully pipelined (one reservation per
issue), the standard assumption of the paper's framework.

One MRT serves one cluster; a single-cluster machine uses exactly one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from repro.ir.operations import FuType
from repro.machine.resources import (HARDWARE_POOLS, N_POOLS, POOL_IDS,
                                     pool_for)


@dataclass(frozen=True)
class Placement:
    """Where an op currently sits in the table."""

    op_id: int
    pool: FuType
    time: int
    row: int


class ModuloReservationTable:
    """FU occupancy for one cluster at a fixed II."""

    def __init__(self, ii: int, capacities: dict[FuType, int]) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.ii = ii
        # hardware pools only (capacities keyed by pool)
        self._cap = {pool: n for pool, n in capacities.items() if n > 0}
        # occupancy[pool][row] -> list of op_ids (order = placement order)
        self._rows: dict[FuType, list[list[int]]] = {
            pool: [[] for _ in range(ii)] for pool in self._cap}
        self._where: dict[int, Placement] = {}
        # maintained counters: usage()/load() are hot-path queries (the
        # slot search ranks clusters by load on every candidate), so they
        # must never recount rows
        self._usage: dict[FuType, int] = {pool: 0 for pool in self._cap}
        self._load = 0

    # ------------------------------------------------------------ queries

    def capacity(self, fu_type: FuType) -> int:
        return self._cap.get(pool_for(fu_type), 0)

    def can_place(self, fu_type: FuType, time: int) -> bool:
        """Is there a free unit of the pool serving *fu_type* at ``time``?"""
        pool = pool_for(fu_type)
        cap = self._cap.get(pool, 0)
        if cap == 0:
            return False
        return len(self._rows[pool][time % self.ii]) < cap

    def occupants(self, fu_type: FuType, time: int) -> tuple[int, ...]:
        """Ops currently holding the row serving *fu_type* at ``time``."""
        pool = pool_for(fu_type)
        if pool not in self._rows:
            return ()
        return tuple(self._rows[pool][time % self.ii])

    def placement_of(self, op_id: int) -> Optional[Placement]:
        return self._where.get(op_id)

    def is_placed(self, op_id: int) -> bool:
        return op_id in self._where

    def usage(self, pool: FuType) -> int:
        """Total reservations currently held in a pool (maintained
        counter -- never recounts the rows)."""
        return self._usage.get(pool, 0)

    def load(self) -> int:
        """Total reservations across all pools (cluster load heuristic;
        maintained counter)."""
        return self._load

    def __iter__(self) -> Iterator[Placement]:
        return iter(sorted(self._where.values(), key=lambda p: p.op_id))

    # ----------------------------------------------------------- mutation

    def place(self, op_id: int, fu_type: FuType, time: int) -> Placement:
        """Reserve a unit; raises if the op is already placed or no unit is
        free (callers must evict first -- see :meth:`evict_for`)."""
        if op_id in self._where:
            raise ValueError(f"op {op_id} already placed")
        if not self.can_place(fu_type, time):
            raise ValueError(
                f"no free {pool_for(fu_type).value} unit at row "
                f"{time % self.ii}")
        pool = pool_for(fu_type)
        row = time % self.ii
        self._rows[pool][row].append(op_id)
        placement = Placement(op_id, pool, time, row)
        self._where[op_id] = placement
        self._usage[pool] += 1
        self._load += 1
        return placement

    def remove(self, op_id: int) -> None:
        placement = self._where.pop(op_id)
        self._rows[placement.pool][placement.row].remove(op_id)
        self._usage[placement.pool] -= 1
        self._load -= 1

    def conflicts(self, fu_type: FuType, time: int) -> list[int]:
        """The occupants a forced placement of *fu_type* at ``time`` must
        displace, newest-first -- :meth:`evict_for`'s victim selection
        without the removal, for callers whose eviction path owns more
        bookkeeping than the table."""
        pool = pool_for(fu_type)
        if self._cap.get(pool, 0) == 0:
            raise ValueError(f"machine has no {pool.value} units at all")
        occupants = self._rows[pool][time % self.ii]
        spare = len(occupants) - self._cap[pool] + 1
        if spare <= 0:
            return []
        return list(reversed(occupants[-spare:]))

    def evict_for(self, fu_type: FuType, time: int) -> list[int]:
        """Make room for one op of *fu_type* at ``time`` by evicting the
        most recently placed occupant (Rau's forced placement displaces
        conflicting ops; evicting the newest favours stability of older,
        higher-priority placements).  Returns evicted op ids -- exactly
        the :meth:`conflicts` set, so the two can never diverge."""
        victims = self.conflicts(fu_type, time)
        for victim in victims:
            self.remove(victim)
        return victims

    def clear(self) -> None:
        for pool in self._rows:
            self._rows[pool] = [[] for _ in range(self.ii)]
        self._where.clear()
        self._usage = {pool: 0 for pool in self._cap}
        self._load = 0

    # ------------------------------------------------------------ display

    def render(self) -> str:
        """ASCII dump (rows x pools) used by examples/CLI."""
        pools = sorted(self._rows, key=lambda p: p.name)
        header = "row | " + " | ".join(
            f"{p.value}({self._cap[p]})" for p in pools)
        lines = [header, "-" * len(header)]
        for row in range(self.ii):
            cells = []
            for p in pools:
                cells.append(",".join(str(o) for o in self._rows[p][row])
                             or ".")
            lines.append(f"{row:3d} | " + " | ".join(cells))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Packed-array MRT: the schedulers' hot-path representation
# ---------------------------------------------------------------------------

#: Shared immutable empty-victims result -- ``conflicts()`` on a free row
#: must not allocate (it runs once per forced placement probe).
_NO_VICTIMS: tuple[int, ...] = ()

#: Zero usage counters and full-row masks: :meth:`PackedMRT.reset`
#: copies them in instead of zeroing pool by pool.
_ZERO_USAGE = array("i", bytes(4 * N_POOLS))
_ZERO_FULL = (0,) * N_POOLS


class PackedMRT:
    """FU occupancy for one cluster at a fixed II, packed into flat arrays.

    Semantically identical to :class:`ModuloReservationTable` (the property
    test in ``tests/sched/test_mrt_equiv.py`` drives both through random
    place/remove/evict sequences and requires exact agreement), but built
    for the scheduler inner loops:

    * pools are dense integer ids (:data:`repro.machine.resources.POOL_IDS`)
      so queries never hash enum members;
    * per-(pool, row) occupancy lives in one flat ``array('i')`` row-count
      vector -- ``can_place`` is two indexed loads and a compare;
    * ``usage()``/``load()`` are maintained counters, never a ``sum()``;
    * ``conflicts()`` is non-mutating and returns the shared empty tuple
      when the row has spare capacity (no allocation on the common path).

    Occupant op ids are kept per row (placement order) so forced-placement
    victim selection matches the legacy table exactly.

    The table is **arena-reusable**: :meth:`reset` tears the previous
    attempt down in O(touched slots) -- only rows that actually held an
    op are cleared -- and re-dimensions the same buffers for a new II, so
    a pooled instance (see :class:`repro.sched.arena.SchedArena`) never
    reallocates its count vector or its per-row occupant lists between
    attempts.
    """

    __slots__ = ("ii", "caps", "_counts", "_rows", "_usage", "_load",
                 "_where", "_full", "_mut", "_occ_memo", "_conf_memo")

    @staticmethod
    def _caps_array(capacities: Union[dict[FuType, int], Sequence[int]],
                    ) -> array:
        if isinstance(capacities, array):
            # pre-packed (FuSet.pool_caps); adopted as-is -- the caps
            # vector is never mutated in place, so tables may share it
            if len(capacities) != N_POOLS:
                raise ValueError(f"expected {N_POOLS} pool capacities")
            return capacities
        if isinstance(capacities, dict):
            caps = [0] * N_POOLS
            for pool, n in capacities.items():
                if n > 0:
                    caps[POOL_IDS[pool_for(pool)]] = n
        else:
            caps = list(capacities)
            if len(caps) != N_POOLS:
                raise ValueError(f"expected {N_POOLS} pool capacities")
        return array("i", caps)

    def __init__(self, ii: int,
                 capacities: Union[dict[FuType, int], Sequence[int]],
                 ) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.ii = ii
        self.caps = self._caps_array(capacities)
        self._counts = array("i", bytes(4 * N_POOLS * ii))
        self._rows: list[list[int]] = [[] for _ in range(N_POOLS * ii)]
        self._usage = array("i", bytes(4 * N_POOLS))
        self._load = 0
        self._where: dict[int, tuple[int, int]] = {}  # op -> (pool, time)
        # per-pool bitmask of *full* rows (bit r set iff row r is at
        # capacity).  Its lowest clear bit is the pool's low-water mark:
        # first_free() reads the answer off the mask instead of probing
        # the count vector row by row from the start slot.
        self._full = [0] * N_POOLS
        # mutation stamp + one-entry memos: occupants()/conflicts() on an
        # unchanged table return the previously built tuple instead of
        # rebuilding it (the forced-placement paths probe the same slot
        # more than once per eviction round)
        self._mut = 0
        self._occ_memo: Optional[tuple[int, int, tuple[int, ...]]] = None
        self._conf_memo: Optional[tuple[int, int, tuple[int, ...]]] = None

    # ------------------------------------------------------------ queries

    def capacity(self, pool: int) -> int:
        return self.caps[pool]

    def can_place(self, pool: int, time: int) -> bool:
        """Is there a free unit of integer pool *pool* at ``time``?"""
        return self._counts[pool * self.ii + time % self.ii] \
            < self.caps[pool]

    def first_free(self, pool: int, est: int) -> int:
        """Earliest ``t`` in ``[est, est + II)`` with a free unit, or -1.

        The II-wide window is exhaustive: rows repeat modulo II, so any
        later slot reuses a row already probed.  Answered from the pool's
        full-row mask: rotate the mask so ``est``'s row sits at bit 0 and
        take the lowest clear bit -- no per-row count probing (the
        property test in ``tests/sched/test_mrt.py`` pins this against
        the naive scan under random place/remove interleavings).
        """
        if self.caps[pool] <= 0:
            return -1
        mask = self._full[pool]
        if not mask:
            return est
        ii = self.ii
        all_full = (1 << ii) - 1
        if mask == all_full:
            return -1
        r = est % ii
        if r:
            mask = ((mask >> r) | (mask << (ii - r))) & all_full
        free = ~mask & all_full
        return est + (free & -free).bit_length() - 1

    def occupants(self, pool: int, time: int) -> tuple[int, ...]:
        slot = pool * self.ii + time % self.ii
        memo = self._occ_memo
        if memo is not None and memo[0] == slot and memo[1] == self._mut:
            return memo[2]
        row = self._rows[slot]
        result = tuple(row) if row else _NO_VICTIMS
        self._occ_memo = (slot, self._mut, result)
        return result

    def placement_of(self, op_id: int) -> Optional[Placement]:
        entry = self._where.get(op_id)
        if entry is None:
            return None
        pool, time = entry
        return Placement(op_id, HARDWARE_POOLS[pool], time, time % self.ii)

    def is_placed(self, op_id: int) -> bool:
        return op_id in self._where

    def usage(self, pool: int) -> int:
        """Reservations currently held in integer pool *pool*."""
        return self._usage[pool]

    def load(self) -> int:
        """Total reservations across all pools (maintained counter)."""
        return self._load

    def __iter__(self) -> Iterator[Placement]:
        for op_id in sorted(self._where):
            pool, time = self._where[op_id]
            yield Placement(op_id, HARDWARE_POOLS[pool], time,
                            time % self.ii)

    # ----------------------------------------------------------- mutation

    def place(self, op_id: int, pool: int, time: int) -> None:
        """Reserve a unit; raises if the op is already placed or no unit
        is free (callers must evict first)."""
        row = time % self.ii
        slot = pool * self.ii + row
        if op_id in self._where:
            raise ValueError(f"op {op_id} already placed")
        if self._counts[slot] >= self.caps[pool]:
            raise ValueError(
                f"no free {HARDWARE_POOLS[pool].value} unit at row "
                f"{time % self.ii}")
        self._rows[slot].append(op_id)
        self._counts[slot] += 1
        if self._counts[slot] >= self.caps[pool]:
            self._full[pool] |= 1 << row
        self._usage[pool] += 1
        self._load += 1
        self._mut += 1
        self._where[op_id] = (pool, time)

    def remove(self, op_id: int) -> None:
        pool, time = self._where.pop(op_id)
        row = time % self.ii
        slot = pool * self.ii + row
        self._rows[slot].remove(op_id)
        self._counts[slot] -= 1
        self._full[pool] &= ~(1 << row)
        self._usage[pool] -= 1
        self._load -= 1
        self._mut += 1

    def conflicts(self, pool: int, time: int) -> tuple[int, ...]:
        """Occupants a forced placement at ``time`` must displace,
        newest-first; the shared empty tuple when the row has room.
        Never mutates, never allocates on the no-conflict path."""
        cap = self.caps[pool]
        if cap == 0:
            raise ValueError(
                f"machine has no {HARDWARE_POOLS[pool].value} units at all")
        slot = pool * self.ii + time % self.ii
        occupants = self._rows[slot]
        spare = len(occupants) - cap + 1
        if spare <= 0:
            return _NO_VICTIMS
        memo = self._conf_memo
        if memo is not None and memo[0] == slot and memo[1] == self._mut:
            return memo[2]
        result = tuple(occupants[:-(spare + 1):-1])
        self._conf_memo = (slot, self._mut, result)
        return result

    def evict_for(self, pool: int, time: int) -> tuple[int, ...]:
        """Make room for one op at ``time`` by evicting the newest
        occupants; returns exactly the :meth:`conflicts` set."""
        victims = self.conflicts(pool, time)
        for victim in victims:
            self.remove(victim)
        return victims

    def reset(self, ii: Optional[int] = None,
              capacities: Union[dict[FuType, int], Sequence[int], None]
              = None) -> "PackedMRT":
        """Empty the table in O(touched) and re-dimension it in place.

        Only slots that actually held an op are cleared (the count vector
        and occupant lists are otherwise already zero/empty -- the class
        invariant ``counts[slot] == len(rows[slot])`` makes the occupied
        set derivable from ``_where``).  With *ii*/*capacities* given the
        same buffers serve the next attempt, growing geometrically only
        when a larger ``N_POOLS * II`` footprint is first seen.
        """
        if self._where:
            old_ii = self.ii
            counts = self._counts
            rows = self._rows
            for pool, time in self._where.values():
                slot = pool * old_ii + time % old_ii
                if counts[slot]:
                    counts[slot] = 0
                    rows[slot].clear()
            self._where.clear()
            self._mut += 1
        self._usage[:] = _ZERO_USAGE
        self._full[:] = _ZERO_FULL
        self._load = 0
        if capacities is not None and capacities is not self.caps:
            self.caps = self._caps_array(capacities)
        if ii is not None and ii != self.ii:
            if ii < 1:
                raise ValueError("II must be >= 1")
            self.ii = ii
            need = N_POOLS * ii
            if len(self._counts) < need:
                self._counts = array("i", bytes(4 * need))
                self._rows.extend([] for _ in
                                  range(need - len(self._rows)))
        return self

    def clear(self) -> None:
        self.reset()
