"""Queue register allocation via the Q-Compatibility test (Theorem 1.1).

Two lifetimes may share a FIFO queue iff their periodic write order equals
their periodic read order.  With write offsets ``S_a, S_b``, lengths
``L_a <= L_b`` and ``delta = (S_b - S_a) mod II`` this is (DESIGN.md §5.2)::

    delta != 0   and   L_b - L_a < II - delta

strict because a queue has one write port and one read port: ``delta == 0``
would collide two writes, ``L_b - L_a == II - delta`` two reads.

:func:`fifo_order_consistent` is the brute-force reference (explicit event
simulation over enough periods); the property tests check both agree on
random lifetimes, and the allocator only ever uses the closed form.

Allocation is greedy first-fit over lifetimes sorted by (start, length):
pairwise compatibility within a queue is *sufficient* for a global FIFO
order because the write order of a set of periodic lifetimes is a total
cyclic order and each pair's read order matching its write order makes the
full read order match too (tested against the simulator in
``tests/sim/test_end_to_end.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional

from .lifetimes import Lifetime, Location, LocationKind, max_live

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import ClusteredMachine
    from repro.sched.schedule import ModuloSchedule


def q_compatible(a: Lifetime, b: Lifetime, ii: int) -> bool:
    """Closed-form Q-Compatibility test (paper Theorem 1.1, strict form)."""
    if ii < 1:
        raise ValueError("II must be >= 1")
    if a is b:
        return True
    if a.length > b.length:
        a, b = b, a
    delta = (b.start - a.start) % ii
    if delta == 0:
        return False
    return b.length - a.length < ii - delta


def fifo_order_consistent(a: Lifetime, b: Lifetime, ii: int, *,
                          periods: Optional[int] = None) -> bool:
    """Reference implementation: simulate the write/read event sequence of
    both lifetimes over enough periods and check FIFO delivery.

    Writes happen before reads within a cycle (same-cycle bypass).  Two
    writes or two reads in the same cycle violate the single-port queue.
    """
    if periods is None:
        periods = max(a.length, b.length) // ii + 4
    events: list[tuple[int, int, int, object]] = []
    for idx, lt in enumerate((a, b)):
        for k in range(periods):
            events.append((lt.start + k * ii, 0, idx, (idx, k)))   # write
            events.append((lt.end + k * ii, 1, idx, (idx, k)))     # read
    events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))

    horizon = periods * ii  # reads beyond this may miss truncated writes
    fifo: list[object] = []
    last_write_cycle: Optional[int] = None
    last_read_cycle: Optional[int] = None
    for time, kind, _idx, token in events:
        if kind == 0:
            if last_write_cycle == time:
                return False  # two writes, one port
            last_write_cycle = time
            fifo.append(token)
        else:
            if time >= horizon:
                continue
            if last_read_cycle == time:
                return False  # two reads, one port
            last_read_cycle = time
            if not fifo or fifo.pop(0) != token:
                return False
    return True


def queue_depth(lifetimes: list[Lifetime], ii: int) -> int:
    """Positions one queue must have for these lifetimes over a full
    execution (prologue preloads included): their steady-state
    MaxLive, see :func:`~repro.regalloc.lifetimes.max_live`."""
    return max_live(lifetimes, ii)


@dataclass
class QueueAllocation:
    """Result of allocating one location's lifetimes to queues."""

    ii: int
    location: Location
    queues: list[list[Lifetime]] = field(default_factory=list)

    @property
    def n_queues(self) -> int:
        return len(self.queues)

    @property
    def depths(self) -> list[int]:
        return [queue_depth(q, self.ii) for q in self.queues]

    @property
    def max_depth(self) -> int:
        return max(self.depths, default=0)

    def queue_of(self, lt: Lifetime) -> int:
        for i, q in enumerate(self.queues):
            if lt in q:
                return i
        raise KeyError(lt)

    def assignment(self) -> dict[tuple[int, int, int], int]:
        """(producer, consumer, edge_key) -> queue index."""
        out: dict[tuple[int, int, int], int] = {}
        for i, q in enumerate(self.queues):
            for lt in q:
                out[(lt.producer, lt.consumer, lt.edge_key)] = i
        return out

    def verify(self) -> None:
        """Re-check pairwise compatibility of every queue (test hook)."""
        for q in self.queues:
            for i, a in enumerate(q):
                for b in q[i + 1:]:
                    if not q_compatible(a, b, self.ii):
                        raise AssertionError(
                            f"incompatible lifetimes share a queue: "
                            f"{a.describe()} / {b.describe()}")


#: Allocation order of lifetimes: (start, length, producer, consumer,
#: edge key) -- total, so first-fit is deterministic.
_ORDER = attrgetter("start", "length", "producer", "consumer", "edge_key")


def _first_fit(ordered: list[Lifetime], ii: int) -> list[list[Lifetime]]:
    """Queues of first-fit packing *ordered* (already in :data:`_ORDER`).

    Each queue keeps a bitmask of the ``start mod II`` residues of its
    members.  Theorem 1.1 rejects every same-residue pair (``delta ==
    0``), so a queue whose mask holds the incoming residue is skipped
    without any pairwise test: first-fit picks the same queue as the
    plain scan (DESIGN.md §5.2).
    """
    if ii < 1:
        raise ValueError("II must be >= 1")
    queues: list[list[Lifetime]] = []
    residues: list[int] = []   # per queue: bit r set <=> a member has r
    for lt in ordered:
        bit = 1 << (lt.start % ii)
        for i, q in enumerate(queues):
            if residues[i] & bit:
                continue
            for other in q:
                if not q_compatible(lt, other, ii):
                    break
            else:  # compatible with every member: join this queue
                q.append(lt)
                residues[i] |= bit
                break
        else:
            queues.append([lt])
            residues.append(bit)
    return queues


def allocate_queues(lifetimes: Iterable[Lifetime], ii: int, *,
                    location: Optional[Location] = None) -> QueueAllocation:
    """Greedy first-fit allocation of lifetimes to queues.

    Lifetimes are processed by (start, length, producer, consumer); each
    goes to the first queue whose members are all Q-compatible with it, or
    opens a new queue.  Zero-length lifetimes (same-cycle bypass) still
    take a queue slot assignment (the datum flows through the queue's
    bypass path) but never occupy a position.
    """
    return QueueAllocation(
        ii=ii, location=location or Location(LocationKind.PRIVATE, 0),
        queues=_first_fit(sorted(lifetimes, key=_ORDER), ii))


@dataclass
class ScheduleQueueUsage:
    """Machine-wide queue requirements of one schedule."""

    ii: int
    by_location: dict[Location, QueueAllocation]

    @property
    def total_queues(self) -> int:
        return sum(a.n_queues for a in self.by_location.values())

    @property
    def max_queues_per_location(self) -> int:
        return max((a.n_queues for a in self.by_location.values()),
                   default=0)

    @property
    def max_depth(self) -> int:
        return max((a.max_depth for a in self.by_location.values()),
                   default=0)

    def private_queues(self, cluster: int) -> int:
        loc = Location(LocationKind.PRIVATE, cluster)
        alloc = self.by_location.get(loc)
        return alloc.n_queues if alloc else 0

    def ring_queues(self, cluster: int, kind: LocationKind) -> int:
        alloc = self.by_location.get(Location(kind, cluster))
        return alloc.n_queues if alloc else 0

    def fits_budget(self, private: int, ring_each_direction: int) -> bool:
        """Does the schedule fit the paper's per-cluster budget
        (Fig. 7: 8 private + 8 per ring direction)?"""
        for loc, alloc in self.by_location.items():
            limit = (private if loc.kind is LocationKind.PRIVATE
                     else ring_each_direction)
            if alloc.n_queues > limit:
                return False
        return True

    def verify(self) -> None:
        for alloc in self.by_location.values():
            alloc.verify()


def allocate_for_schedule(sched: "ModuloSchedule",
                          machine: Optional["ClusteredMachine"] = None
                          ) -> ScheduleQueueUsage:
    """Allocate queues for every location of a schedule.

    *machine* is the :class:`~repro.machine.cluster.ClusteredMachine` for
    partitioned schedules; omit for single-cluster machines.
    """
    from .lifetimes import extract_lifetimes

    # one sort for every location, then group: lifetimes of a location
    # share its Location object, so they are grouped by identity rather
    # than by hashing the frozen dataclass per lifetime
    groups: dict[int, list[Lifetime]] = {}
    for lt in sorted(extract_lifetimes(sched, machine), key=_ORDER):
        group = groups.get(id(lt.location))
        if group is None:
            groups[id(lt.location)] = [lt]
        else:
            group.append(lt)
    ii = sched.ii
    by_location: dict[Location, QueueAllocation] = {}
    for g in sorted(groups.values(), key=lambda g: (
            g[0].location.cluster, g[0].location.kind.value)):
        loc = g[0].location
        by_location[loc] = QueueAllocation(ii, loc, _first_fit(g, ii))
    return ScheduleQueueUsage(ii=ii, by_location=by_location)
