"""Queue register allocation via the Q-Compatibility test (Theorem 1.1).

Two lifetimes may share a FIFO queue iff their periodic write order equals
their periodic read order.  With write offsets ``S_a, S_b``, lengths
``L_a <= L_b`` and ``delta = (S_b - S_a) mod II`` this is (DESIGN.md §5.2)::

    delta != 0   and   L_b - L_a < II - delta

strict because a queue has one write port and one read port: ``delta == 0``
would collide two writes, ``L_b - L_a == II - delta`` two reads.

:func:`fifo_order_consistent` is the brute-force reference (explicit event
simulation over enough periods); the property tests check both agree on
random lifetimes.

For a whole queue the pairwise test collapses to one sorted-order test
(DESIGN.md §5.2): with residues ``r = S mod II`` and ends ``e = r + L``,
a set of lifetimes can share one FIFO iff their residues are distinct,
sorted by residue their ends strictly increase, and the last end minus
the first is below II.  Allocation is greedy first-fit over lifetimes
sorted by (start, length); each queue keeps its members' residues and
ends sorted, so an incoming lifetime is tested against its two
neighbours and the queue's spread instead of against every member.
The packing is the one the pairwise scan builds.  Pairwise
compatibility within a queue is *sufficient* for a global FIFO order
because the write order of a set of periodic lifetimes is a total cyclic
order and each pair's read order matching its write order makes the full
read order match too (tested against the simulator in
``tests/sim/test_end_to_end.py``).  The schedule verifier
(:mod:`repro.verify.verifier`) proves the packing that ships.
"""

from __future__ import annotations

from bisect import bisect_left
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
    The default simulates until a few periods after the later first read,
    so both lifetimes are checked in steady state however far apart
    their starts are.
    """
    if periods is None:
        periods = max(a.end, b.end) // ii + 4
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


#: Allocation order of lifetimes: (start, length, producer, consumer,
#: edge key) -- total, so first-fit is deterministic.
_ORDER = attrgetter("start", "length", "producer", "consumer", "edge_key")


def _first_fit(ordered: list[Lifetime], ii: int) -> list[list[Lifetime]]:
    """Queues of first-fit packing *ordered* (already in :data:`_ORDER`).

    Each queue keeps a bitmask of its members' ``start mod II``
    residues, and the residues and ends (``residue + length``) of its
    members sorted by residue.  A queue whose mask holds the incoming
    residue is skipped (Theorem 1.1 rejects ``delta == 0``).  Otherwise
    the lifetime joins iff its end lies strictly between its sorted
    neighbours' ends and the queue's ends still span less than II: the
    sorted-order form of "Q-compatible with every member"
    (DESIGN.md §5.2), so first-fit picks the queue the pairwise scan
    picks.
    """
    if ii < 1:
        raise ValueError("II must be >= 1")
    queues: list[list[Lifetime]] = []
    residues: list[int] = []        # per queue: bit r set <=> a member has r
    rs: list[list[int]] = []        # per queue: member residues, sorted
    es: list[list[int]] = []        # per queue: their ends, increasing
    for lt in ordered:
        r = lt.start % ii
        e = r + lt.length
        bit = 1 << r
        for i, q in enumerate(queues):
            if residues[i] & bit:
                continue
            qr = rs[i]
            qe = es[i]
            p = bisect_left(qr, r)
            if p:
                if qe[p - 1] >= e:
                    continue
                low = qe[0]
            else:
                low = e
            if p < len(qr):
                if qe[p] <= e:
                    continue
                high = qe[-1]
            else:
                high = e
            if high - low >= ii:
                continue
            q.append(lt)
            residues[i] |= bit
            qr.insert(p, r)
            qe.insert(p, e)
            break
        else:
            queues.append([lt])
            residues.append(bit)
            rs.append([r])
            es.append([e])
    return queues


def allocate_queues(lifetimes: Iterable[Lifetime], ii: int, *,
                    location: Optional[Location] = None) -> QueueAllocation:
    """Greedy first-fit allocation of lifetimes to queues.

    Lifetimes are processed by (start, length, producer, consumer); each
    goes to the first queue whose members are all Q-compatible with it, or
    opens a new queue (decided by the sorted-order test, see
    :func:`_first_fit`).  Zero-length lifetimes (same-cycle bypass) still
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
