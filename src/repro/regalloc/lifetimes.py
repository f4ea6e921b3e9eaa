"""Lifetime extraction from modulo schedules.

A *queue lifetime* is one DATA edge of a scheduled loop: the producer
writes the value into a queue at ``sigma(p) + lat(p)`` and the consumer
destructively reads it at ``sigma(c) + d * II`` (iteration-0 times; both
recur every II).  After copy insertion every value has one consumer per
queue, so edges and queue lifetimes coincide.

For clustered schedules each lifetime also has a *location*: the private
queue set of its cluster, or one of the two ring queue sets between
adjacent clusters (Fig. 5b); queues are allocated per location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.ir.ddg import DepEdge, DepKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import ClusteredMachine
    from repro.sched.schedule import ModuloSchedule


class LocationKind(enum.Enum):
    """Which physical queue set holds a lifetime."""

    PRIVATE = "private"    # producer and consumer in the same cluster
    RING_CW = "ring_cw"    # producer cluster c -> cluster (c+1) % n
    RING_CCW = "ring_ccw"  # producer cluster c -> cluster (c-1) % n


@dataclass(frozen=True)
class Location:
    """A queue set: (kind, owning cluster)."""

    kind: LocationKind
    cluster: int

    def describe(self) -> str:
        return f"{self.kind.value}[{self.cluster}]"


#: the default location: single-cluster machines have only this one
_PRIVATE_0 = Location(LocationKind.PRIVATE, 0)


class _LifetimeFields(NamedTuple):
    producer: int
    consumer: int
    edge_key: int
    start: int
    length: int
    #: loop-carried distance of the underlying edge: the queue is preloaded
    #: with this many initial values before the loop starts, which occupy
    #: positions during the prologue (never more than the steady state
    #: needs; see :func:`max_live`).
    distance: int = 0
    location: Location = _PRIVATE_0


class Lifetime(_LifetimeFields):
    """One scheduled DATA edge as a queue lifetime.

    ``start``: write cycle (iteration 0); ``length``: cycles until the
    destructive read; ``end = start + length`` is the read cycle.  A
    zero-length lifetime is a same-cycle write+read (bypass).

    An immutable named tuple rather than a frozen dataclass: every
    compile builds one per DATA edge, and a tuple is several times
    cheaper to construct.
    """

    __slots__ = ()

    def __new__(cls, producer: int, consumer: int, edge_key: int,
                start: int, length: int, distance: int = 0,
                location: Location = _PRIVATE_0) -> "Lifetime":
        if length < 0:
            raise ValueError(
                f"negative lifetime {producer}->{consumer}: "
                f"dependence violated")
        return super().__new__(cls, producer, consumer, edge_key, start,
                               length, distance, location)

    @property
    def end(self) -> int:
        return self.start + self.length

    def describe(self) -> str:
        return (f"{self.producer}->{self.consumer} "
                f"[{self.start}, {self.end}) @ {self.location.describe()}")


#: :class:`LocationKind` by the slot :func:`extract_lifetimes` classifies
#: an edge into (same cluster, clockwise, counter-clockwise neighbour).
_SLOT_KINDS = (LocationKind.PRIVATE, LocationKind.RING_CW,
               LocationKind.RING_CCW)


def _slot(ca: int, cb: int, machine: Optional["ClusteredMachine"],
          src: int, dst: int) -> int:
    """Index into :data:`_SLOT_KINDS` of an edge from cluster *ca* to
    *cb*: same cluster, clockwise or counter-clockwise neighbour."""
    if ca == cb:
        return 0
    if machine is None:
        raise ValueError("clustered edge without a machine topology")
    n = machine.n_clusters
    if (ca + 1) % n == cb:
        return 1
    if (ca - 1) % n == cb:
        return 2
    raise ValueError(
        f"edge {src}->{dst} spans non-adjacent clusters {ca},{cb}")


def location_of_edge(sched: "ModuloSchedule", e: DepEdge,
                     machine: Optional["ClusteredMachine"] = None
                     ) -> Location:
    """Classify the queue set a DATA edge uses."""
    ca = sched.cluster_of.get(e.src, 0)
    slot = _slot(ca, sched.cluster_of.get(e.dst, 0), machine, e.src, e.dst)
    return Location(_SLOT_KINDS[slot], ca)


def extract_lifetimes(sched: "ModuloSchedule",
                      machine: Optional["ClusteredMachine"] = None
                      ) -> list[Lifetime]:
    """All queue lifetimes of a schedule, deterministic order.

    For single-cluster schedules every lifetime lands in
    ``private[0]``; clustered schedules need *machine* for the ring
    topology.  Raises if any dependence is violated (negative length) --
    the schedule should have been validated first.

    Edges are classified by the rule of :func:`location_of_edge`, and
    all lifetimes of one location share one :class:`Location` object,
    so callers may group them by identity instead of hashing a fresh
    dataclass per edge.  The length check of :class:`Lifetime` runs
    inline and each tuple is built directly: a compile makes one per
    DATA edge, and ``Lifetime.__new__``'s Python frame would dominate.
    """
    sigma = sched.sigma
    cluster_of = sched.cluster_of
    ii = sched.ii
    new = tuple.__new__
    shared: dict[tuple[int, int], Location] = {}
    out: list[Lifetime] = []
    for src, dst, key, lat, dist, _k in sched.ddg.edge_rows(DepKind.DATA):
        ca = cluster_of.get(src, 0)
        cb = cluster_of.get(dst, 0)
        slot = 0 if ca == cb else _slot(ca, cb, machine, src, dst)
        loc = shared.get((slot, ca))
        if loc is None:
            loc = shared[(slot, ca)] = Location(_SLOT_KINDS[slot], ca)
        start = sigma[src] + lat
        length = sigma[dst] + dist * ii - start
        if length < 0:
            raise ValueError(f"negative lifetime {src}->{dst}: "
                             f"dependence violated")
        out.append(new(Lifetime, (src, dst, key, start, length, dist, loc)))
    return out


def merged_value_lifetimes(sched: "ModuloSchedule") -> list[Lifetime]:
    """Per-*value* lifetimes for a conventional register file.

    A conventional RF writes once and reads many times (Fig. 1b): the
    value's register is busy from the write until the *last* read.  Used by
    the MaxLive computation in :mod:`repro.regalloc.conventional`.
    """
    out: list[Lifetime] = []
    for op_id in sched.ddg.op_ids:
        consumers = sched.ddg.consumers(op_id)
        if not consumers:
            continue
        start = sched.sigma[op_id] + sched.ddg.op(op_id).latency
        end = max(sched.sigma[e.dst] + e.distance * sched.ii
                  for e in consumers)
        out.append(Lifetime(op_id, -1, 0, start, end - start))
    return out


def steady_state_occupancy(lifetimes: list[Lifetime], ii: int) -> list[int]:
    """Number of live values at each phase ``0..ii-1`` in steady state.

    A lifetime ``[S, S+L)`` has instances ``[S+k*II, S+L+k*II)`` for every
    iteration k; in steady state the occupancy at absolute time *t* is::

        sum over lifetimes of |{k : S+k*II <= t < S+L+k*II}|

    which is periodic in t with period II.  Counted in closed form, in
    O(n + II): a lifetime is live in ``L // II`` instances at every
    phase, plus one more on the ``L % II`` phases from ``S mod II`` on
    (so a zero-length bypass never occupies a slot).
    """
    if ii < 1:
        raise ValueError("II must be >= 1")
    every = 0
    diff = [0] * (ii + 1)   # +1/-1 at the edges of each partial run
    for lt in lifetimes:
        full, rest = divmod(lt.length, ii)
        every += full
        if rest:
            first = lt.start % ii
            last = first + rest
            diff[first] += 1
            if last <= ii:
                diff[last] -= 1
            else:           # the run wraps past phase ii-1
                diff[0] += 1
                diff[last - ii] -= 1
    occ = []
    for phase in range(ii):
        every += diff[phase]
        occ.append(every)
    return occ


def max_live(lifetimes: list[Lifetime], ii: int) -> int:
    """Peak steady-state occupancy (MaxLive).

    Also the queue positions these lifetimes need over a whole
    execution, prologue included.  Occupancy is end-of-cycle: an
    instance written at *s* and read at *e* occupies [s, e).  The
    instances an execution holds are those with ``k >= -d`` (the
    ``d`` preloaded values of a distance-d lifetime plus one per
    iteration); a preload whose virtual write slot is negative exists
    from "cycle -1", the others are injected by the prologue at their
    slot (see :mod:`repro.sim.vliwsim`).  Either way each instance
    occupies a sub-interval of its steady-state interval, so at every
    cycle ``t >= -1`` the execution holds a subset of the steady-state
    instances live at ``t`` -- never more than MaxLive -- and once the
    preloads are read it holds all of them, reaching MaxLive.  Prologue
    preloads therefore never need extra positions; only the epilogue
    drain can (:func:`finite_required_positions`).

    A lone lifetime of length L holds ``L // II`` instances at every
    phase and one more on ``L % II`` of them: ⌈L/II⌉, answered without
    building the per-phase table (most queues hold one lifetime).
    """
    if ii < 1:
        raise ValueError("II must be >= 1")
    if len(lifetimes) == 1:
        return -(-lifetimes[0].length // ii)
    return max(steady_state_occupancy(lifetimes, ii), default=0)


def finite_required_positions(lifetimes: list[Lifetime], ii: int,
                              iterations: int) -> int:
    """Queue positions for a *finite* N-iteration execution.

    Adds what :func:`max_live` cannot see: at the end of the
    loop, the last ``distance`` values of every carried lifetime have been
    written but never read (they are the loop's live-out state) and sit in
    the queue until the epilogue drains them.
    """
    if ii < 1 or iterations < 1:
        raise ValueError("ii and iterations must be >= 1")
    if not lifetimes:
        return 0
    drain = max(lt.end + iterations * ii for lt in lifetimes) + 1
    events: list[tuple[int, int]] = []
    for lt in lifetimes:
        for k in range(-lt.distance, iterations):
            s = lt.start + k * ii
            if k < 0:
                s = max(s, -1)
            if k + lt.distance <= iterations - 1:
                e = lt.end + k * ii
            else:
                e = drain  # never read: carried-out value
            if e > s:
                events.append((s, +1))
                events.append((e, -1))
    events.sort()
    peak = cur = 0
    for _t, delta in events:
        cur += delta
        peak = max(peak, cur)
    return peak
