"""Seeded schedule corruptions: the verifier's own test corpus.

Translation validation is only as good as its ability to *reject*: a
verifier that proves every golden schedule but also proves corrupted
ones proves nothing.  Each mutator here takes a valid
``(schedule, machine)`` pair and produces a deliberately broken variant
together with the :class:`~repro.verify.verdict.ViolationKind` the
verifier is required to name -- shift one sigma below an edge's slack,
reassign a cluster across the ring, drop a copy op, overload a modulo
row, shrink the queue depth below the measured peak.  The last two
corrupt the queue allocation that ships with the schedule instead:
merge two queues that cannot share a FIFO, or drop one lifetime from
the packing or file it under another location.

Everything is deterministic in ``seed``; the golden-fixture mutation
tests and ``repro-vliw verify --mutations`` both run this corpus and
demand a 100% rejection rate.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import Machine
from repro.machine.resources import pool_for
from repro.sched.schedule import ModuloSchedule

from .verdict import ViolationKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.regalloc.queues import ScheduleQueueUsage

AnyMachine = Union[Machine, ClusteredMachine]


@dataclass
class AppliedMutation:
    """One corrupted schedule and the violation it must trigger."""

    name: str
    description: str
    #: at least one of these kinds must appear in the verdict
    expected: frozenset[ViolationKind]
    schedule: ModuloSchedule
    machine: AnyMachine
    #: the corrupted queue allocation to verify with the schedule
    #: (``verify_schedule(..., usage=...)``); None for corruptions of
    #: the schedule or the machine
    usage: Optional["ScheduleQueueUsage"] = None


def _clone(sched: ModuloSchedule, **changes: object) -> ModuloSchedule:
    """Copy a schedule with fresh sigma/cluster maps (originals are
    never touched)."""
    base: dict[str, object] = {
        "sigma": dict(sched.sigma),
        "cluster_of": dict(sched.cluster_of),
    }
    base.update(changes)
    return dataclasses.replace(sched, **base)  # type: ignore[arg-type]


Mutator = Callable[[ModuloSchedule, AnyMachine, random.Random],
                   Optional[AppliedMutation]]


def _mut_shift_sigma(sched: ModuloSchedule, machine: AnyMachine,
                     rng: random.Random) -> Optional[AppliedMutation]:
    """Pull one consumer below its producer's latency window."""
    edges = [e for e in sched.ddg.edges()
             if e.src in sched.sigma and e.dst in sched.sigma]
    if not edges:
        return None
    e = edges[rng.randrange(len(edges))]
    slack = (sched.sigma[e.dst] + e.distance * sched.ii
             - sched.sigma[e.src] - e.latency)
    new_t = sched.sigma[e.dst] - (slack + 1)
    mutated = _clone(sched)
    mutated.sigma[e.dst] = new_t
    expected = (ViolationKind.DEPENDENCE if new_t >= 0
                else ViolationKind.NEGATIVE_TIME)
    return AppliedMutation(
        name="shift-sigma",
        description=(f"moved op {e.dst} from cycle {sched.sigma[e.dst]} "
                     f"to {new_t}, inside the {e.src}->{e.dst} latency "
                     f"window"),
        expected=frozenset({expected}),
        schedule=mutated, machine=machine)


def _mut_swap_cluster(sched: ModuloSchedule, machine: AnyMachine,
                      rng: random.Random) -> Optional[AppliedMutation]:
    """Reassign a consumer two ring hops away from its producer."""
    if not isinstance(machine, ClusteredMachine) or machine.n_clusters < 4:
        return None
    # self-edges (loop-carried recurrences) move both endpoints at once
    # and stay intra-cluster, so they cannot witness the corruption
    edges = [e for e in sched.ddg.data_edges()
             if e.src != e.dst
             and e.src in sched.sigma and e.dst in sched.sigma]
    if not edges:
        return None
    e = edges[rng.randrange(len(edges))]
    target = (sched.cluster_of[e.src] + 2) % machine.n_clusters
    mutated = _clone(sched)
    mutated.cluster_of[e.dst] = target
    return AppliedMutation(
        name="swap-cluster",
        description=(f"moved op {e.dst} to cluster {target}, two ring "
                     f"hops from its producer {e.src}"),
        expected=frozenset({ViolationKind.ADJACENCY}),
        schedule=mutated, machine=machine)


def _mut_drop_op(sched: ModuloSchedule, machine: AnyMachine,
                 rng: random.Random) -> Optional[AppliedMutation]:
    """Erase one op (a copy op when available) from the schedule."""
    scheduled = [o for o in sched.ddg.copy_ops() if o in sched.sigma] \
        or [o for o in sched.ddg.op_ids if o in sched.sigma]
    if not scheduled:
        return None
    victim = scheduled[rng.randrange(len(scheduled))]
    mutated = _clone(sched)
    del mutated.sigma[victim]
    mutated.cluster_of.pop(victim, None)
    return AppliedMutation(
        name="drop-op",
        description=f"dropped op {victim} "
                    f"({sched.ddg.op(victim).name}) from sigma",
        expected=frozenset({ViolationKind.UNSCHEDULED}),
        schedule=mutated, machine=machine)


def _mut_overload_row(sched: ModuloSchedule, machine: AnyMachine,
                      rng: random.Random) -> Optional[AppliedMutation]:
    """Force one extra op onto an already-full (cluster, pool, row)."""
    clustered = isinstance(machine, ClusteredMachine)
    fus = machine.cluster.fus if clustered else machine.fus
    usage: dict[tuple[int, object, int], list[int]] = {}
    for op_id, t in sched.sigma.items():
        if not sched.ddg.has_op(op_id) or t < 0:
            continue
        pool = pool_for(sched.ddg.op(op_id).fu_type)
        key = (sched.cluster_of.get(op_id, 0), pool, t % sched.ii)
        usage.setdefault(key, []).append(op_id)
    candidates = []
    for (cl, pool, row), ops in sorted(usage.items(),
                                       key=lambda kv: kv[0][2]):
        cap = fus.capacity(sched.ddg.op(ops[0]).fu_type)
        if len(ops) < cap:
            continue
        victims = [o for (c2, p2, r2), os2 in sorted(
                       usage.items(), key=lambda kv: kv[0][2])
                   if c2 == cl and p2 is pool and r2 != row
                   for o in os2]
        if victims:
            candidates.append((ops[0], victims))
    if not candidates:
        return None
    anchor, victims = candidates[rng.randrange(len(candidates))]
    victim = victims[rng.randrange(len(victims))]
    mutated = _clone(sched)
    mutated.sigma[victim] = sched.sigma[anchor]
    return AppliedMutation(
        name="overload-row",
        description=(f"moved op {victim} onto cycle "
                     f"{sched.sigma[anchor]}, overflowing a full "
                     f"modulo row"),
        expected=frozenset({ViolationKind.RESOURCE}),
        schedule=mutated, machine=machine)


def _allocation(sched: ModuloSchedule, machine: AnyMachine
                ) -> Optional["ScheduleQueueUsage"]:
    """The queue allocation that ships with *sched*, or None on a
    machine without queues."""
    if not machine.has_queues:
        return None
    from repro.regalloc.queues import allocate_for_schedule

    return allocate_for_schedule(
        sched, machine if isinstance(machine, ClusteredMachine) else None)


def _mut_shrink_queue(sched: ModuloSchedule, machine: AnyMachine,
                      rng: random.Random) -> Optional[AppliedMutation]:
    """Shrink every queue's position count below the measured peak."""
    usage = _allocation(sched, machine)
    if usage is None or usage.max_depth < 1:
        return None
    depth = usage.max_depth
    if isinstance(machine, ClusteredMachine):
        shrunk: AnyMachine = dataclasses.replace(
            machine, cluster=dataclasses.replace(
                machine.cluster,
                queue_budget=dataclasses.replace(
                    machine.cluster.queue_budget, positions=depth - 1)))
    else:
        shrunk = dataclasses.replace(
            machine, queue_budget=dataclasses.replace(
                machine.queue_budget, positions=depth - 1))
    return AppliedMutation(
        name="shrink-queue",
        description=(f"shrank queue depth to {depth - 1} below the "
                     f"schedule's {depth}-deep peak"),
        expected=frozenset({ViolationKind.QUEUE_DEPTH}),
        schedule=_clone(sched), machine=shrunk)


def _mut_merge_queues(sched: ModuloSchedule, machine: AnyMachine,
                      rng: random.Random) -> Optional[AppliedMutation]:
    """Union two queues of one location that cannot share a FIFO."""
    from repro.regalloc.queues import q_compatible

    usage = _allocation(sched, machine)
    if usage is None:
        return None
    candidates = []
    for loc, alloc in usage.by_location.items():
        for i, qa in enumerate(alloc.queues):
            for j in range(i + 1, len(alloc.queues)):
                if not all(q_compatible(a, b, usage.ii)
                           for a in qa for b in alloc.queues[j]):
                    candidates.append((loc, i, j))
    if not candidates:
        return None
    loc, i, j = candidates[rng.randrange(len(candidates))]
    alloc = usage.by_location[loc]
    queues = [list(q) for q in alloc.queues]
    queues[i] += queues.pop(j)
    usage.by_location[loc] = dataclasses.replace(alloc, queues=queues)
    return AppliedMutation(
        name="merge-queues",
        description=(f"merged queues {i} and {j} of {loc.describe()}, "
                     f"which hold Q-incompatible lifetimes"),
        expected=frozenset({ViolationKind.QUEUE_ORDER}),
        schedule=_clone(sched), machine=machine, usage=usage)


def _mut_misfile_lifetime(sched: ModuloSchedule, machine: AnyMachine,
                          rng: random.Random) -> Optional[AppliedMutation]:
    """Drop one lifetime from the packing, or move it to a new queue of
    another location."""
    usage = _allocation(sched, machine)
    if usage is None:
        return None
    slots = [(loc, qi, n)
             for loc, alloc in usage.by_location.items()
             for qi, q in enumerate(alloc.queues) for n in range(len(q))]
    if not slots:
        return None
    loc, qi, n = slots[rng.randrange(len(slots))]
    alloc = usage.by_location[loc]
    queues = [list(q) for q in alloc.queues]
    victim = queues[qi].pop(n)
    usage.by_location[loc] = dataclasses.replace(alloc, queues=queues)
    others = [other for other in usage.by_location if other != loc]
    tag = f"lifetime {victim.producer}->{victim.consumer}"
    if others and rng.random() < 0.5:
        dest = others[rng.randrange(len(others))]
        moved = usage.by_location[dest]
        usage.by_location[dest] = dataclasses.replace(
            moved, queues=moved.queues + [[victim._replace(location=dest)]])
        description = (f"moved {tag} from {loc.describe()} to a new "
                       f"queue of {dest.describe()}")
    else:
        description = f"dropped {tag} from {loc.describe()} queue {qi}"
    return AppliedMutation(
        name="misfile-lifetime", description=description,
        expected=frozenset({ViolationKind.QUEUE_ALLOCATION}),
        schedule=_clone(sched), machine=machine, usage=usage)


#: The mutator catalogue, in reporting order.
MUTATORS: tuple[tuple[str, Mutator], ...] = (
    ("shift-sigma", _mut_shift_sigma),
    ("swap-cluster", _mut_swap_cluster),
    ("drop-op", _mut_drop_op),
    ("overload-row", _mut_overload_row),
    ("shrink-queue", _mut_shrink_queue),
    ("merge-queues", _mut_merge_queues),
    ("misfile-lifetime", _mut_misfile_lifetime),
)


def mutation_corpus(sched: ModuloSchedule, machine: AnyMachine, *,
                    seed: int = 0,
                    rounds: int = 1) -> list[AppliedMutation]:
    """All applicable corruptions of one valid schedule.

    Each registered mutator runs ``rounds`` times with per-(mutator,
    round) derived seeds, so the corpus is deterministic in ``seed``
    and grows linearly with ``rounds``.  Mutators that do not apply to
    this machine shape (e.g. cluster swaps on a single-cluster machine)
    are skipped.
    """
    out: list[AppliedMutation] = []
    for round_idx in range(rounds):
        for name, mutator in MUTATORS:
            rng = random.Random(f"{seed}:{round_idx}:{name}")
            applied = mutator(sched, machine, rng)
            if applied is not None:
                out.append(applied)
    return out
