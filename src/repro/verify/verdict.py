"""Structured verification verdicts.

A :class:`Verdict` is the result of proving one schedule: either every
invariant holds (``ok``) or it carries the ordered list of
:class:`Violation` records, each naming the invariant family
(:class:`ViolationKind`), the concrete inequality that failed, and the
ops/edge involved.  Violations are ordered most-fundamental-first
(structure before dependences before resources before topology before
queues), so ``verdict.first`` is the root cause, not a knock-on effect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class ViolationKind(enum.Enum):
    """Invariant families the verifier proves (DESIGN.md §5.9)."""

    #: an op of the DDG has no issue time in ``sigma``
    UNSCHEDULED = "unscheduled"
    #: ``sigma`` (or ``cluster_of``) names an op the DDG does not have
    UNKNOWN_OP = "unknown-op"
    #: an issue time is negative
    NEGATIVE_TIME = "negative-time"
    #: a cluster assignment is outside ``[0, n_clusters)``
    CLUSTER_RANGE = "cluster-range"
    #: ``sigma(dst) + dist*II - sigma(src) - latency < 0`` for some edge
    DEPENDENCE = "dependence"
    #: more ops than units on some (cluster, FU pool, modulo row)
    RESOURCE = "resource"
    #: a DATA edge spans non-adjacent ring clusters
    ADJACENCY = "adjacency"
    #: a crossing edge's slack does not cover the inter-cluster bus latency
    BUS_LATENCY = "bus-latency"
    #: two lifetimes sharing a queue violate FIFO order (Q-compatibility)
    QUEUE_ORDER = "queue-order"
    #: a queue's peak occupancy exceeds the per-queue position count
    QUEUE_DEPTH = "queue-depth"
    #: a location needs more queues than the hardware budget provides
    QUEUE_COUNT = "queue-count"
    #: the queue packing does not match the schedule's lifetimes (one
    #: missing, packed twice, in another location, or mistimed)
    QUEUE_ALLOCATION = "queue-allocation"


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with the inequality that broke."""

    kind: ViolationKind
    message: str
    #: the concrete inequality, e.g. ``"3 + 1*4 - 0 - 6 = 1 >= 0"``
    inequality: str = ""
    #: op ids involved (producer first for edge violations)
    ops: tuple[int, ...] = ()

    def describe(self) -> str:
        tail = f"  [{self.inequality}]" if self.inequality else ""
        return f"{self.kind.value}: {self.message}{tail}"


@dataclass
class Verdict:
    """Outcome of verifying one ``(ddg, machine, schedule)`` triple."""

    loop: str
    machine: str
    ii: int
    n_ops: int
    #: invariant families actually checked (queues are skipped for
    #: conventional-RF machines, adjacency for single-cluster ones)
    checked: tuple[str, ...] = ()
    violations: tuple[Violation, ...] = ()
    #: per-family count of *passed* inequalities, for reporting
    proved: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> Optional[Violation]:
        """The first (most fundamental) violated inequality, if any."""
        return self.violations[0] if self.violations else None

    def kinds(self) -> set[ViolationKind]:
        return {v.kind for v in self.violations}

    def to_json(self) -> dict[str, Any]:
        """JSON-shaped record (the CLI's ``verify --json`` output)."""
        return {
            "loop": self.loop,
            "machine": self.machine,
            "ii": self.ii,
            "n_ops": self.n_ops,
            "ok": self.ok,
            "checked": list(self.checked),
            "proved": dict(self.proved),
            "violations": [
                {"kind": v.kind.value, "message": v.message,
                 "inequality": v.inequality, "ops": list(v.ops)}
                for v in self.violations],
        }

    def describe(self) -> str:
        head = (f"{self.loop} on {self.machine} (II={self.ii}, "
                f"{self.n_ops} ops): ")
        if self.ok:
            total = sum(self.proved.values())
            return head + (f"PROVED ({total} inequalities over "
                           f"{', '.join(self.checked)})")
        lines = [head + f"{len(self.violations)} violation(s)"]
        lines += ["  " + v.describe() for v in self.violations]
        return "\n".join(lines)


class VerificationError(AssertionError):
    """Raised when a pipeline was asked to verify and the proof failed.

    Subclasses ``AssertionError`` alongside
    :class:`repro.sched.schedule.ScheduleValidationError`: a failed
    verdict on an engine-produced schedule is a compiler bug, never a
    workload property.
    """

    def __init__(self, verdict: Verdict) -> None:
        super().__init__(verdict.describe())
        self.verdict = verdict
