"""The scheduler-strategy contract.

A *scheduler strategy* is one engine that turns a (loop DDG, single-cluster
machine) pair into a :class:`~repro.sched.schedule.ModuloSchedule`.  Every
engine honours the same contract so the rest of the pipeline -- queue
allocation, partitioning baselines, codegen, the simulator and every
experiment driver -- is engine-agnostic:

* the returned schedule is **normalised** (earliest issue cycle is 0),
* it has been **validated** against the dependence and modulo-resource
  constraints of the machine (unless the engine's config opts out),
* its ``stats`` record the search effort (placements, evictions, IIs
  tried), which is what the scheduler-comparison experiment reports.

Engines register themselves with
:func:`~repro.sched.strategies.registry.register_scheduler` and are looked
up by name (``PipelineOptions(scheduler="sms")``, ``--scheduler`` on the
CLI).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.ddg import Ddg
    from repro.machine.machine import Machine
    from repro.sched.schedule import ModuloSchedule, ScheduleStats


@dataclass
class SchedulerResult:
    """What every scheduling engine returns.

    A thin, shared wrapper: the schedule itself plus the name of the
    engine that produced it, so downstream records (job results, compare
    tables) never have to guess which engine ran.
    """

    schedule: "ModuloSchedule"
    scheduler: str

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def stats(self) -> "ScheduleStats":
        return self.schedule.stats


class SchedulerStrategy(abc.ABC):
    """Base class of all scheduling engines.

    Subclasses set ``name`` (the registry key) and ``description`` (one
    line for ``repro-vliw schedulers``) and implement :meth:`schedule`.
    """

    #: Registry key; also the value of ``PipelineOptions.scheduler``.
    name: ClassVar[str] = ""
    #: One-line summary shown by ``repro-vliw schedulers``.
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def schedule(self, ddg: "Ddg", machine: "Machine", *,
                 start_ii: Optional[int] = None) -> SchedulerResult:
        """Schedule *ddg* on a single-cluster *machine*.

        Raises :class:`~repro.sched.schedule.SchedulingError` when no II
        up to the engine's limit admits a schedule.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<scheduler {self.name!r}>"
