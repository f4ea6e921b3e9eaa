"""The ``"ims"`` strategy: Rau's Iterative Modulo Scheduling.

The algorithm itself lives in :mod:`repro.sched.ims` (it predates the
strategy subsystem and is imported directly by older tests and the
partitioner); this module adapts it to the
:class:`~repro.sched.strategies.base.SchedulerStrategy` contract and
registers it as the default engine.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.ddg import Ddg
from repro.machine.machine import Machine
from repro.sched.ims import ImsConfig, modulo_schedule

from .base import SchedulerResult, SchedulerStrategy
from .registry import register_scheduler


@register_scheduler
class ImsStrategy(SchedulerStrategy):
    """Iterative modulo scheduling (Rau 1996) -- the paper's engine."""

    name = "ims"
    description = ("iterative modulo scheduling (Rau 1996): height "
                   "priority, forced placement with eviction/backtracking")

    def __init__(self, config: Optional[ImsConfig] = None) -> None:
        self.config = config or ImsConfig()

    def schedule(self, ddg: Ddg, machine: Machine, *,
                 start_ii: Optional[int] = None) -> SchedulerResult:
        sched = modulo_schedule(ddg, machine, config=self.config,
                                start_ii=start_ii)
        return SchedulerResult(schedule=sched, scheduler=self.name)
