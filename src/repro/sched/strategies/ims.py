"""The ``"ims"`` engine: Rau's Iterative Modulo Scheduling.

The algorithm itself lives in :mod:`repro.sched.ims` (the partitioner
embeds the same search); this class is its entry in
:data:`~repro.sched.strategies.SCHEDULERS`.
"""

from __future__ import annotations

from repro.ir.ddg import Ddg
from repro.machine.machine import Machine
from repro.sched.ims import modulo_schedule
from repro.sched.schedule import ModuloSchedule


class ImsStrategy:
    """Iterative modulo scheduling (Rau 1996) -- the paper's engine."""

    description = ("iterative modulo scheduling (Rau 1996): height "
                   "priority, forced placement with eviction/backtracking")

    @staticmethod
    def schedule(ddg: Ddg, machine: Machine) -> ModuloSchedule:
        return modulo_schedule(ddg, machine)
