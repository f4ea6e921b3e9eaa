"""Single-cluster scheduling engines.

Every engine consumes a (loop DDG, single-cluster machine) pair and
returns a :class:`~repro.sched.schedule.ModuloSchedule` from its
``schedule(ddg, machine)``, so queue allocation, codegen, the simulator
and every experiment driver run unchanged on top of either one:

* ``"ims"`` -- Rau's Iterative Modulo Scheduling (the default; the
  engine the paper's experiments used), via :mod:`repro.sched.ims`.
* ``"sms"`` -- Swing Modulo Scheduling (Llosa et al., PACT'96): the
  co-author's near-backtrack-free, lifetime-minimising engine.

:data:`SCHEDULERS` is the closed table of them: ``PipelineOptions``,
the service's job specs and the CLI's ``--scheduler``/``schedulers``
read it, and :func:`repro.sched.schedule.check_engine` checks a name
against it.
"""

from __future__ import annotations

from typing import Union

from .ims import ImsStrategy
from .sms import (SmsConfig, SmsStrategy, sms_order, sms_schedule,
                  time_bounds, try_sms_at_ii)

#: name -> engine class, the default first.
SCHEDULERS: dict[str, type[Union[ImsStrategy, SmsStrategy]]] = {
    "ims": ImsStrategy, "sms": SmsStrategy}

#: The engine used when nothing else is asked for.
DEFAULT_SCHEDULER = "ims"

__all__ = [
    "ImsStrategy", "SmsStrategy", "SmsConfig", "SCHEDULERS",
    "sms_order", "sms_schedule", "time_bounds", "try_sms_at_ii",
    "DEFAULT_SCHEDULER",
]
