"""End-to-end pipeline checker: compile, allocate, verify, simulate.

This is the one-call integration surface the test-suite (and users who just
want confidence) lean on: it runs the full paper pipeline on a loop --
optional unrolling, copy insertion, (partitioned) modulo scheduling, queue
allocation, static verification and token simulation -- and raises on the
first inconsistency.

The compile stages are :func:`repro.runner.pipeline.compile_loop`'s, the
same ones every sweep job runs (DESIGN §3); this module adds only what a
one-off check wants on top: a raised :class:`SchedulingError` instead of
a failed outcome, the conventional-RF register report and the
cycle-level simulation.  The verifier inside ``compile_loop`` proves the
queue allocation that the simulator then replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import Machine
from repro.obs.trace import span
from repro.regalloc.queues import ScheduleQueueUsage
from repro.sched.partitioners import DEFAULT_PARTITIONER
from repro.sched.schedule import ModuloSchedule
from repro.sched.strategies import DEFAULT_SCHEDULER

from .vliwsim import SimReport, simulate

AnyMachine = Union[Machine, ClusteredMachine]


@dataclass
class PipelineResult:
    """Everything the full pipeline produced for one loop.

    For conventional-RF machines there is no queue allocation to make and
    the token simulator (a queue-machine model) does not apply: ``usage``
    and ``sim`` are ``None`` and ``registers`` carries the MaxLive report
    instead.

    ``ddg`` is the graph the engine scheduled: the memoised front-end
    graph (retimed by the machine's latency model, if it has one).  Like
    every post-front-end graph it is shared and read-only (DESIGN §1.1).
    """

    ddg: Ddg
    schedule: ModuloSchedule
    usage: Optional[ScheduleQueueUsage]
    sim: Optional[SimReport]
    unroll_factor: int
    n_copies: int
    registers: Optional[object] = None   # RegisterFileReport for CRF runs

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def total_queues(self) -> int:
        if self.usage is None:
            raise ValueError("conventional-RF pipeline has no queues")
        return self.usage.total_queues


def run_pipeline(ddg: Ddg, machine: AnyMachine, *,
                 unroll_factor: int = 1,
                 copy_strategy: str = "slack",
                 iterations: Optional[int] = None,
                 scheduler: str = DEFAULT_SCHEDULER,
                 partitioner: str = DEFAULT_PARTITIONER) -> PipelineResult:
    """Full paper pipeline with end-to-end verification.

    ``scheduler`` names the single-cluster engine (a ``SCHEDULERS``
    key) and ``partitioner`` the clustered engine (a ``PARTITIONERS``
    key); a custom engine config goes straight to the engine's function
    (``modulo_schedule(config=...)``, ``sms_schedule(config=...)``,
    ``partitioned_schedule(config=...)``).  Raises
    :class:`repro.sim.vliwsim.SimulationError`,
    :class:`repro.sched.schedule.SchedulingError`,
    :class:`repro.verify.VerificationError` or a validation error if
    anything is inconsistent; returns the artefacts otherwise.
    """
    # imported here: ``import repro`` need not load the sweep runner (on
    # the service daemon that costs ~0.5 MB of peak RSS)
    from repro.runner.pipeline import compile_loop

    queues = machine.needs_copies
    compiled = compile_loop(ddg, machine, unroll_factor=unroll_factor,
                            copies=queues, copy_strategy=copy_strategy,
                            allocate=queues, scheduler=scheduler,
                            partitioner=partitioner, verify=True)
    if compiled.error is not None:
        raise compiled.error
    sched, usage = compiled.schedule, compiled.usage
    if usage is None:
        # conventional RF: no queues to allocate, the queue simulator
        # does not apply -- report register demand instead
        from repro.regalloc.conventional import register_requirement
        with span("pipeline.allocate"):
            registers = register_requirement(sched)
        return PipelineResult(
            ddg=sched.ddg, schedule=sched, usage=None, sim=None,
            unroll_factor=unroll_factor, n_copies=0,
            registers=registers)

    with span("pipeline.simulate"):
        fus = machine.cluster.fus if isinstance(machine, ClusteredMachine) \
            else machine.fus
        sim = simulate(sched, usage, iterations=iterations,
                       capacities=fus.as_dict())
    return PipelineResult(
        ddg=sched.ddg, schedule=sched, usage=usage, sim=sim,
        unroll_factor=unroll_factor, n_copies=compiled.outcome.n_copies)
