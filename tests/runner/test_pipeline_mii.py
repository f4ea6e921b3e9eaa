"""The outcome's MII bounds describe the graph the engine scheduled.

A machine's latency model retimes the loop before scheduling, so the
bounds must come from the retimed graph: on a machine whose loads take
10 cycles, ``chase`` (a pointer-chasing recurrence through a load) has
MII 13 and ``memrec`` MII 12, not the 5 and 4 their untimed graphs give.
"""

import pytest

from repro.ir.operations import LatencyModel, Opcode
from repro.machine.machine import make_machine
from repro.runner import pipeline
from repro.runner.pipeline import compile_loop
from repro.sched.schedule import SchedulingError
from repro.workloads.kernels import kernel

SLOW_LOADS = LatencyModel({Opcode.LOAD: 10})


@pytest.mark.parametrize("name, mii", [("chase", 13), ("memrec", 12)])
def test_outcome_mii_is_the_scheduled_graphs(name, mii):
    m = make_machine(4, latencies=SLOW_LOADS)
    compiled = compile_loop(kernel(name), m, verify=True)
    stats = compiled.schedule.stats
    assert compiled.outcome.mii == stats.mii == mii
    assert (compiled.outcome.res_mii, compiled.outcome.rec_mii) == \
        (stats.res_mii, stats.rec_mii)
    assert compiled.outcome.ii >= compiled.outcome.mii


def test_failed_outcome_reports_the_retimed_bounds(monkeypatch):
    def refuse(*args, **kwargs):
        raise SchedulingError("no schedule (test)")

    monkeypatch.setattr(pipeline, "schedule_loop", refuse)
    m = make_machine(4, latencies=SLOW_LOADS)
    compiled = compile_loop(kernel("chase"), m)
    assert compiled.outcome.failed and compiled.schedule is None
    assert str(compiled.error) == "no schedule (test)"
    assert (compiled.outcome.mii, compiled.outcome.res_mii,
            compiled.outcome.rec_mii) == (13, 1, 13)

