"""The verifier proves the allocator's packing queue by queue.

The verifier checks the packing that ships: every lifetime covered
once, each queue's FIFO order, each queue's depth.  On every schedule
each queue is either proved (fits its positions) or reported as a
``QUEUE_DEPTH`` violation, so the two counts together must equal the
allocator's ``total_queues``.
"""

import pytest

from repro.machine.presets import (paper_clustered_machines,
                                   paper_qrf_machines)
from repro.runner.pipeline import compile_loop
from repro.verify import ViolationKind, verify_schedule
from repro.workloads.kernels import all_kernels

MACHINES = paper_qrf_machines() + paper_clustered_machines()


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_verifier_and_allocator_pack_the_same_queue_count(machine):
    checked = 0
    for ddg in all_kernels():
        compiled = compile_loop(ddg, machine)
        if compiled.outcome.failed:
            continue
        verdict = verify_schedule(compiled.schedule, machine,
                                  usage=compiled.usage)
        depth_violations = sum(v.kind is ViolationKind.QUEUE_DEPTH
                               for v in verdict.violations)
        assert verdict.kinds() <= {ViolationKind.QUEUE_DEPTH}
        assert (verdict.proved["queues"] + depth_violations
                == compiled.usage.total_queues), ddg.name
        checked += 1
    assert checked > 0
