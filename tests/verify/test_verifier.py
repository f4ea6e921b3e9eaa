"""The static schedule verifier proves real schedules and names the
first violated inequality on corrupted ones (DESIGN §5.9)."""

import dataclasses

import pytest

from repro.ir.copyins import insert_copies
from repro.machine.presets import (clustered_machine, crf_machine,
                                   qrf_machine)
from repro.sched.partition import PartitionConfig, partitioned_schedule
from repro.sched.strategies import SCHEDULERS
from repro.verify import (INVARIANT_FAMILIES, VerificationError, Verdict,
                          ViolationKind, verify_schedule)
from repro.workloads.kernels import kernel


def _qrf_schedule(name="daxpy", scheduler="ims"):
    work = insert_copies(kernel(name)).ddg
    m = qrf_machine(12)
    return SCHEDULERS[scheduler].schedule(work, m), m


def _ring_schedule(name="cmul", partitioner="affinity", n=4):
    work = insert_copies(kernel(name)).ddg
    m = clustered_machine(n)
    s = partitioned_schedule(work, m,
                             config=PartitionConfig(partitioner=partitioner))
    return s, m


def test_proves_single_cluster_schedule():
    sched, m = _qrf_schedule()
    verdict = verify_schedule(sched, m)
    assert verdict.ok and verdict.first is None
    assert verdict.ii == sched.ii
    # adjacency has no meaning on one cluster, everything else is proved
    assert "topology" not in verdict.checked
    assert {"structure", "dependence", "resource",
            "queues"} <= set(verdict.checked)
    assert all(verdict.proved[f] > 0 for f in verdict.checked)


def test_proves_clustered_schedule_including_topology():
    sched, m = _ring_schedule()
    verdict = verify_schedule(sched, m)
    assert verdict.ok
    assert set(verdict.checked) == set(INVARIANT_FAMILIES)


def test_conventional_rf_schedule_skips_queue_family():
    work = kernel("daxpy")
    m = crf_machine(8)
    sched = SCHEDULERS["ims"].schedule(work, m)
    verdict = verify_schedule(sched, m)
    assert verdict.ok
    assert "queues" not in verdict.checked


def test_dependence_violation_carries_the_inequality():
    sched, m = _qrf_schedule()
    bad = dataclasses.replace(sched, sigma=dict(sched.sigma),
                              cluster_of=dict(sched.cluster_of))
    e = next(iter(bad.ddg.edges()))
    bad.sigma[e.dst] = bad.sigma[e.src] - 100  # far below any latency
    verdict = verify_schedule(bad, m)
    assert not verdict.ok
    kinds = verdict.kinds()
    assert (ViolationKind.DEPENDENCE in kinds
            or ViolationKind.NEGATIVE_TIME in kinds)
    broken = [v for v in verdict.violations
              if v.kind in (ViolationKind.DEPENDENCE,
                            ViolationKind.NEGATIVE_TIME)]
    assert broken and (broken[0].inequality or broken[0].message)


def test_unscheduled_op_is_the_first_violation():
    """Structure violations precede the knock-on dependence ones."""
    sched, m = _qrf_schedule()
    bad = dataclasses.replace(sched, sigma=dict(sched.sigma),
                              cluster_of=dict(sched.cluster_of))
    victim = next(iter(bad.sigma))
    del bad.sigma[victim]
    verdict = verify_schedule(bad, m)
    assert verdict.first.kind is ViolationKind.UNSCHEDULED
    assert victim in verdict.first.ops


def test_unknown_op_rejected():
    sched, m = _qrf_schedule()
    bad = dataclasses.replace(sched, sigma=dict(sched.sigma),
                              cluster_of=dict(sched.cluster_of))
    bad.sigma[10_000] = 0
    verdict = verify_schedule(bad, m)
    assert ViolationKind.UNKNOWN_OP in verdict.kinds()


def test_cluster_out_of_range_rejected():
    sched, m = _ring_schedule()
    bad = dataclasses.replace(sched, sigma=dict(sched.sigma),
                              cluster_of=dict(sched.cluster_of))
    some_op = next(iter(bad.cluster_of))
    bad.cluster_of[some_op] = m.n_clusters + 3
    verdict = verify_schedule(bad, m)
    assert ViolationKind.CLUSTER_RANGE in verdict.kinds()


def test_verdict_round_trips_to_json():
    sched, m = _ring_schedule("daxpy")
    doc = verify_schedule(sched, m).to_json()
    assert doc["ok"] is True
    assert doc["loop"] == "daxpy" and doc["ii"] == sched.ii
    assert set(doc["proved"]) == set(doc["checked"])
    assert doc["violations"] == []


def test_verification_error_keeps_the_verdict():
    from repro.verify import Violation

    verdict = Verdict(loop="l", machine="m", ii=2, n_ops=1,
                      violations=(Violation(
                          kind=ViolationKind.DEPENDENCE,
                          message="edge 0->1 scheduled too early",
                          inequality="1 + 0*2 - 0 - 3 = -2 >= 0",
                          ops=(0, 1)),))
    err = VerificationError(verdict)
    assert err.verdict is verdict
    assert isinstance(err, AssertionError)
    assert "dependence" in str(err)


def test_queue_count_budget_is_opt_in():
    """The paper *measures* queue demand (Fig. 3/7) rather than failing
    schedules that exceed the default budget; the count check is
    therefore opt-in, while per-queue depth is always enforced."""
    sched, m = _qrf_schedule("cmul", scheduler="ims")
    default = verify_schedule(sched, m)
    assert default.ok
    strict = verify_schedule(sched, m, enforce_queue_budget=True)
    # strict mode may or may not flag this kernel, but it must never
    # report anything except the queue-count family on a proved schedule
    assert strict.kinds() <= {ViolationKind.QUEUE_COUNT}


@pytest.mark.parametrize("scheduler", ["ims", "sms"])
def test_verifier_is_engine_agnostic(scheduler):
    sched, m = _qrf_schedule("fir4", scheduler=scheduler)
    assert verify_schedule(sched, m).ok


def test_verifier_proves_with_no_allocator_check_or_engine():
    """The verifier re-derives what it proves: it may use the schedule
    and machine types, and the allocator's packer and lifetime types
    (a packing to prove when the caller passes none), never one of the
    allocator's checks or a scheduling engine."""
    import ast
    import pathlib

    import repro.verify.verifier as verifier

    tree = ast.parse(pathlib.Path(verifier.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("repro.regalloc")
             for alias in node.names}
    assert names <= {"Lifetime", "Location", "LocationKind",
                     "allocate_queues", "QueueAllocation",
                     "ScheduleQueueUsage"}
    assert {m for m in imported if m.startswith("repro.sched")} == \
        {"repro.sched.schedule"}


# ---------------------------------------------------------------------------
# the queue packing that ships: coverage
# ---------------------------------------------------------------------------

def _packed(sched, m):
    from repro.machine.cluster import ClusteredMachine
    from repro.regalloc.queues import allocate_for_schedule

    return allocate_for_schedule(
        sched, m if isinstance(m, ClusteredMachine) else None)


def _only_allocation_violation(sched, m, usage, text):
    verdict = verify_schedule(sched, m, usage=usage)
    assert [v.kind for v in verdict.violations] == \
        [ViolationKind.QUEUE_ALLOCATION], verdict.describe()
    assert text in verdict.first.message, verdict.first.message
    return verdict.first


def test_default_packing_is_the_allocators():
    """Without a packing the verifier proves ``allocate_queues``' own:
    the same verdict as proving the allocation that ships."""
    for sched, m in (_qrf_schedule("cmul"), _ring_schedule("fir4")):
        assert verify_schedule(sched, m) == \
            verify_schedule(sched, m, usage=_packed(sched, m))


def test_missing_lifetime_is_an_allocation_violation():
    sched, m = _qrf_schedule()
    usage = _packed(sched, m)
    queue = next(iter(usage.by_location.values())).queues[0]
    lost = queue.pop()
    v = _only_allocation_violation(sched, m, usage, "is in no queue")
    assert v.ops == (lost.producer, lost.consumer)


def test_duplicate_lifetime_is_an_allocation_violation():
    sched, m = _qrf_schedule()
    usage = _packed(sched, m)
    alloc = next(iter(usage.by_location.values()))
    alloc.queues.append([alloc.queues[0][0]])
    _only_allocation_violation(sched, m, usage, "a second time")


def test_mistimed_lifetime_is_an_allocation_violation():
    sched, m = _qrf_schedule()
    usage = _packed(sched, m)
    alloc = next(iter(usage.by_location.values()))
    lt = alloc.queues[0][0]
    alloc.queues[0][0] = lt._replace(start=lt.start + sched.ii)
    v = _only_allocation_violation(sched, m, usage, "the schedule writes")
    assert v.inequality == (f"start {lt.start + sched.ii} == {lt.start}, "
                            f"length {lt.length} == {lt.length}")


def test_lifetime_in_another_location_is_an_allocation_violation():
    sched, m = _ring_schedule()
    usage = _packed(sched, m)
    here, there = list(usage.by_location)[:2]
    lt = usage.by_location[here].queues[0].pop(0)
    usage.by_location[there].queues.append([lt._replace(location=there)])
    _only_allocation_violation(sched, m, usage,
                               f"whose edge runs through {here.describe()}")


def test_foreign_lifetime_is_an_allocation_violation():
    from repro.regalloc.lifetimes import Lifetime

    sched, m = _qrf_schedule()
    usage = _packed(sched, m)
    alloc = next(iter(usage.by_location.values()))
    alloc.queues.append([Lifetime(900, 901, 0, 0, 1,
                                  location=alloc.location)])
    _only_allocation_violation(sched, m, usage,
                               "matches no lifetime of the schedule")
