"""Packed-vs-legacy equivalence: golden schedules pin the rewrite.

``tests/sched/data/golden_schedules.json`` was generated by the
pre-packed-core (edge-object, dict-MRT) implementation: for every
registered scheduler and partitioner x classic kernel it records the II,
sigma and cluster map the engine produced.  The packed-array core must
reproduce each of them **exactly** -- same search decisions, same
placements -- which is what makes the perf rewrite a pure representation
change.

A new engine registered later simply has no golden entry and is skipped;
regenerate the fixture (see the script header in this file's git history)
to pin it too.

Every case replays once per value the retired ``REPRO_KERNELS`` variable
accepted (``legacy_kernels_env``): nothing reads it now, so the golden
schedules must be byte-identical under ``python`` and ``numpy`` alike.
"""

import json
import pathlib

import pytest

from repro.ir.copyins import insert_copies
from repro.ir.unroll import unroll
from repro.machine.presets import clustered_machine, qrf_machine
from repro.sched.partition import PartitionConfig, partitioned_schedule
from repro.sched.partitioners import PARTITIONERS
from repro.sched.strategies import SCHEDULERS
from repro.verify import verify_schedule
from repro.workloads.kernels import KERNELS, kernel

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" /
     "golden_schedules.json").read_text())


def _sigma(sched) -> dict[str, int]:
    return {str(k): v for k, v in sched.sigma.items()}


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("scheduler", tuple(SCHEDULERS))
def test_scheduler_matches_golden(scheduler, kernel_name,
                                  legacy_kernels_env):
    entry = GOLDEN["schedulers"].get(f"{scheduler}/{kernel_name}")
    if entry is None:
        pytest.skip(f"no golden entry for {scheduler}/{kernel_name}")
    work = insert_copies(kernel(kernel_name)).ddg
    s = SCHEDULERS[scheduler].schedule(work, qrf_machine(12))
    assert s.ii == entry["ii"]
    assert _sigma(s) == entry["sigma"]
    # golden schedules are not just replayed but *proved* (DESIGN §5.9)
    assert verify_schedule(s, qrf_machine(12)).ok


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("partitioner", tuple(PARTITIONERS))
def test_partitioner_matches_golden(partitioner, kernel_name,
                                    legacy_kernels_env):
    entry = GOLDEN["partitioners"].get(f"{partitioner}/{kernel_name}")
    if entry is None:
        pytest.skip(f"no golden entry for {partitioner}/{kernel_name}")
    work = insert_copies(kernel(kernel_name)).ddg
    s = partitioned_schedule(
        work, clustered_machine(4),
        config=PartitionConfig(partitioner=partitioner))
    assert s.ii == entry["ii"]
    assert _sigma(s) == entry["sigma"]
    assert {str(k): v for k, v in s.cluster_of.items()} \
        == entry["cluster_of"]
    assert verify_schedule(s, clustered_machine(4)).ok


@pytest.mark.parametrize("partitioner", tuple(PARTITIONERS))
def test_partitioner_matches_golden_unrolled(partitioner,
                                             legacy_kernels_env):
    """The unrolled stress case drives the eviction/deadlock machinery."""
    entry = GOLDEN["partitioners"].get(f"{partitioner}/dot.u4x5cl")
    if entry is None:
        pytest.skip("no golden entry")
    work = insert_copies(unroll(kernel("dot"), 4)).ddg
    s = partitioned_schedule(
        work, clustered_machine(5),
        config=PartitionConfig(partitioner=partitioner))
    assert s.ii == entry["ii"]
    assert _sigma(s) == entry["sigma"]
    assert {str(k): v for k, v in s.cluster_of.items()} \
        == entry["cluster_of"]
    assert verify_schedule(s, clustered_machine(5)).ok
