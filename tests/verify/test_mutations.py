"""The seeded corruption corpus: every mutation of a proved schedule
must be rejected with the violation kind the mutator promised.

This is the verifier's own acceptance test -- a checker that proves
golden schedules but also proves corrupted ones proves nothing (see
``src/repro/verify/mutate.py``).
"""

import pytest

from repro.ir.copyins import insert_copies
from repro.machine.presets import clustered_machine, qrf_machine
from repro.sched.partition import PartitionConfig, partitioned_schedule
from repro.sched.partitioners import PARTITIONERS
from repro.sched.strategies import SCHEDULERS
from repro.verify import MUTATORS, mutation_corpus, verify_schedule
from repro.workloads.kernels import kernel

KERNELS_UNDER_TEST = ["daxpy", "cmul", "fir4", "tridiag"]


def _corpus_for(sched, machine, seed=0):
    muts = mutation_corpus(sched, machine, seed=seed)
    assert muts, "corpus must never be empty for a real schedule"
    return muts


@pytest.mark.parametrize("kernel_name", KERNELS_UNDER_TEST)
@pytest.mark.parametrize("scheduler", tuple(SCHEDULERS))
def test_single_cluster_corruptions_rejected(scheduler, kernel_name):
    work = insert_copies(kernel(kernel_name)).ddg
    machine = qrf_machine(12)
    sched = SCHEDULERS[scheduler].schedule(work, machine)
    assert verify_schedule(sched, machine).ok
    for mut in _corpus_for(sched, machine):
        verdict = verify_schedule(mut.schedule, mut.machine,
                                  usage=mut.usage)
        assert verdict.kinds() & mut.expected, \
            f"{mut.name} survived: {mut.description}"


@pytest.mark.parametrize("kernel_name", KERNELS_UNDER_TEST)
@pytest.mark.parametrize("partitioner", tuple(PARTITIONERS))
def test_clustered_corruptions_rejected(partitioner, kernel_name):
    work = insert_copies(kernel(kernel_name)).ddg
    machine = clustered_machine(4)
    sched = partitioned_schedule(
        work, machine, config=PartitionConfig(partitioner=partitioner))
    assert verify_schedule(sched, machine).ok
    names = set()
    for mut in _corpus_for(sched, machine):
        names.add(mut.name)
        verdict = verify_schedule(mut.schedule, mut.machine,
                                  usage=mut.usage)
        assert verdict.kinds() & mut.expected, \
            f"{mut.name} survived: {mut.description}"
    # the ring machine shape admits the cluster-swap corruption too
    assert "swap-cluster" in names


def test_corpus_is_deterministic_in_seed():
    work = insert_copies(kernel("cmul")).ddg
    machine = clustered_machine(4)
    sched = partitioned_schedule(work, machine)
    a = mutation_corpus(sched, machine, seed=3)
    b = mutation_corpus(sched, machine, seed=3)
    assert [(m.name, m.description) for m in a] \
        == [(m.name, m.description) for m in b]
    assert [m.schedule.sigma for m in a] == [m.schedule.sigma for m in b]


def test_corpus_rounds_scale_linearly():
    work = insert_copies(kernel("daxpy")).ddg
    machine = qrf_machine(12)
    sched = SCHEDULERS["ims"].schedule(work, machine)
    one = mutation_corpus(sched, machine, seed=0, rounds=1)
    three = mutation_corpus(sched, machine, seed=0, rounds=3)
    assert len(three) == 3 * len(one)


def test_mutations_never_touch_the_original():
    work = insert_copies(kernel("cmul")).ddg
    machine = clustered_machine(4)
    sched = partitioned_schedule(work, machine)
    sigma_before = dict(sched.sigma)
    clusters_before = dict(sched.cluster_of)
    for mut in mutation_corpus(sched, machine, seed=1, rounds=2):
        verify_schedule(mut.schedule, mut.machine, usage=mut.usage)
    assert sched.sigma == sigma_before
    assert sched.cluster_of == clusters_before


def test_every_registered_mutator_fires_somewhere():
    """Each catalogue entry applies to at least one golden shape."""
    fired = set()
    work = insert_copies(kernel("cmul")).ddg
    ring = clustered_machine(4)
    fired |= {m.name for m in mutation_corpus(
        partitioned_schedule(work, ring), ring)}
    single = qrf_machine(12)
    fired |= {m.name for m in mutation_corpus(
        SCHEDULERS["ims"].schedule(work, single), single)}
    assert fired == {name for name, _ in MUTATORS}
