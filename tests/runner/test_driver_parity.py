"""Driver-level determinism: every experiment in the table renders
identical tables whether it runs serially, in parallel, or from cache --
the check that catches a result looked up under the wrong label."""

import random

import pytest

from repro.analysis.experiments import (EXPERIMENTS,
                                        fig3_queue_requirements,
                                        fig6_ii_variation,
                                        sec4_cluster_queues)
from repro.runner import RunnerConfig, ShardedResultCache
from repro.workloads.kernels import all_kernels
from repro.workloads.synth import SynthConfig, generate_loop


@pytest.fixture(scope="module")
def loops():
    cfg = SynthConfig(n_loops=10)
    rng = random.Random(cfg.seed)
    synth = [generate_loop(rng, cfg, i) for i in range(cfg.n_loops)]
    return synth + all_kernels()[:6]


@pytest.fixture
def parallel_cached(tmp_path):
    return RunnerConfig(n_workers=2, cache=ShardedResultCache(tmp_path))


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS),
                         ids=[exp.driver.__name__
                              for exp in EXPERIMENTS.values()])
def test_driver_parallel_render_matches_serial(exp_id, loops,
                                               parallel_cached):
    experiment = EXPERIMENTS[exp_id]
    serial = experiment.run(loops).render()
    parallel = experiment.run(loops, parallel_cached).render()
    replayed = experiment.run(loops, parallel_cached).render()
    assert parallel == serial
    assert replayed == serial


def test_empty_loop_list_degrades_gracefully():
    empty = fig3_queue_requirements([])
    assert all(v == 0.0 for row in empty.rows.values()
               for v in row.values())
    assert sec4_cluster_queues([], cluster_counts=(4,)).column(
        "fits_budget") == {4: 0.0}


def test_fig6_two_wave_dependency_parity(loops, parallel_cached):
    serial = fig6_ii_variation(loops, cluster_counts=(4,))
    parallel = fig6_ii_variation(loops, cluster_counts=(4,),
                                 runner=parallel_cached)
    assert parallel == serial


@pytest.mark.parametrize("scheduler", ["ims", "sms"])
def test_scheduler_sweeps_parallel_parity(scheduler, loops,
                                          parallel_cached):
    """Byte-identical serial/parallel/replayed output for each engine."""
    serial = fig3_queue_requirements(loops, scheduler=scheduler).render()
    parallel = fig3_queue_requirements(
        loops, runner=parallel_cached, scheduler=scheduler).render()
    replayed = fig3_queue_requirements(
        loops, runner=parallel_cached, scheduler=scheduler).render()
    assert parallel == serial
    assert replayed == serial
