"""PC -- partitioner comparison: every registered engine head to head.

Runs the clustered corpus through each registered cluster-partitioning
engine on the paper's 4/5/6-cluster rings and reports II-vs-MII quality,
search effort (placement attempts, evictions), ring-crossing value count
and peak per-cluster MaxLive.  The shape assertions pin the reasons the
engines exist: the affinity family keeps ring traffic visibly below the
locality-blind baselines, and the agglomerative pre-assignment matches
or beats the greedy default's II quality.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import exp_partitioner_compare
from repro.workloads.corpus import bench_corpus


def test_partitioner_compare(benchmark):
    loops = bench_corpus(64)
    result = run_recorded(
        benchmark, "partitioner_compare",
        lambda: exp_partitioner_compare(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {
            f"mii_rate_{n}cl_{p}": v
            for (n, p), v in r.column("mii_rate").items()})
    record("partitioner_compare", result.render())
