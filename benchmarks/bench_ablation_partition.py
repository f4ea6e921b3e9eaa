"""A2 -- ablation: cluster-choice heuristic (design choice, Section 4).

The paper's partitioner "add[s] some heuristics to the IMS algorithm in
order to avoid communication conflicts" without specifying them.  This
ablation compares cluster-choice policies on the 5-cluster machine:
neighbour affinity (our default), load balancing, naive first-fit, and a
random baseline.  Affinity must beat random; the gap is the value of the
heuristic.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import ablation_partition
from repro.workloads.corpus import bench_corpus

SAMPLE = 64


def test_ablation_partition_strategy(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "ablation_partition",
        lambda: ablation_partition(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {f"same_ii_{s}": v
                           for s, v in r.column("same_ii").items()})
    record("ablation_partition", result.render())
