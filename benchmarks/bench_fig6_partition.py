"""E5 -- Fig. 6: II variation of the clustered machine.

The paper's headline partitioning result: the fraction of loops scheduled
on the 4/5/6-cluster ring at the same II as the equivalent single-cluster
machine is 95 % / 84 % / 52 %, degrading with cluster count because values
cannot move between non-adjacent clusters; increases are "typically of one
cycle only".

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import fig6_ii_variation
from repro.workloads.corpus import bench_corpus


def test_fig6_ii_variation(benchmark):
    loops = bench_corpus()
    result = run_recorded(
        benchmark, "fig6_partition",
        lambda: fig6_ii_variation(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {"same_ii_4cl": r.rows[4]["same_ii"],
                           "same_ii_5cl": r.rows[5]["same_ii"],
                           "same_ii_6cl": r.rows[6]["same_ii"],
                           "mean_increase_6cl": r.rows[6]["mean_increase"]})
    record("fig6_partition", result.render())
