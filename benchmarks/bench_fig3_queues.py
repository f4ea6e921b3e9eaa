"""E1 -- Fig. 3: queue requirements under copy insertion.

Regenerates the paper's bar groups: the fraction of loops schedulable with
at most 4/8/16/32 queues on the 4/6/12-FU QRF machines, copy operations
inserted.  Shape requirement: the distribution concentrates at <= 32
queues (the paper's "machine configuration required to schedule most of
the loops ... consist of 32 queues").

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import fig3_queue_requirements
from repro.workloads.corpus import bench_corpus


def test_fig3_queue_requirements(benchmark):
    loops = bench_corpus()
    result = run_recorded(
        benchmark, "fig3_queues",
        lambda: fig3_queue_requirements(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {
            "min_covered_le32": min(row[32] for row in r.rows.values())})
    record("fig3_queues", result.render())
