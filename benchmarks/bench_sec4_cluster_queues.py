"""E6 -- Section 4 text / Fig. 7: the per-cluster queue budget.

The paper concludes that "a cluster configuration comprising 8 queues for
the private QRF and another 16 queues to implement the communication ring
(8 to be used in each direction) should suffice", with "a small fraction
of loops [requiring] additional resources".

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import sec4_cluster_queues
from repro.workloads.corpus import bench_corpus


def test_sec4_cluster_queues(benchmark):
    loops = bench_corpus()
    result = run_recorded(
        benchmark, "sec4_cluster_queues",
        lambda: sec4_cluster_queues(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {f"fits_budget_{n}cl": r.rows[n]["fits_budget"]
                           for n in (4, 5, 6)})
    record("sec4_cluster_queues", result.render())
