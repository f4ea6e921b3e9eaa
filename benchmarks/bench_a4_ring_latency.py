"""A4 -- sensitivity: inter-cluster forwarding latency.

The paper's ring queues are "used to allocate registers as if they were a
cluster private QRF" -- zero extra latency for crossing to an adjacent
cluster.  This sensitivity study re-runs the Fig. 6 experiment with 1 and
2 extra cycles per crossing: if the headline results held only at exactly
zero, the architecture would be fragile; a graceful decline validates the
design margin.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import ring_latency_sensitivity
from repro.workloads.corpus import bench_corpus

SAMPLE = 48


def test_a4_ring_latency(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "a4_ring_latency",
        lambda: ring_latency_sensitivity(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {f"same_ii_xlat{x}_4cl": r.rows[x][4]
                           for x in (0, 1, 2)})
    record("a4_ring_latency", result.render())
