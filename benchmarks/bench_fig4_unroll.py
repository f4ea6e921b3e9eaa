"""E3/E4 -- Fig. 4 + Section 3 text: loop unrolling.

Regenerates the II-speedup bars (fraction of loops with speedup > 1 on the
4/6/12-FU machines) and the Section 3 queue-growth claim (over 90 % of
loops still fit 32 queues after unrolling).  Shape requirements: wider
machines benefit more, and no loop regresses (the compiler keeps the
rolled version when unrolling loses).

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import fig4_unroll_speedup
from repro.workloads.corpus import bench_corpus


def test_fig4_unroll_speedup(benchmark):
    loops = bench_corpus()
    result = run_recorded(
        benchmark, "fig4_unroll",
        lambda: fig4_unroll_speedup(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {f"speedup_gt1_{m}": v
                           for m, v in r.column("speedup_gt1").items()})
    record("fig4_unroll", result.render())
