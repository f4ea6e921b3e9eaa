"""E2 -- Section 2 text: the cost of copy operations.

The paper: "around 95% of the loops [keep] the same II after the insertion
of copy operations ... [for the rest] an increase in its value (tolerable
in most of the cases)" and the stage count rarely changes.  Our corpus
reproduces the shape (large majority unchanged, changes mostly +1 cycle);
the absolute fraction depends on how often recurrence producers feed extra
consumers (EXPERIMENTS.md discusses the gap).

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import sec2_copy_impact
from repro.workloads.corpus import bench_corpus


def test_sec2_copy_impact(benchmark):
    loops = bench_corpus()
    result = run_recorded(
        benchmark, "sec2_copyops",
        lambda: sec2_copy_impact(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {f"same_ii_{m}": v
                           for m, v in r.column("same_ii").items()})
    record("sec2_copyops", result.render())
