"""SC -- scheduler comparison: IMS vs SMS, head to head.

Runs every registered scheduling engine over the bench corpus on the
paper's 4/6/12-FU QRF presets and records the comparison table
EXPERIMENTS.md quotes.  Shape requirements:

* both engines schedule every loop (the corpus is schedulable by
  construction);
* SMS achieves II == MII on >= 80% of the loops where IMS does (the
  acceptance headline; in practice it is ~100%);
* SMS is backtrack-free (zero evictions) and needs no more placement
  attempts than IMS;
* SMS's lifetime-minimising placement shows up as conventional-RF
  register demand (MaxLive) no worse than IMS's on every preset.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import exp_scheduler_compare
from repro.workloads.corpus import bench_corpus


def test_scheduler_compare(benchmark):
    loops = bench_corpus()
    result = run_recorded(
        benchmark, "scheduler_compare",
        lambda: exp_scheduler_compare(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {
            f"mii_match_{m}_{s}": v
            for (m, s), v in r.column("mii_match").items()})
    record("scheduler_compare", result.render())
