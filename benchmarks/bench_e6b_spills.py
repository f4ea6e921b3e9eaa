"""E6b -- spill code under finite queue files.

Section 4: "in a practical system spill code will occasionally be
required to deal with finite numbers of queues and queue positions."
Sweeps hardware budgets (queues x positions) on the 12-FU machine and
reports the spill-free fraction and mean spilled lifetimes -- the
quantified version of the paper's "occasionally".

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import spill_budget
from repro.workloads.corpus import bench_corpus

SAMPLE = 96


def test_e6b_spill_budget(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "e6b_spills",
        lambda: spill_budget(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {
            "no_spill_4x8": r.rows[4, 8]["no_spill_fraction"],
            "no_spill_32x16": r.rows[32, 16]["no_spill_fraction"]})
    record("e6b_spills", result.render())
