"""A3 -- ablation: explicit MOVE ops between non-adjacent clusters.

The paper's conclusion: the 6-cluster degradation (52 % same II) is
"mainly due to the inability to move data values between non-adjacent
clusters" and proposes "a more sophisticated scheme using move operations"
as future work.  This ablation implements that scheme (relaxed cluster
assignment -> MOVE chains on every multi-hop edge -> pinned re-schedule)
and measures how much of the loss it recovers on 5 and 6 clusters.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import ablation_moves
from repro.workloads.corpus import bench_corpus

SAMPLE = 64


def test_ablation_moves(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "ablation_moves",
        lambda: ablation_moves(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {f"with_moves_{n}cl": r.rows[n]["with_moves"]
                           for n in (5, 6)})
    record("ablation_moves", result.render())
