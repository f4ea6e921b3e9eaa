"""E7 -- Fig. 8: operations issued per cycle, all loops, 4-18 FUs.

Regenerates the four series of the paper's Fig. 8: static and dynamic IPC
for single-cluster machines over the full 4..18-FU sweep, with the
clustered machines (4/5/6 clusters) overlaid at 12/15/18 FUs.  Shape
requirements: IPC grows with width but saturates (recurrence-bound loops
stop scaling); dynamic < static (prologue/epilogue drag); clustered at or
below single-cluster.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import fig8_ipc
from repro.workloads.corpus import bench_corpus

#: the sweep is the most expensive bench: 15 machine points x corpus
SAMPLE = 96


def test_fig8_ipc_all_loops(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "fig8_ipc_all",
        lambda: fig8_ipc(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {"static_ipc_18fu": r.rows[18]["static_single"],
                           "dynamic_ipc_18fu": r.rows[18]["dynamic_single"]})
    record("fig8_ipc_all", result.render())
