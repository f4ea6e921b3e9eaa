"""E8 -- Fig. 9: IPC restricted to resource-constrained loops.

Same sweep as Fig. 8 but, per machine point, only over loops whose MII is
bound by the FUs rather than by recurrences (``ResMII >= RecMII``) -- "an
insight on how well this architecture model deals with programs whose
execution is constrained by the number of available FUs".  Shape
requirements: these loops exploit the machine better than the full
population and keep scaling further.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import fig9_ipc_rc
from repro.workloads.corpus import bench_corpus

SAMPLE = 96


def test_fig9_ipc_resource_constrained(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "fig9_ipc_rc",
        lambda: fig9_ipc_rc(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {"static_ipc_18fu": r.rows[18]["static_single"],
                           "dynamic_ipc_18fu": r.rows[18]["dynamic_single"]})
    record("fig9_ipc_rc", result.render())
