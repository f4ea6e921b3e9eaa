"""S1 -- supplementary: register pressure, QRF vs conventional RF.

Quantifies the paper's introduction argument: modulo scheduling keeps
several iterations in flight, so a conventional RF needs either modulo
variable expansion (code growth + extra names) or rotating-register
hardware, while the QRF's FIFO semantics absorb overlapping instances
naturally.  Compares, on the same loops and machine widths: queues used
(QRF side) vs MaxLive / rotating / MVE register counts (CRF side).

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import register_pressure
from repro.workloads.corpus import bench_corpus

SAMPLE = 96


def test_s1_register_pressure(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "s1_register_pressure",
        lambda: register_pressure(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {f"mean_queues_{m}": v
                           for m, v in r.column("mean_queues").items()})
    record("s1_register_pressure", result.render())
