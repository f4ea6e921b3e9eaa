"""S2 -- supplementary: register-file hardware complexity.

Quantifies the paper's Section 4 motivation ("a 12 FUs machine ... would
demand a 36 port register file, an unrealistic design"): prices the
monolithic multi-ported RF against the single-ported queue banks at equal
machine width, with register demand measured on the corpus rather than
assumed.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import hardware_cost
from repro.workloads.corpus import bench_corpus

SAMPLE = 96


def test_s2_hardware_cost(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "s2_hardware_cost",
        lambda: hardware_cost(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {"machine_widths": sorted(r.rows)})
    record("s2_hardware_cost", result.render())
