"""A1 -- ablation: copy fan-out tree strategy (design choice, Section 2).

Compares the three tree shapes on the 12-FU machine: a linear chain
(consumer i behind i copies), a balanced tree (log depth for all), and the
default slack-aware Huffman tree (recurrence-circuit edges shallowest).
The slack strategy should preserve the no-copy II at least as often as the
alternatives.

This file times the run and records the table; the shape checks run
untimed in ``tests/paper/test_paper_shapes.py``.
"""

from conftest import record, run_recorded, runner_from_env

from repro.analysis.experiments import ablation_copy_tree
from repro.workloads.corpus import bench_corpus

SAMPLE = 80


def test_ablation_copy_tree(benchmark):
    loops = bench_corpus(SAMPLE)
    result = run_recorded(
        benchmark, "ablation_copytree",
        lambda: ablation_copy_tree(loops, runner=runner_from_env()),
        corpus_size=len(loops),
        metrics=lambda r: {f"same_ii_{s}": v
                           for s, v in r.column("same_ii").items()})
    record("ablation_copytree", result.render())
