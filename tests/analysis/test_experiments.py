"""Integration tests for the experiment drivers (tiny corpus subsets).

These run the drivers with non-default arguments (strategy and engine
subsets) on a subset small enough for CI and read the cells of the
returned tables; ``tests/paper/`` asserts the paper's shapes and golden
tables on the default arguments.
"""

import pytest

from repro.analysis.experiments import (ablation_copy_tree,
                                        ablation_partition)
from repro.machine.presets import clustered_machine, qrf_machine
from repro.runner.pipeline import compile_loop
from repro.workloads.corpus import paper_corpus
from repro.workloads.kernels import all_kernels


@pytest.fixture(scope="module")
def loops():
    return paper_corpus()[:30] + all_kernels()


class TestCompileLoop:
    def test_single_cluster(self, loops):
        c = compile_loop(loops[0], qrf_machine(4))
        assert not c.outcome.failed
        assert c.outcome.ii >= c.outcome.mii

    def test_clustered(self, loops):
        c = compile_loop(loops[0], clustered_machine(4))
        assert not c.outcome.failed

    def test_auto_unroll(self, loops):
        c = compile_loop(loops[0], qrf_machine(12), do_unroll=True)
        assert c.outcome.unroll_factor >= 1

    def test_explicit_factor_wins(self, loops):
        c = compile_loop(loops[0], qrf_machine(12), unroll_factor=3)
        assert c.outcome.unroll_factor == 3


class TestAblations:
    def test_copy_tree(self, loops):
        res = ablation_copy_tree(loops[:15], qrf_machine(6),
                                 strategies=("chain", "slack"))
        same = res.column("same_ii")
        assert set(same) == {"chain", "slack"}
        assert same["slack"] >= same["chain"] - 0.15

    def test_partition(self, loops):
        res = ablation_partition(loops[:12], n_clusters=4,
                                 strategies=("affinity", "first"))
        assert list(res.rows) == ["affinity", "first"]
        assert 0.0 <= res.rows["first"]["same_ii"] <= 1.0


class TestSchedulerCompare:
    def test_engine_subset_and_render(self, loops):
        from repro.analysis.experiments import exp_scheduler_compare

        res = exp_scheduler_compare(loops[:10], [qrf_machine(4)],
                                    schedulers=("sms",))
        # the first engine given is the baseline, and matches itself
        assert list(res.rows) == [("queu-4fu", "sms")]
        assert res.rows["queu-4fu", "sms"]["mii_match"] == 1.0
        text = res.render()
        assert "scheduler comparison (baseline: sms)" in text

    def test_sms_compiles_corpus_via_pipeline_options(self, loops):
        """PipelineOptions(scheduler="sms") end to end: failures allowed,
        crashes not."""
        from repro.runner import CompileJob, PipelineOptions, run_jobs

        opts = PipelineOptions(scheduler="sms")
        results = run_jobs(
            [CompileJob(ddg, qrf_machine(6), opts) for ddg in loops])
        assert len(results) == len(loops)
        assert any(not r.outcome.failed for r in results)
