"""Integration tests for the experiment drivers (tiny corpus subsets).

These run the drivers with non-default arguments (machine subsets,
cluster counts, engine subsets) on a subset small enough for CI and read
the cells of the returned tables; ``tests/paper/`` asserts the paper's
shapes on the default arguments.
"""

import pytest

from repro.analysis.experiments import (ablation_copy_tree, ablation_moves,
                                        ablation_partition,
                                        fig3_queue_requirements,
                                        fig4_unroll_speedup,
                                        fig6_ii_variation, fig8_ipc,
                                        fig9_ipc_rc, sec2_copy_impact,
                                        sec4_cluster_queues)
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


class TestFig3(object):
    def test_monotone_buckets(self, loops):
        res = fig3_queue_requirements(loops, [qrf_machine(4)])
        row = res.rows["queu-4fu"]
        assert row[4] <= row[8] <= row[16] <= row[32]

    def test_render(self, loops):
        text = fig3_queue_requirements(loops, [qrf_machine(4)]).render()
        assert "Fig. 3" in text and "%" in text


class TestSec2:
    def test_majority_keep_ii(self, loops):
        res = sec2_copy_impact(loops, [qrf_machine(4)])
        assert res.rows["queu-4fu"]["same_ii"] >= 0.7

    def test_render(self, loops):
        assert "copy" in sec2_copy_impact(
            loops, [qrf_machine(4)]).render()


class TestFig4:
    def test_speedups_at_least_one(self, loops):
        res = fig4_unroll_speedup(loops, [qrf_machine(12)])
        assert res.rows["queu-12fu"]["min_speedup"] >= 1.0 - 1e-9

    def test_wider_machines_gain_more(self, loops):
        res = fig4_unroll_speedup(loops, [qrf_machine(4),
                                          qrf_machine(12)])
        gt1 = res.column("speedup_gt1")
        assert gt1["queu-12fu"] >= gt1["queu-4fu"]


class TestFig6:
    def test_fractions_in_range(self, loops):
        res = fig6_ii_variation(loops, cluster_counts=(4,))
        assert 0.5 <= res.rows[4]["same_ii"] <= 1.0


class TestSec4:
    def test_budget_fits_most(self, loops):
        res = sec4_cluster_queues(loops, cluster_counts=(4,))
        # paper: the 8+8+8 budget suffices for all but "a small fraction
        # of loops"
        row = res.rows[4]
        assert row["fits_budget"] >= 0.8
        assert row["p95_private"] <= 10
        assert row["p95_ring"] <= 8


class TestIpcSweep:
    def test_ipc_grows_with_fus(self, loops):
        res = fig8_ipc(loops, fus=(4, 12), clustered_counts=())
        assert res.rows[12]["static_single"] > res.rows[4]["static_single"]

    def test_dynamic_below_static(self, loops):
        res = fig8_ipc(loops, fus=(6,), clustered_counts=())
        assert res.rows[6]["dynamic_single"] <= res.rows[6]["static_single"]

    def test_clustered_at_most_single(self, loops):
        res = fig8_ipc(loops, fus=(12,), clustered_counts=(4,))
        row = res.rows[12]
        assert row["static_clustered"] <= row["static_single"] + 1e-9

    def test_rc_filter_higher_ipc(self, loops):
        all_res = fig8_ipc(loops, fus=(12,), clustered_counts=())
        rc_res = fig9_ipc_rc(loops, fus=(12,), clustered_counts=())
        # resource-constrained loops use the machine at least as well
        assert (rc_res.rows[12]["static_single"]
                >= all_res.rows[12]["static_single"] - 1e-9)

    def test_render(self, loops):
        text = fig8_ipc(loops, fus=(4,), clustered_counts=()).render()
        assert "static" in text


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

    def test_moves_recover(self, loops):
        res = ablation_moves(loops[:12], cluster_counts=(6,))
        row = res.rows[6]
        assert row["with_moves"] >= row["without_moves"] - 1e-9


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
