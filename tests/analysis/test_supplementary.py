"""Driver arguments of the supplementary experiments (E6b, A4)."""

import pytest

from repro.analysis.experiments import ring_latency_sensitivity, spill_budget
from repro.workloads.corpus import paper_corpus


@pytest.fixture(scope="module")
def loops():
    return paper_corpus()[:16]


class TestSpillBudget:
    def test_monotone_in_budget(self, loops):
        res = spill_budget(loops, budgets=((2, 4), (8, 8), (64, 32)))
        frac = res.column("no_spill_fraction")
        assert list(frac) == [(2, 4), (8, 8), (64, 32)]
        assert frac[(2, 4)] <= frac[(8, 8)] <= frac[(64, 32)]
        assert frac[(64, 32)] == 1.0
        assert res.rows[64, 32]["mean_spills"] == 0.0

    def test_render(self, loops):
        assert "spill" in spill_budget(
            loops, budgets=((8, 8),)).render()


class TestRingLatency:
    def test_render(self, loops):
        res = ring_latency_sensitivity(loops, latencies=(0,),
                                       cluster_counts=(4,))
        # the header names the cluster counts asked for
        assert res.header == "xlat   4-clusters"
        assert "xlat" in res.render()
