"""Tests for the supplementary experiments (S1, E6b, A4)."""

import pytest

from repro.analysis.experiments import (register_pressure,
                                        ring_latency_sensitivity,
                                        spill_budget)
from repro.machine.presets import qrf_machine
from repro.workloads.corpus import paper_corpus


@pytest.fixture(scope="module")
def loops():
    return paper_corpus()[:16]


class TestRegisterPressure:
    def test_bounds_ordering(self, loops):
        res = register_pressure(loops, [qrf_machine(6)])
        row = res.rows["queu-6fu"]
        assert row["mean_max_live"] <= row["mean_rotating"]
        assert row["mean_mve_unroll"] >= 1.0
        assert row["p95_queues"] >= 1

    def test_render(self, loops):
        text = register_pressure(loops, [qrf_machine(6)]).render()
        assert "MaxLive" in text and "MVE" in text


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
    def test_latency_never_helps(self, loops):
        res = ring_latency_sensitivity(loops, latencies=(0, 2),
                                       cluster_counts=(4,))
        assert res.rows[0][4] >= res.rows[2][4] - 1e-9

    def test_render(self, loops):
        res = ring_latency_sensitivity(loops, latencies=(0,),
                                       cluster_counts=(4,))
        # the header names the cluster counts asked for
        assert res.header == "xlat   4-clusters"
        assert "xlat" in res.render()
