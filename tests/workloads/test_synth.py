"""Tests for the synthetic corpus generator: determinism, validity, and
calibration (the distributions DESIGN.md promises)."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ir.validate import validate_ddg
from repro.workloads.corpus import corpus_stats
from repro.workloads.synth import (SynthConfig, _pick_operand,
                                   generate_corpus, generate_loop)


@pytest.fixture(scope="module")
def midsize_corpus():
    return generate_corpus(SynthConfig(n_loops=300))


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate_corpus(SynthConfig(n_loops=10))
        b = generate_corpus(SynthConfig(n_loops=10))
        for la, lb in zip(a, b):
            assert la.n_ops == lb.n_ops
            assert la.trip_count == lb.trip_count
            assert [(e.src, e.dst, e.distance) for e in la.edges()] == \
                [(e.src, e.dst, e.distance) for e in lb.edges()]

    def test_different_seed_differs(self):
        a = generate_corpus(SynthConfig(n_loops=10, seed=1))
        b = generate_corpus(SynthConfig(n_loops=10, seed=2))
        assert any(la.n_ops != lb.n_ops for la, lb in zip(a, b))


class TestValidity:
    def test_every_loop_validates(self, midsize_corpus):
        for ddg in midsize_corpus:
            validate_ddg(ddg)

    def test_sizes_within_bounds(self, midsize_corpus):
        cfg = SynthConfig()
        for ddg in midsize_corpus:
            # extra stores may exceed the op target slightly, never wildly
            assert cfg.min_ops <= ddg.n_ops <= cfg.max_ops * 1.5

    def test_trip_counts_within_bounds(self, midsize_corpus):
        cfg = SynthConfig()
        for ddg in midsize_corpus:
            assert cfg.min_trip <= ddg.trip_count <= cfg.max_trip

    def test_every_loop_has_memory_op(self, midsize_corpus):
        for ddg in midsize_corpus:
            assert any(op.is_memory for op in ddg.operations)

    def test_no_compiler_ops_in_source(self, midsize_corpus):
        for ddg in midsize_corpus:
            assert not any(op.is_copy or op.is_move
                           for op in ddg.operations)


class TestCalibration:
    """The distributions the reproduction hinges on (DESIGN.md §2)."""

    def test_memory_fraction(self, midsize_corpus):
        stats = corpus_stats(midsize_corpus)
        assert 0.25 <= stats.mem_fraction <= 0.45

    def test_recurrent_fraction(self, midsize_corpus):
        stats = corpus_stats(midsize_corpus)
        assert 0.30 <= stats.recurrent_fraction <= 0.50

    def test_mean_size(self, midsize_corpus):
        stats = corpus_stats(midsize_corpus)
        assert 8 <= stats.mean_ops <= 22

    def test_trip_count_heavy_tail(self, midsize_corpus):
        stats = corpus_stats(midsize_corpus)
        assert stats.max_trip > 10 * stats.median_trip

    def test_fanout_exists(self, midsize_corpus):
        stats = corpus_stats(midsize_corpus)
        assert stats.mean_fanout_gt1 > 0.5


class TestSingleLoop:
    def test_index_in_name(self):
        ddg = generate_loop(random.Random(0), SynthConfig(), 42)
        assert "0042" in ddg.name

    def test_custom_mix(self):
        from repro.ir.operations import Opcode
        cfg = SynthConfig(arith_mix=((Opcode.ADD, 1.0),))
        ddg = generate_loop(random.Random(0), cfg, 0)
        arith = [op for op in ddg.operations
                 if not op.is_memory]
        assert all(op.opcode is Opcode.ADD for op in arith)


# ---------------------------------------------------------------------------
# the operand pick: a bisection over cached running sums
# ---------------------------------------------------------------------------

def _linear_pick(producers, cfg, u):
    """The linear scan the cached table replaces, with ``u`` as its draw."""
    weights = [(i + 1) ** cfg.recent_bias for i in range(len(producers))]
    r = u * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r <= acc:
            return producers[i]
    return producers[-1]


class _Draws:
    """An rng stand-in whose ``random()`` replays fixed values."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def _table_pick(producers, cfg, u):
    # the first draw loses the reuse coin (p_reuse_operand is 0)
    return _pick_operand(_Draws(0.5, u), producers, cfg)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(min_value=2, max_value=160),
       bias=st.one_of(st.sampled_from([0.0, 1.0, 2.0, 0.5, -1.0]),
                      st.floats(min_value=-40.0, max_value=40.0)),
       u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_table_pick_matches_linear_scan(n, bias, u):
    cfg = SynthConfig(recent_bias=bias, p_reuse_operand=0.0)
    producers = list(range(100, 100 + n))
    assert _table_pick(producers, cfg, u) == \
        _linear_pick(producers, cfg, u)


@pytest.mark.parametrize("bias", [2.0, 2, 0.37, -3.5, 9.1])
def test_table_pick_matches_linear_scan_at_every_boundary(bias):
    """Draws landing exactly on, just under and just over each running
    sum, for operand counts growing and then shrinking (the table is
    cached across counts)."""
    cfg = SynthConfig(recent_bias=bias, p_reuse_operand=0.0)
    for n in list(range(2, 41)) + list(range(40, 1, -3)):
        producers = list(range(n))
        weights = [(i + 1) ** bias for i in range(n)]
        total = sum(weights)
        acc = 0.0
        for w in weights:
            acc += w
            u = acc / total
            for v in (math.nextafter(u, 0.0), u, math.nextafter(u, 1.0)):
                if 0.0 <= v < 1.0:
                    assert _table_pick(producers, cfg, v) == \
                        _linear_pick(producers, cfg, v), (n, v)
