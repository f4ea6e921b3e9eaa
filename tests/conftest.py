"""Shared fixtures: machines, kernels, corpus samples and graph oracles."""

from __future__ import annotations

import os
import random

import pytest

from repro.machine.cluster import make_clustered
from repro.machine.presets import (clustered_machine, crf_machine,
                                   narrow_test_machine, qrf_machine)
from repro.workloads.kernels import all_kernels, daxpy, dot_product
from repro.workloads.synth import SynthConfig, generate_loop

#: The environment variable that once selected a kernel backend, and the
#: two backend names it accepted.  Nothing reads it any more.
LEGACY_KERNELS_ENV = "REPRO_KERNELS"
LEGACY_KERNELS_VALUES = ("python", "numpy")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_shapes: the paper-shape suite (tests/paper/): "
                   "every experiment's figure shape and golden table")


@pytest.fixture(params=LEGACY_KERNELS_VALUES)
def legacy_kernels_env(request, monkeypatch):
    """Run the test once with ``REPRO_KERNELS`` set to each name the old
    backend registry accepted.  There is one kernel path now, so every
    run must give the same answer: a stale setting selects nothing."""
    monkeypatch.setenv(LEGACY_KERNELS_ENV, request.param)
    return request.param


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the sweep-runner cache at a per-session temp dir so tests
    never read or pollute the user's ~/.cache/repro-vliw store."""
    from repro.runner import CACHE_DIR_ENV

    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


@pytest.fixture
def tiny_machine():
    return narrow_test_machine()


@pytest.fixture
def qrf4():
    return qrf_machine(4)


@pytest.fixture
def qrf6():
    return qrf_machine(6)


@pytest.fixture
def qrf12():
    return qrf_machine(12)


@pytest.fixture
def crf4():
    return crf_machine(4)


@pytest.fixture
def ring4():
    return clustered_machine(4)


@pytest.fixture
def ring6():
    return clustered_machine(6)


@pytest.fixture
def daxpy_ddg():
    return daxpy()


@pytest.fixture
def dot_ddg():
    return dot_product()


@pytest.fixture(scope="session")
def kernel_suite():
    return all_kernels()


@pytest.fixture(scope="session")
def synth_sample():
    """40 deterministic synthetic loops (fast enough for most suites)."""
    cfg = SynthConfig(n_loops=40)
    rng = random.Random(cfg.seed)
    return [generate_loop(rng, cfg, i) for i in range(cfg.n_loops)]


@pytest.fixture(scope="session")
def synth_small():
    """A dozen small loops for the slowest (simulation-heavy) tests."""
    cfg = SynthConfig(n_loops=60, max_ops=20)
    rng = random.Random(7)
    loops = [generate_loop(rng, cfg, i) for i in range(cfg.n_loops)]
    return loops[:12]


def _reachable(n: int, edges) -> list[set[int]]:
    """Brute-force reachability over nodes ``0..n-1``: entry ``u`` is every
    node reachable from ``u`` along one or more of *edges*."""
    succ: list[set[int]] = [set() for _ in range(n)]
    for s, d in edges:
        succ[s].add(d)
    out = []
    for u in range(n):
        seen: set[int] = set()
        stack = list(succ[u])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succ[v])
        out.append(seen)
    return out


@pytest.fixture(scope="session")
def reachability():
    """The brute-force reachability oracle (see :func:`_reachable`)."""
    return _reachable
