"""Single-cluster scheduling engine tests.

The invariant tests are parameterized over ``SCHEDULERS``: they run
against every engine in the table, so a new engine is held to the same
contract as IMS and SMS the moment it is added -- II >= MII, modulo
resource limits respected (no MRT overflow), every dependence distance
honoured, and the full pipeline (allocation + token simulation against the scalar reference
semantics) green on all 30 classic kernels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.copyins import insert_copies
from repro.machine.presets import qrf_machine
from repro.machine.resources import pool_for
from repro.sched.mii import mii, mii_report
from repro.sched.schedule import (ModuloSchedule, SchedulingError,
                                  check_engine)
from repro.sched.strategies import (DEFAULT_SCHEDULER, SCHEDULERS,
                                    sms_order, sms_schedule, time_bounds)
from repro.sim.checker import run_pipeline
from repro.workloads.kernels import KERNELS, kernel
from repro.workloads.synth import SynthConfig, generate_loop

ALL_SCHEDULERS = tuple(SCHEDULERS)


# ------------------------------------------------------------------ table

def test_registry_lists_both_engines():
    assert "ims" in ALL_SCHEDULERS
    assert "sms" in ALL_SCHEDULERS


def test_table_lists_the_default_first():
    assert next(iter(SCHEDULERS)) == DEFAULT_SCHEDULER


def test_registry_unknown_name_names_the_alternatives():
    with pytest.raises(KeyError, match="ims"):
        check_engine(SCHEDULERS, "scheduler", "nope")


def test_every_engine_has_a_description():
    for name, engine in SCHEDULERS.items():
        assert engine.description, name


# ----------------------------------------------- engine-generic invariants

@pytest.mark.parametrize("name", ALL_SCHEDULERS)
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_engine_invariants_on_classic_kernels(name, kernel_name):
    """II >= MII, no MRT overflow, all dependences honoured -- per engine,
    on every classic kernel, on a narrow and a wide machine."""
    engine = SCHEDULERS[name]
    for n_fus in (4, 12):
        m = qrf_machine(n_fus)
        work = insert_copies(kernel(kernel_name)).ddg
        sched = engine.schedule(work, m)
        assert isinstance(sched, ModuloSchedule)
        assert sched.ii >= mii(sched.ddg, m)
        assert min(sched.sigma.values()) >= 0
        # resource + dependence audit (raises on violation)
        sched.validate(m.fus.as_dict())
        # no modulo row exceeds its pool capacity -- checked explicitly,
        # not only through validate()
        usage = {}
        for op_id, t in sched.sigma.items():
            key = (pool_for(sched.ddg.op(op_id).fu_type), t % sched.ii)
            usage[key] = usage.get(key, 0) + 1
        caps = m.fus.as_dict()
        for (pool, _row), n in usage.items():
            assert n <= caps[pool]


@pytest.mark.parametrize("name", ALL_SCHEDULERS)
def test_engine_cross_checked_against_reference_simulator(name):
    """End to end on all 30 classic kernels: schedule with the engine,
    allocate queues, simulate, and verify every operand against the
    scalar reference semantics."""
    for kernel_name in sorted(KERNELS):
        res = run_pipeline(kernel(kernel_name), qrf_machine(4),
                           iterations=8, scheduler=name)
        assert res.sim.reads_checked > 0, kernel_name


@st.composite
def synth_loops(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    cfg = SynthConfig(n_loops=1, max_ops=24)
    return generate_loop(random.Random(seed), cfg, seed)


@given(synth_loops(), st.sampled_from(ALL_SCHEDULERS))
@settings(max_examples=40, deadline=None)
def test_engine_schedules_synthetic_loops(ddg, name):
    m = qrf_machine(6)
    work = insert_copies(ddg).ddg
    sched = SCHEDULERS[name].schedule(work, m)
    sched.validate(m.fus.as_dict())
    assert sched.ii >= mii(work, m)


# ------------------------------------------------------------ SMS details

def test_sms_order_keeps_neighbourhood_invariant(reachability):
    """Every op except one seed per connected region is ordered while one
    of its DDG neighbours is already ordered (the swing property that
    makes the bidirectional placement lifetime-minimising)."""
    for kernel_name in sorted(KERNELS):
        ddg = insert_copies(kernel(kernel_name)).ddg
        ii = mii(ddg, qrf_machine(4))
        order = sms_order(ddg, ii)
        assert sorted(order) == sorted(ddg.op_ids)
        index = {o: i for i, o in enumerate(ddg.op_ids)}
        nbrs: dict[int, set[int]] = {o: set() for o in ddg.op_ids}
        for e in ddg.edges():
            if e.src != e.dst:
                nbrs[e.src].add(e.dst)
                nbrs[e.dst].add(e.src)
        # connected regions of the undirected graph
        reach = reachability(len(index), [(index[u], index[v])
                                          for u in nbrs for v in nbrs[u]])
        n_regions = len({frozenset({u} | reach[u])
                         for u in range(len(index))})
        seen = set()
        orphans = 0
        for op_id in order:
            if nbrs[op_id] and not (nbrs[op_id] & seen):
                orphans += 1
            seen.add(op_id)
        assert orphans <= n_regions, kernel_name


def test_sms_time_bounds_are_consistent():
    ddg = insert_copies(kernel("fir4")).ddg
    ii = mii(ddg, qrf_machine(4))
    e_of, l_of = time_bounds(ddg, ii)
    assert all(l_of[u] >= e_of[u] >= 0 for u in ddg.op_ids)


def test_sms_is_backtrack_free():
    """SMS never evicts; its per-II placement attempts are <= n_ops."""
    for kernel_name in ("daxpy", "cmul", "trielim", "wide8"):
        m = qrf_machine(4)
        work = insert_copies(kernel(kernel_name)).ddg
        sched = sms_schedule(work, m)
        assert sched.stats.evictions == 0
        assert sched.stats.attempts <= work.n_ops * sched.stats.iis_tried


def test_sms_matches_ims_mii_achievement_on_kernels():
    """The acceptance headline, in miniature: wherever IMS hits MII on
    the classic kernels, SMS does too (>= 80% required; in practice
    it's all of them)."""
    m = qrf_machine(6)
    ims_hit, sms_hit = [], []
    for kernel_name in sorted(KERNELS):
        work = insert_copies(kernel(kernel_name)).ddg
        lo = mii(work, m)
        ims_ii = SCHEDULERS["ims"].schedule(work, m).ii
        sms_ii = SCHEDULERS["sms"].schedule(work, m).ii
        if ims_ii == lo:
            ims_hit.append(kernel_name)
            if sms_ii == lo:
                sms_hit.append(kernel_name)
    assert len(sms_hit) >= 0.8 * len(ims_hit)


def test_sms_raises_on_impossible_machine():
    ddg = kernel("daxpy")
    m = qrf_machine(4)
    report = mii_report(ddg, m)
    with pytest.raises(SchedulingError):
        from repro.sched.strategies import SmsConfig
        sms_schedule(ddg, m, config=SmsConfig(max_ii=report.mii - 1))
