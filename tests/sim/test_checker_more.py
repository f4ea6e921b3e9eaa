"""Extra coverage of the end-to-end pipeline checker."""

import pytest

from repro.machine.cluster import make_clustered
from repro.machine.presets import crf_machine, qrf_machine
from repro.sched.partition import PartitionConfig
from repro.sim.checker import run_pipeline
from repro.workloads.kernels import daxpy, dot_product, norm2


def test_custom_ims_config():
    res = run_pipeline(daxpy(), qrf_machine(4), scheduler="ims",
                       iterations=8)
    assert res.ii == 2


def test_custom_partition_config():
    cm = make_clustered(4)
    res = run_pipeline(daxpy(), cm, partitioner="balance", iterations=8)
    res.schedule.validate(cm.cluster.fus.as_dict(), adjacency=cm)


def test_custom_sms_config_selects_sms_engine():
    res = run_pipeline(daxpy(), qrf_machine(4), scheduler="sms",
                       iterations=8)
    assert res.ii == 2


def test_mismatched_sched_config_rejected():
    with pytest.raises(TypeError, match="sched_config"):
        run_pipeline(daxpy(), qrf_machine(4),
                     sched_config=PartitionConfig())


def test_conventional_machine_reports_registers():
    res = run_pipeline(norm2(), crf_machine(4), iterations=8)
    assert res.n_copies == 0
    assert res.usage is None and res.sim is None
    assert res.registers is not None
    assert res.registers.max_live >= 0
    with pytest.raises(ValueError):
        _ = res.total_queues


def test_iterations_default_covers_pipeline():
    res = run_pipeline(dot_product(), qrf_machine(6))
    assert res.sim.iterations >= res.schedule.stage_count


def test_sim_ipc_matches_outcome_model():
    """The simulator's measured dynamic IPC must equal the analytical
    model in metrics (same cycle formula)."""
    res = run_pipeline(daxpy(), qrf_machine(4), iterations=40)
    model_cycles = res.schedule.cycles_for(40)
    assert res.sim.cycles == model_cycles
    assert res.sim.dynamic_ipc == pytest.approx(
        res.schedule.n_ops * 40 / model_cycles)


def test_unroll_factor_recorded():
    res = run_pipeline(daxpy(), qrf_machine(12), unroll_factor=4,
                       iterations=12)
    assert res.unroll_factor == 4
    assert res.ddg.n_ops == res.schedule.n_ops
