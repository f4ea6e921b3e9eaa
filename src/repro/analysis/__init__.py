"""Experiment drivers and metrics for every paper figure.

Exports resolve lazily (PEP 562): the experiment drivers import the
:mod:`repro.runner` subsystem, whose workers in turn import
:mod:`repro.analysis.metrics`, and lazy resolution keeps that mutual
reference acyclic no matter which side is imported first.
"""

import importlib

_EXPORTS = {
    "experiments": [
        "CompiledLoop", "CopyTreeAblation", "Fig3Result", "Fig4Result",
        "Fig6Result", "IpcSweepResult", "MovesAblation", "PartitionAblation",
        "Sec2Result", "Sec4Result", "HardwareCostResult", "hardware_cost",
        "ablation_copy_tree", "ablation_moves", "ablation_partition",
        "compile_loop", "fig3_queue_requirements", "fig4_unroll_speedup",
        "fig6_ii_variation", "fig8_ipc", "fig9_ipc_rc", "ipc_sweep",
        "sec2_copy_impact", "sec4_cluster_queues", "register_pressure",
        "RegisterPressureResult", "spill_budget", "SpillBudgetResult",
        "ring_latency_sensitivity", "RingLatencyResult",
        "Experiment", "EXPERIMENTS", "exp_scheduler_compare",
        "exp_partitioner_compare",
    ],
    "metrics": [
        "LoopOutcome", "cumulative_within", "fraction", "mean",
        "mean_static_ipc", "percentile", "weighted_dynamic_ipc",
        "weighted_static_ipc",
    ],
}

_NAME_TO_MODULE = {name: module
                   for module, names in _EXPORTS.items()
                   for name in names}

__all__ = sorted(_NAME_TO_MODULE)


def __getattr__(name: str):
    module = _NAME_TO_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
