"""Experiment drivers and metrics for every paper figure.

Exports resolve lazily (PEP 562): the experiment drivers import the
:mod:`repro.runner` subsystem, whose workers in turn import
:mod:`repro.analysis.metrics`, and lazy resolution keeps that mutual
reference acyclic no matter which side is imported first.
"""

import importlib

_EXPORTS = {
    "experiments": [
        "Table", "Experiment", "EXPERIMENTS", "fig3_queue_requirements",
        "sec2_copy_impact", "fig4_unroll_speedup", "fig6_ii_variation",
        "sec4_cluster_queues", "ipc_sweep", "fig8_ipc", "fig9_ipc_rc",
        "ablation_copy_tree", "ablation_partition", "ablation_moves",
        "register_pressure", "spill_budget", "ring_latency_sensitivity",
        "hardware_cost", "exp_scheduler_compare", "exp_partitioner_compare",
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
