"""repro -- reproduction of *Partitioned Schedules for Clustered VLIW
Architectures* (Fernandes, Llosa & Topham, IPPS/SPDP 1998).

A software-pipelining compiler backend for clustered VLIW machines with
queue register files:

* :mod:`repro.ir`       -- loop DDGs, unrolling, copy insertion;
* :mod:`repro.machine`  -- single-cluster and ring-clustered machines;
* :mod:`repro.sched`    -- MII bounds, the scheduling engines (Rau's
  IMS, Llosa's SMS), the cluster partitioners;
* :mod:`repro.regalloc` -- Q-compatibility queue allocation, MaxLive;
* :mod:`repro.codegen`  -- VLIW words, prologue/kernel/epilogue;
* :mod:`repro.sim`      -- token-level simulator and end-to-end checker;
* :mod:`repro.workloads`-- classic kernels + the synthetic corpus;
* :mod:`repro.analysis` -- drivers for every figure of the paper;
* :mod:`repro.runner`   -- parallel sweep runner + content-addressed
  result cache behind every experiment driver (``--jobs N``).

Quickstart::

    from repro import daxpy_example, qrf_machine, run_pipeline
    result = run_pipeline(daxpy_example(), qrf_machine(4), iterations=16)
    print(result.schedule.render())
"""

from repro.ir import (Ddg, DepKind, FuType, LoopBuilder, Opcode, Operation,
                      insert_copies, select_unroll_factor, unroll,
                      validate_ddg)
from repro.machine import (ClusteredMachine, Machine, RfKind,
                           clustered_machine, crf_machine, make_clustered,
                           make_machine, qrf_machine)
from repro.regalloc import (allocate_for_schedule, allocate_queues,
                            q_compatible, register_requirement)
from repro.sched import (PARTITIONERS, SCHEDULERS, ModuloSchedule,
                         SchedulingError, mii, mii_report, modulo_schedule,
                         partitioned_schedule, schedule_with_moves,
                         sms_schedule)
from repro.sim import PipelineResult, SimulationError, run_pipeline, simulate
from repro.workloads import (KERNELS, SynthConfig, all_kernels, bench_corpus,
                             corpus_stats, kernel, paper_corpus)
from repro.workloads.kernels import daxpy as daxpy_example

__version__ = "1.0.0"

__all__ = [
    "Ddg", "DepKind", "FuType", "LoopBuilder", "Opcode", "Operation",
    "insert_copies", "select_unroll_factor", "unroll", "validate_ddg",
    "ClusteredMachine", "Machine", "RfKind", "clustered_machine",
    "crf_machine", "make_clustered", "make_machine", "qrf_machine",
    "allocate_for_schedule", "allocate_queues", "q_compatible",
    "register_requirement",
    "ModuloSchedule", "PARTITIONERS", "SCHEDULERS", "SchedulingError",
    "mii", "mii_report", "modulo_schedule",
    "partitioned_schedule", "schedule_with_moves", "sms_schedule",
    "PipelineResult", "SimulationError", "run_pipeline", "simulate",
    "KERNELS", "SynthConfig", "all_kernels", "bench_corpus",
    "corpus_stats", "kernel", "paper_corpus", "daxpy_example",
    "__version__",
]
