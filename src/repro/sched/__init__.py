"""Modulo scheduling: MII bounds, pluggable single-cluster engines
(IMS, SMS), and the pluggable cluster-partitioner registry (affinity,
balance, first, random, agglomerative)."""

from .arena import SchedArena, arena_counters, global_arena
from .iisearch import search_ii
from .ims import (DEFAULT_BUDGET_RATIO, ImsConfig, modulo_schedule,
                  try_schedule_at_ii)
from .strategies import (DEFAULT_SCHEDULER, SchedulerResult,
                         SchedulerStrategy, SmsConfig, available_schedulers,
                         get_scheduler, register_scheduler,
                         scheduler_descriptions, sms_schedule)
from .mii import (MiiReport, max_cycle_ratio, mii, mii_report, rec_mii,
                  res_mii, theoretical_ipc_bound)
from .mrt import ModuloReservationTable, Placement
from .partition import (MoveScheduleResult, PartitionConfig, insert_moves,
                        partitioned_schedule, schedule_with_moves)
from .partitioners import (DEFAULT_PARTITIONER, Partitioner,
                           PartitionState, available_partitioners,
                           get_partitioner, partitioner_descriptions,
                           register_partitioner)
from .priority import heights, priority_order
from .schedule import (ModuloSchedule, ScheduleStats,
                       ScheduleValidationError, SchedulingError)

__all__ = [
    "SchedArena", "arena_counters", "global_arena",
    "search_ii",
    "DEFAULT_BUDGET_RATIO", "ImsConfig", "modulo_schedule",
    "try_schedule_at_ii",
    "DEFAULT_SCHEDULER", "SchedulerResult", "SchedulerStrategy",
    "SmsConfig", "available_schedulers", "get_scheduler",
    "register_scheduler", "scheduler_descriptions", "sms_schedule",
    "MiiReport", "max_cycle_ratio", "mii", "mii_report", "rec_mii",
    "res_mii", "theoretical_ipc_bound",
    "ModuloReservationTable", "Placement",
    "MoveScheduleResult", "PartitionConfig",
    "insert_moves", "partitioned_schedule", "schedule_with_moves",
    "DEFAULT_PARTITIONER", "Partitioner", "PartitionState",
    "available_partitioners", "get_partitioner",
    "partitioner_descriptions", "register_partitioner",
    "heights", "priority_order",
    "ModuloSchedule", "ScheduleStats", "ScheduleValidationError",
    "SchedulingError",
]
