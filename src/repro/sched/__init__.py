"""Modulo scheduling: MII bounds, the single-cluster engines
(``SCHEDULERS``: IMS, SMS) and the cluster-partitioning engines
(``PARTITIONERS``: affinity, agglomerative, balance, first, random)."""

from .arena import SchedArena, arena_counters, global_arena
from .iisearch import search_ii
from .ims import (DEFAULT_BUDGET_RATIO, ImsConfig, modulo_schedule,
                  try_schedule_at_ii)
from .strategies import (DEFAULT_SCHEDULER, SCHEDULERS, SmsConfig,
                         sms_schedule)
from .mii import (MiiReport, max_cycle_ratio, mii, mii_report, rec_mii,
                  res_mii, theoretical_ipc_bound)
from .mrt import ModuloReservationTable, Placement
from .partition import (MoveScheduleResult, PartitionConfig, insert_moves,
                        partitioned_schedule, schedule_with_moves)
from .partitioners import (DEFAULT_PARTITIONER, PARTITIONERS,
                           PartitionState)
from .priority import heights, priority_order
from .schedule import (ModuloSchedule, ScheduleStats,
                       ScheduleValidationError, SchedulingError,
                       check_engine)

__all__ = [
    "SchedArena", "arena_counters", "global_arena",
    "search_ii",
    "DEFAULT_BUDGET_RATIO", "ImsConfig", "modulo_schedule",
    "try_schedule_at_ii",
    "DEFAULT_SCHEDULER", "SCHEDULERS", "SmsConfig", "sms_schedule",
    "MiiReport", "max_cycle_ratio", "mii", "mii_report", "rec_mii",
    "res_mii", "theoretical_ipc_bound",
    "ModuloReservationTable", "Placement",
    "MoveScheduleResult", "PartitionConfig",
    "insert_moves", "partitioned_schedule", "schedule_with_moves",
    "DEFAULT_PARTITIONER", "PARTITIONERS", "PartitionState",
    "heights", "priority_order",
    "ModuloSchedule", "ScheduleStats", "ScheduleValidationError",
    "SchedulingError", "check_engine",
]
