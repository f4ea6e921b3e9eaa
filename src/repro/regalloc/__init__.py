"""Register allocation: queue allocation (QRF) and conventional-RF bounds."""

from .conventional import (RegisterFileReport, port_requirement,
                           register_requirement)
from .lifetimes import (Lifetime, Location, LocationKind, extract_lifetimes,
                        location_of_edge, max_live, merged_value_lifetimes,
                        steady_state_occupancy)
from .rotating import (MveReport, mve_register_requirement,
                       mve_unroll_factor, rotating_register_requirement)
from .spill import (SpillReport, allocate_with_budget, spill_cost_cycles,
                    spill_summary)
from .queues import (QueueAllocation, ScheduleQueueUsage, allocate_queues,
                     allocate_for_schedule, fifo_order_consistent,
                     q_compatible, queue_depth)

__all__ = [
    "RegisterFileReport", "port_requirement", "register_requirement",
    "Lifetime", "Location", "LocationKind", "extract_lifetimes",
    "location_of_edge", "max_live", "merged_value_lifetimes",
    "steady_state_occupancy",
    "MveReport", "mve_register_requirement", "mve_unroll_factor",
    "rotating_register_requirement",
    "SpillReport", "allocate_with_budget", "spill_cost_cycles",
    "spill_summary",
    "QueueAllocation", "ScheduleQueueUsage", "allocate_queues",
    "allocate_for_schedule", "fifo_order_consistent", "q_compatible",
    "queue_depth",
]
