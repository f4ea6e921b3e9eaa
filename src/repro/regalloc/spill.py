"""Spill analysis for finite queue files.

Section 4: "Of course, in a practical system spill code will occasionally
be required to deal with finite numbers of queues and queue positions."
This module quantifies that occasionally: given the hardware budget
(queues per location, positions per queue -- Fig. 7), it allocates
greedily under the budget and reports which lifetimes would have to be
spilled through memory instead.

A spilled lifetime costs a store and a load (its value makes a round trip
through memory); :func:`spill_cost_cycles` estimates the extra latency a
naive spill would add so experiments can report the performance price of
smaller queue files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.ir.operations import Opcode

from .lifetimes import Lifetime, Location, LocationKind, max_live
from .queues import q_compatible


@dataclass
class SpillReport:
    """Outcome of budget-constrained allocation for one location."""

    location: Location
    ii: int
    max_queues: int
    max_positions: int
    queues: list[list[Lifetime]] = field(default_factory=list)
    spilled: list[Lifetime] = field(default_factory=list)

    @property
    def n_spilled(self) -> int:
        return len(self.spilled)

    @property
    def n_queues(self) -> int:
        return len(self.queues)

    @property
    def fits(self) -> bool:
        return not self.spilled


def allocate_with_budget(lifetimes: Iterable[Lifetime], ii: int, *,
                         max_queues: int, max_positions: int,
                         location: Optional[Location] = None
                         ) -> SpillReport:
    """First-fit allocation under a hardware budget.

    A lifetime joins the first queue where (a) it is Q-compatible with
    every resident and (b) the queue's required positions stay within
    *max_positions*; when no queue admits it and all *max_queues* are
    open, the lifetime is spilled.  Long lifetimes are considered first
    (they are the hardest to place and the cheapest to spill per cycle
    covered).
    """
    if max_queues < 0 or max_positions < 1:
        raise ValueError("budget must be non-negative / positive")
    loc = location or Location(LocationKind.PRIVATE, 0)
    report = SpillReport(location=loc, ii=ii, max_queues=max_queues,
                         max_positions=max_positions)
    ordered = sorted(
        lifetimes,
        key=lambda lt: (lt.start, lt.length, lt.producer, lt.consumer,
                        lt.edge_key))
    for lt in ordered:
        placed = False
        for q in report.queues:
            if all(q_compatible(lt, other, ii) for other in q) and \
                    max_live(q + [lt], ii) <= max_positions:
                q.append(lt)
                placed = True
                break
        if not placed and len(report.queues) < max_queues:
            if max_live([lt], ii) <= max_positions:
                report.queues.append([lt])
                placed = True
        if not placed:
            report.spilled.append(lt)
    return report


def spill_cost_cycles(report: SpillReport) -> int:
    """Crude extra-latency estimate of the spills: each spilled value
    makes a store + load round trip through memory."""
    per_spill = (Opcode.STORE.default_latency
                 + Opcode.LOAD.default_latency)
    return report.n_spilled * per_spill


def spill_summary(reports: Iterable[SpillReport]) -> tuple[int, int]:
    """(total lifetimes spilled, total queues used) across locations."""
    spilled = queues = 0
    for rep in reports:
        spilled += rep.n_spilled
        queues += rep.n_queues
    return spilled, queues
