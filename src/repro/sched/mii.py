"""Lower bounds on the initiation interval (MII).

``MII = max(ResMII, RecMII)`` (Rau, *Iterative Modulo Scheduling*, 1996):

* **ResMII** -- resource bound: some FU class must issue ``n_t`` ops every
  II cycles on ``f_t`` units, so ``II >= ceil(n_t / f_t)``.
* **RecMII** -- recurrence bound: every dependence cycle *c* must satisfy
  ``II * distance(c) >= latency(c)``, so ``II >= max_c lat(c)/dist(c)``.

RecMII is computed exactly by binary search over integer II with a
Bellman-Ford positive-cycle test on edge weights ``lat - II * dist`` (a
positive cycle means some recurrence cannot fit in II cycles).  The
fractional bound :func:`max_cycle_ratio` (used by the unroll heuristic,
since unrolling cannot beat it) uses the same test over rational II.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from repro.ir.ddg import Ddg
from repro.ir.operations import FuType
from repro.kernels import cycle_tester


class _HasCapacity(Protocol):  # Machine or ClusteredMachine
    def capacity(self, fu_type: FuType) -> int: ...


def res_mii(ddg: Ddg, machine: _HasCapacity) -> int:
    """Resource-constrained lower bound on II."""
    bound = 1
    for fu_type, demand in ddg.fu_demand().items():
        cap = machine.capacity(fu_type)
        if cap <= 0:
            if demand > 0:
                raise ValueError(
                    f"loop {ddg.name!r} needs {fu_type.value} units the "
                    f"machine does not have")
            continue
        bound = max(bound, -(-demand // cap))
    return bound


def _cycle_edges(ddg: Ddg) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Node count + index-mapped edges of the *cycle-restricted* subgraph.

    A positive cycle can only use edges inside one strongly connected
    component, so the binary searches below run their Bellman-Ford passes
    on the packed recurrence subgraph of
    :class:`~repro.ir.ddgarrays.DdgArrays` -- usually a few ops -- rather
    than the whole loop body.
    """
    arr = ddg.arrays()
    return arr.cyc_n, arr.cyc_edges


def rec_mii(ddg: Ddg) -> int:
    """Recurrence-constrained lower bound on II (exact, integer).

    Memoised on the DDG's structural cache: schedulers, the pipeline and
    the II drivers all ask for the same bound on the same (immutable
    while scheduling) graph, and any mutation invalidates the cache.
    """
    cached = ddg._edge_cache.get("rec_mii")
    if cached is not None:
        return cached
    n, edges = _cycle_edges(ddg)
    if not edges:
        ddg._edge_cache["rec_mii"] = 1
        return 1
    # one tester serves every probe of the bisection
    positive = cycle_tester(n, edges)
    # at II > sum of latencies only a zero-distance cycle can stay positive,
    # and such a loop is unschedulable at any II
    if positive(ddg.sum_latency() + 1.0):
        raise ValueError(
            f"loop {ddg.name!r} has a zero-distance dependence cycle")
    lo, hi = 1, max(1, ddg.sum_latency())
    if positive(lo):
        while lo < hi:
            mid = (lo + hi) // 2
            if positive(mid):
                lo = mid + 1
            else:
                hi = mid
    ddg._edge_cache["rec_mii"] = lo
    return lo


def max_cycle_ratio(ddg: Ddg, *, tol: float = 1e-6) -> float:
    """Exact recurrence bound ``max_c lat(c)/dist(c)`` as a float.

    Returns 0.0 for acyclic loops.  Binary search with the positive-cycle
    test down to an interval no wider than *tol*, then the interval
    **midpoint**: the result is within ``tol / 2`` of the true maximum
    ratio (returning the upper bisection bound, as this function once
    did, biases the estimate high by up to a full *tol*).
    """
    cache_key = ("max_cycle_ratio", tol)
    cached = ddg._edge_cache.get(cache_key)
    if cached is not None:
        return cached
    n, edges = _cycle_edges(ddg)
    if not edges:
        return 0.0
    positive = cycle_tester(n, edges)
    if not positive(0.0 + 1e-9):
        # even at ii ~ 0 nothing is positive -> no cycles with latency
        ddg._edge_cache[cache_key] = 0.0
        return 0.0
    # the true ratio r satisfies rec_mii - 1 < r <= rec_mii (RecMII is its
    # ceiling), so the bisection starts on a unit-wide interval
    rec = rec_mii(ddg)
    lo, hi = float(rec - 1), float(rec)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if positive(mid):
            lo = mid
        else:
            hi = mid
    result = (lo + hi) / 2
    ddg._edge_cache[cache_key] = result
    return result


@dataclass(frozen=True)
class MiiReport:
    """Both bounds plus the binding one."""

    res: int
    rec: int

    @property
    def mii(self) -> int:
        return max(self.res, self.rec)

    @property
    def resource_constrained(self) -> bool:
        """Paper Fig. 9 filter: the machine, not the recurrences, limits
        the loop (``ResMII >= RecMII``)."""
        return self.res >= self.rec


def mii_report(ddg: Ddg, machine: _HasCapacity) -> MiiReport:
    return MiiReport(res=res_mii(ddg, machine), rec=rec_mii(ddg))


def mii(ddg: Ddg, machine: _HasCapacity) -> int:
    """``max(ResMII, RecMII)``."""
    return mii_report(ddg, machine).mii


def theoretical_ipc_bound(ddg: Ddg, machine: _HasCapacity) -> float:
    """Best achievable kernel IPC: ``n_ops / MII``."""
    return ddg.n_ops / mii(ddg, machine)
