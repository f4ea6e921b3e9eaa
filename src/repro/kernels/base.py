"""Kernel backend interface and the pure-Python reference implementation.

A *kernel backend* supplies the repo's hot primitives -- the inner loops
that execute once per edge, per row or per candidate during scheduling:

* the Bellman-Ford family (positive-cycle tests for RecMII /
  ``max_cycle_ratio``, height and earliest-start longest paths);
* the schedule audit (dependence and modulo-capacity checks of
  :meth:`repro.sched.schedule.ModuloSchedule.validate`);
* :class:`~repro.sched.mrt.PackedMRT` bulk operations (vectorised
  reset, batched ``can_place`` / ``first_free`` probes);
* the slot-search placement round (predecessor-arrival gather+max).

Two implementations exist: :class:`PythonBackend` (this module; plain
bytecode over ``array('i')``/lists -- always present, always the
fallback) and :class:`repro.kernels.npbackend.NumpyBackend` (whole-array
NumPy operations).  Backends are **decision-identical by contract**:
every primitive returns bit-identical results on both, so schedules,
golden fixtures and cache keys never depend on the selection (which is
why the backend is stamped into BENCH provenance and ``/metrics`` but
*not* into job fingerprints).

Batching floors (``*_batch_min`` / ``reset_bulk_min``) let a backend
decline tiny inputs: callers keep their inline scalar loops below the
floor and delegate above it.  The floors are pure performance tuning --
results are identical on either side -- so the reference backend simply
sets them to "never".

This module imports nothing from ``repro.ir``/``repro.sched`` (the
callers pass packed arrays in), so the kernel layer sits below every
scheduling layer and cannot create import cycles.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, Sequence

#: Floor value meaning "never take the batched path".
NEVER = sys.maxsize

#: Tolerance of the positive-cycle test.  Probe IIs are dyadic rationals
#: with small denominators (integers from the RecMII bisection, unit
#: -interval midpoints from ``max_cycle_ratio``), so every relaxation
#: value is exact in float64 and any true update exceeds ``EPS`` by
#: orders of magnitude -- the tolerance only guards exactly-zero cycles.
EPS = 1e-9


class KernelBackend:
    """Interface + pure-Python reference implementation of the hot
    primitives.  Subclasses override what they accelerate; semantics
    (including tie-breaks and divergence criteria) must match exactly.
    """

    name: str = "python"
    description: str = ("pure-Python loops over packed array('i')/list "
                        "state (always available; the reference "
                        "implementation every backend must match)")

    #: In-degree floor above which the slot-search / IMS earliest-start
    #: computation is delegated to :meth:`pred_arrivals_round` /
    #: :meth:`estart`.
    arrival_batch_min: int = NEVER
    #: Candidate-cluster floor above which the slot search batches its
    #: ``first_free`` probes through :meth:`first_free_batch`.
    probe_batch_min: int = NEVER
    #: Touched-placement floor above which ``PackedMRT.reset`` zeroes the
    #: whole count vector in one sweep instead of per touched slot.
    reset_bulk_min: int = NEVER

    # ------------------------------------------------------------ meta

    @classmethod
    def available(cls) -> bool:
        return True

    def info(self) -> dict:
        """Description record for ``repro-vliw kernels`` / telemetry."""
        return {"name": self.name, "description": self.description,
                "available": type(self).available()}

    # ----------------------------------------------- Bellman-Ford family

    def cycle_tester(self, n: int,
                     edges: Sequence[tuple[int, int, int, int]],
                     ) -> Callable[[float], bool]:
        """``test(ii) -> bool``: does any cycle of the index-mapped
        *edges* satisfy ``sum(lat) - ii * sum(dist) > EPS``?  The closure
        is created once per bisection (RecMII / ``max_cycle_ratio``) so
        backends can hoist per-graph setup out of the probe loop."""

        def test(ii: float) -> bool:
            weighted = [(s, d, lat - ii * dd) for s, d, lat, dd in edges]
            dist = [0.0] * n
            for _ in range(n):
                changed = False
                for s, d, w in weighted:
                    cand = dist[s] + w
                    if cand > dist[d] + EPS:
                        dist[d] = cand
                        changed = True
                if not changed:
                    return False
            return True  # still relaxing after |V| passes -> positive cycle

        return test

    def positive_cycle(self, n: int,
                       edges: Sequence[tuple[int, int, int, int]],
                       ii: float) -> bool:
        """One-shot positive-cycle test (see :meth:`cycle_tester`)."""
        return self.cycle_tester(n, edges)(ii)

    def heights(self, arr, ii: int) -> Optional[list]:
        """Height per op index at *ii* (Rau priority), or ``None`` if the
        relaxation still changes after ``n + 1`` passes (positive cycle).

        ``H(op) = max(0, max over out-edges: H(dst) + lat - d * II)`` --
        the unique least fixed point >= 0, so relaxation order cannot
        change the result.
        """
        h = [0] * arr.n
        # heights flow from consumers to producers, so sweeping the edges
        # in reverse (src, dst) order converges in a pass or two on a
        # body whose ids follow its dataflow
        edges = list(zip(arr.e_src, arr.e_dst,
                         [lat - dist * ii
                          for lat, dist in zip(arr.e_lat, arr.e_dist)]))
        edges.reverse()
        for _ in range(arr.n + 1):
            changed = False
            for s, d, wt in edges:
                cand = h[d] + wt
                if cand > h[s]:
                    h[s] = cand
                    changed = True
            if not changed:
                return h
        return None

    def earliest_starts(self, arr, ii: int) -> Optional[list]:
        """Longest-path earliest start per op index at *ii* (SMS bounds),
        or ``None`` on divergence.  Mirror image of :meth:`heights`
        (relaxes destinations from sources)."""
        e = [0] * arr.n
        e_src, e_dst = arr.e_src, arr.e_dst
        w = [lat - dist * ii for lat, dist in zip(arr.e_lat, arr.e_dist)]
        for _ in range(arr.n + 1):
            changed = False
            for src, dst, wt in zip(e_src, e_dst, w):
                cand = e[src] + wt
                if cand > e[dst]:
                    e[dst] = cand
                    changed = True
            if not changed:
                return e
        return None

    def zero_heights(self, arr) -> list:
        """Longest downstream path per op index over **distance-0** edges
        (the copy inserter's criticality weight).  The distance-0
        subgraph of any valid loop is acyclic, so ``n + 1`` passes always
        converge; integer max-plus relaxation from zero has a unique
        fixed point, so backends agree exactly."""
        h = [0] * arr.n
        zero = [(s, d, lat)
                for s, d, lat, dist in zip(arr.e_src, arr.e_dst,
                                           arr.e_lat, arr.e_dist)
                if dist == 0]
        zero.reverse()   # see heights(): consumers first
        for _ in range(arr.n + 1):
            changed = False
            for s, d, lat in zero:
                cand = h[d] + lat
                if cand > h[s]:
                    h[s] = cand
                    changed = True
            if not changed:
                break
        return h

    # ------------------------------------------------------ schedule audit

    def dependence_clean(self, arr, sig: Sequence[int], ii: int) -> bool:
        """Fast boolean dependence audit: every edge satisfied?

        Callers guarantee every entry of *sig* is ``>= 0`` (fully
        scheduled); on ``False`` they re-run the diagnostic loop that
        names the offending edges.
        """
        for s, d, lat, dd in zip(arr.e_src, arr.e_dst, arr.e_lat,
                                 arr.e_dist):
            if sig[d] + dd * ii - sig[s] - lat < 0:
                return False
        return True

    def capacity_clean(self, pool: Sequence[int], sig: Sequence[int],
                       cl: Sequence[int], ii: int,
                       caps: Sequence[int]) -> bool:
        """Fast boolean modulo-capacity audit: no (cluster, pool, row)
        over its capacity?  Entries with ``sig < 0`` are skipped (matches
        the diagnostic path)."""
        n_pools = len(caps)
        counts: dict[int, int] = {}
        for i, t in enumerate(sig):
            if t < 0:
                continue
            p = pool[i]
            key = (cl[i] * n_pools + p) * ii + t % ii
            c = counts.get(key, 0) + 1
            if c > caps[p]:
                return False
            counts[key] = c
        return True

    # ------------------------------------------------------------ MRT bulk

    def zero_counts(self, mrt) -> None:
        """Zero the MRT's whole row-count vector in one sweep (the bulk
        half of ``PackedMRT.reset``; occupant lists stay the caller's
        job)."""
        counts = mrt._counts
        for k in range(len(counts)):
            counts[k] = 0

    def can_place_batch(self, mrt, pool: int,
                        times: Sequence[int]) -> list:
        """``[mrt.can_place(pool, t) for t in times]`` as one bulk probe."""
        ii = mrt.ii
        cap = mrt.caps[pool]
        counts = mrt._counts
        base = pool * ii
        return [counts[base + t % ii] < cap for t in times]

    def first_free_batch(self, mrts: Sequence, pool: int,
                         ests: Sequence[int]) -> list:
        """``[m.first_free(pool, e) for m, e in zip(mrts, ests)]`` as one
        bulk probe across clusters (one est per table)."""
        return [m.first_free(pool, e) for m, e in zip(mrts, ests)]

    # ------------------------------------------------- slot-search round

    def pred_arrivals_round(self, arr, i: int, sig: Sequence[int],
                            cl: Sequence[int], ii: int, xlat: int,
                            ) -> tuple[list, bool, Optional[int]]:
        """``(arrivals, uniform, uniform_est)`` of one placement round:
        per scheduled predecessor edge ``(sig + lat - d * II, cluster)``
        with cluster ``-1`` when no cross-cluster copy latency applies.
        ``uniform_est`` is the shared earliest start when no term depends
        on the candidate cluster (``uniform``), else ``None``."""
        arrivals: list[tuple[int, int]] = []
        uniform = True
        in_src, in_lat = arr.in_src, arr.in_lat
        in_dist, in_data = arr.in_dist, arr.in_data
        for j in range(arr.in_ptr[i], arr.in_ptr[i + 1]):
            s = in_src[j]
            t = sig[s]
            if t < 0:
                continue
            base = t + in_lat[j] - in_dist[j] * ii
            if xlat and in_data[j]:
                arrivals.append((base, cl[s]))
                uniform = False
            else:
                arrivals.append((base, -1))
        if not uniform:
            return arrivals, False, None
        est0 = 0
        for base, _sc in arrivals:
            if base > est0:
                est0 = base
        return arrivals, True, est0

    def estart(self, arr, i: int, sig: Sequence[int], ii: int) -> int:
        """Single-cluster earliest start of op *i* given partial *sig*
        (IMS inner loop): ``max(0, max_p sig[p] + lat - d * II)``."""
        est = 0
        in_src, in_lat, in_dist = arr.in_src, arr.in_lat, arr.in_dist
        for j in range(arr.in_ptr[i], arr.in_ptr[i + 1]):
            t = sig[in_src[j]]
            if t >= 0:
                cand = t + in_lat[j] - in_dist[j] * ii
                if cand > est:
                    est = cand
        return est
