"""Scalar inner loops shared by the schedulers.

These are the loops that run once per edge or per op during scheduling:

* the max-plus relaxations -- the positive-cycle test behind RecMII and
  ``max_cycle_ratio`` (:func:`cycle_tester`), Rau heights
  (:func:`heights`), SMS earliest starts (:func:`earliest_starts`) and
  the copy inserter's distance-0 heights (:func:`zero_heights`);
* the boolean schedule audits of
  :meth:`repro.sched.schedule.ModuloSchedule.validate`
  (:func:`dependence_clean`, :func:`capacity_clean`).

Callers pass packed arrays in (a :class:`~repro.ir.ddgarrays.DdgArrays`
or plain sequences), so this module imports nothing from ``repro.ir`` or
``repro.sched`` and sits below every scheduling layer without import
cycles.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

#: Tolerance of the positive-cycle test.  Probe IIs are dyadic rationals
#: with small denominators (integers from the RecMII bisection, unit
#: -interval midpoints from ``max_cycle_ratio``), so every relaxation
#: value is exact in float64 and any true update exceeds ``EPS`` by
#: orders of magnitude -- the tolerance only guards exactly-zero cycles.
EPS = 1e-9


def active_name() -> str:
    """Name of the kernel implementation (``/healthz`` and perfbench
    provenance read it); there is one, the Python loops below."""
    return "python"


# --------------------------------------------------- Bellman-Ford family

def cycle_tester(n: int, edges: Sequence[tuple[int, int, int, int]],
                 ) -> Callable[[float], bool]:
    """``test(ii) -> bool``: does any cycle of the index-mapped *edges*
    ``(src, dst, lat, dist)`` satisfy ``sum(lat) - ii * sum(dist) >
    EPS``?  One closure serves every probe of a bisection (RecMII /
    ``max_cycle_ratio``)."""

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


def heights(arr, ii: int) -> Optional[list]:
    """Height per op index at *ii* (Rau priority), or ``None`` if the
    relaxation still changes after ``n + 1`` passes (positive cycle).

    ``H(op) = max(0, max over out-edges: H(dst) + lat - d * II)`` -- the
    unique least fixed point >= 0, so relaxation order cannot change the
    result.
    """
    h = [0] * arr.n
    # heights flow from consumers to producers, so sweeping the edges in
    # reverse (src, dst) order converges in a pass or two on a body whose
    # ids follow its dataflow
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


def earliest_starts(arr, ii: int) -> Optional[list]:
    """Longest-path earliest start per op index at *ii* (SMS bounds), or
    ``None`` on divergence.  Mirror image of :func:`heights` (relaxes
    destinations from sources)."""
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


def zero_heights(arr) -> list:
    """Longest downstream path per op index over **distance-0** edges
    (the copy inserter's criticality weight).  The distance-0 subgraph of
    any valid loop is acyclic, so ``n + 1`` passes always converge."""
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


# ------------------------------------------------------- schedule audit

def dependence_clean(arr, sig: Sequence[int], ii: int) -> bool:
    """Fast boolean dependence audit: every edge satisfied?

    Callers guarantee every entry of *sig* is ``>= 0`` (fully scheduled);
    on ``False`` they re-run the diagnostic loop that names the offending
    edges.
    """
    for s, d, lat, dd in zip(arr.e_src, arr.e_dst, arr.e_lat, arr.e_dist):
        if sig[d] + dd * ii - sig[s] - lat < 0:
            return False
    return True


def capacity_clean(pool: Sequence[int], sig: Sequence[int],
                   cl: Sequence[int], ii: int,
                   caps: Sequence[int]) -> bool:
    """Fast boolean modulo-capacity audit: no (cluster, pool, row) over
    its capacity?  Entries with ``sig < 0`` are skipped (matches the
    diagnostic path)."""
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
