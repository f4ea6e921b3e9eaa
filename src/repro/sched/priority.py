"""Scheduling priority: height-based ordering (Rau's IMS).

The height of an op at a given II is the longest-path slack it imposes on
the rest of the loop::

    H(op) = max(0, max over out-edges e: H(dst(e)) + lat(e) - d(e) * II)

Loop-carried edges participate with their ``-d * II`` credit; at any
``II >= RecMII`` no positive cycle exists, so the fixed point is finite and
a Bellman-Ford style relaxation converges in at most ``|V|`` passes.

Ops are scheduled highest-height first (ties broken by op id for
determinism).  The relaxation runs on the packed edge arrays of
:class:`~repro.ir.ddgarrays.DdgArrays` -- one flat pass per iteration, no
edge objects.
"""

from __future__ import annotations

from repro.ir.ddg import Ddg
from repro.ir.ddgarrays import DdgArrays
from repro.kernels import heights as _relax_heights


def heights_list(arr: DdgArrays, ii: int) -> list[int]:
    """Height per op *index* at initiation interval *ii* (packed form).

    Raises ``ValueError`` if *ii* is below RecMII (a positive cycle makes
    heights diverge).  The relaxation is :func:`repro.kernels.heights`.
    Memoised per (lowering, II) on ``arr.ii_cache`` (every II driver
    probes the same points across machines); callers treat the returned
    list as immutable.
    """
    if ii < 1:
        raise ValueError("II must be >= 1")
    cached = arr.ii_cache.get(("heights", ii))
    if cached is not None:
        return cached
    h = _relax_heights(arr, ii)
    if h is None:
        raise ValueError(
            f"heights diverge at II={ii}: positive dependence cycle "
            f"(II below RecMII?)")
    arr.ii_cache[("heights", ii)] = h
    return h


def heights(ddg: Ddg, ii: int) -> dict[int, int]:
    """Height of every op (keyed by op id) at initiation interval *ii*."""
    arr = ddg.arrays()
    h = heights_list(arr, ii)
    return dict(zip(arr.ids, h))


def priority_order_idx(arr: DdgArrays, ii: int) -> list[int]:
    """Op *indices* in scheduling order: decreasing height, then
    increasing op id (ids ascend with index, so index breaks the tie).
    Memoised beside :func:`heights_list`; callers must not mutate the
    returned list."""
    cached = arr.ii_cache.get(("prio", ii))
    if cached is not None:
        return cached
    h = heights_list(arr, ii)
    order = sorted(range(arr.n), key=lambda i: (-h[i], i))
    arr.ii_cache[("prio", ii)] = order
    return order


def priority_order(ddg: Ddg, ii: int) -> list[int]:
    """Op ids in scheduling order: decreasing height, then increasing id."""
    arr = ddg.arrays()
    ids = arr.ids
    return [ids[i] for i in priority_order_idx(arr, ii)]


def highest_priority(unscheduled: set[int], order: list[int]) -> int:
    """First op of *order* present in *unscheduled*."""
    for op_id in order:
        if op_id in unscheduled:
            return op_id
    raise ValueError("no unscheduled op left")
