"""Loop unrolling (Section 3 of the paper).

Unrolling replicates the loop body ``U`` times so that one kernel iteration
of the software pipeline executes ``U`` original iterations.  This recovers
the integer-rounding loss of the initiation interval: a loop with fractional
resource bound ``resfrac = 1.5`` on some FU class needs ``II = 2`` alone but
``II = 3`` for two iterations when unrolled twice -- an
``II_speedup = 2/1.5 = 1.33``.

Dependence re-mapping: original iteration ``i`` becomes kernel iteration
``i // U``, unroll copy ``i % U``.  An edge ``src -> dst`` with distance
``d`` therefore becomes, for every copy ``u``, an edge from copy ``u`` of
``src`` to copy ``(u + d) % U`` of ``dst`` with kernel distance
``(u + d) // U``.

The unroll-factor heuristic follows the spirit of Lavery & Hwu [13] (the
paper cites it without details): pick the smallest ``U`` minimising the
estimated per-original-iteration initiation interval

``II_est(U) = max(ceil(U * resfrac), U * recfrac) / U``

where ``recfrac`` is the exact maximum cycle ratio (recurrences gain nothing
from unrolling, so only the resource term improves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .ddg import Ddg, keyed_rows
from .operations import FuType

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine


def unroll(ddg: Ddg, factor: int, *, name: Optional[str] = None) -> Ddg:
    """Return *ddg* unrolled ``factor`` times.

    ``factor == 1`` returns a plain copy.  Op names get an ``.u<k>`` suffix
    for copies ``k >= 1``; ``unroll_index`` and ``origin`` record provenance.
    Copy ``u`` of the op at position ``p`` (in id order) gets id
    ``u * n_ops + p``; parallel edges are keyed in emission order:
    source edge order, then copy.
    """
    if factor < 1:
        raise ValueError("unroll factor must be >= 1")
    if factor == 1:
        return ddg.copy(name or ddg.name)

    src_ops = ddg.operations
    n = len(src_ops)
    ops = [op.with_id(u * n + p, unroll_index=u,
                      name=f"{op.name}.u{u}" if u else op.name)
           for u in range(factor) for p, op in enumerate(src_ops)]
    pos = {op.op_id: p for p, op in enumerate(src_ops)}
    rows = []
    seq = 0
    for s, d, _key, lat, dist, kind in ddg.edge_rows():
        ps, pd = pos[s], pos[d]
        for u in range(factor):
            v = u + dist
            rows.append((u * n + ps, v % factor * n + pd, seq, lat,
                         v // factor, kind))
            seq += 1
    return Ddg.from_table(name or f"{ddg.name}.x{factor}", ddg.trip_count,
                          ops, keyed_rows(rows))


@dataclass(frozen=True)
class UnrollChoice:
    """Outcome of the unroll-factor heuristic."""

    factor: int
    estimated_ii_per_iteration: float
    res_frac: float
    rec_frac: float

    @property
    def expected_gain(self) -> float:
        """Estimated II_speedup over not unrolling."""
        base = max(math.ceil(self.res_frac), math.ceil(self.rec_frac), 1)
        return base / self.estimated_ii_per_iteration


def resource_fraction(ddg: Ddg, fu_counts: dict[FuType, int]) -> float:
    """Fractional resource bound ``max_t n_t / f_t`` (before ceiling)."""
    frac = 0.0
    for fu_type, demand in ddg.fu_demand().items():
        avail = fu_counts.get(fu_type, 0)
        if avail == 0:
            raise ValueError(f"machine has no {fu_type.value} unit but the "
                             f"loop needs {demand}")
        frac = max(frac, demand / avail)
    return frac


def select_unroll_factor(ddg: Ddg, fu_counts: dict[FuType, int], *,
                         max_factor: int = 8,
                         max_ops: int = 256) -> UnrollChoice:
    """Choose an unroll factor for *ddg* on a machine with *fu_counts*.

    Scans ``U = 1..max_factor`` (bounded so the unrolled body stays under
    *max_ops* operations), estimating the per-original-iteration II, and
    returns the smallest ``U`` achieving the minimum (ties favour less code
    growth).  A loop dominated by recurrences gets ``U = 1``.
    """
    from repro.sched.mii import max_cycle_ratio  # local: avoid import cycle

    if max_factor < 1:
        raise ValueError("max_factor must be >= 1")
    res_frac = resource_fraction(ddg, fu_counts)
    rec_frac = max_cycle_ratio(ddg)

    best_u, best_est = 1, float("inf")
    for u in range(1, max_factor + 1):
        if u > 1 and u * ddg.n_ops > max_ops:
            break
        est = max(math.ceil(u * res_frac - 1e-9), 1, math.ceil(
            u * rec_frac - 1e-9)) / u
        if est < best_est - 1e-12:
            best_u, best_est = u, est
    return UnrollChoice(best_u, best_est, res_frac, rec_frac)


def ii_speedup(ii_original: int, ii_unrolled: int, factor: int) -> float:
    """Paper Eq. (1), normalised per original iteration.

    ``II_speedup = II_original / (II_unrolled / U)`` -- the unrolled kernel
    initiates ``U`` original iterations every ``II_unrolled`` cycles.
    """
    if ii_original < 1 or ii_unrolled < 1 or factor < 1:
        raise ValueError("II values and factor must be >= 1")
    return ii_original / (ii_unrolled / factor)
