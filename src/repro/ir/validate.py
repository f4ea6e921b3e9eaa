"""Structural validation of loop DDGs.

Run before scheduling: catches malformed graphs early with readable errors
instead of deep scheduler failures.  Every workload generator and transform
output is validated in tests.
"""

from __future__ import annotations

from repro.machine.resources import POOL_ID_FOR

from .ddg import Ddg
from .operations import FuType


class DdgValidationError(ValueError):
    """Raised when a DDG violates a structural invariant."""


def validate_ddg(ddg: Ddg, *, require_schedulable: bool = True,
                 max_copy_reads: int = 1,
                 max_copy_writes: int = 2) -> None:
    """Check structural invariants; raise :class:`DdgValidationError`.

    Invariants checked:

    1. every edge endpoint exists and self-DATA edges have distance >= 1;
    2. DATA edges start at value producers, with latency == producer latency;
    3. no zero-distance dependence cycle (otherwise no schedule exists);
    4. COPY ops read exactly ``max_copy_reads`` values and have at most
       ``max_copy_writes`` consumers (the hardware reads 1 queue, writes 2);
    5. MOVE ops have exactly one producer and one consumer;
    6. non-negative distances/latencies (enforced by dataclasses, re-checked).

    A *pass* is memoised on the DDG's structural cache (sweeps validate
    the same work graph once per machine; any mutation invalidates the
    stamp and the next call re-checks).  Failures are never cached.
    """
    memo_key = ("validated", require_schedulable, max_copy_reads,
                max_copy_writes)
    if ddg._edge_cache.get(memo_key):
        return
    problems: list[str] = []
    arr = ddg.arrays()
    ids = arr.ids
    latency = arr.latency
    produces = arr.produces

    # edge invariants on the flat CSR (out-edge order == Ddg.edges order)
    for i in range(arr.n):
        for j in range(arr.out_ptr[i], arr.out_ptr[i + 1]):
            d = arr.out_dst[j]
            if d == i and arr.out_dist[j] == 0:
                problems.append(
                    f"zero-distance self edge on {ddg.op(ids[i]).name}")
            if arr.out_data[j]:
                if not produces[i]:
                    problems.append(
                        f"DATA edge from non-producer "
                        f"{ddg.op(ids[i]).name}")
                elif arr.out_lat[j] != latency[i]:
                    problems.append(
                        f"DATA edge {ddg.op(ids[i]).name}->"
                        f"{ddg.op(ids[d]).name} latency {arr.out_lat[j]} "
                        f"!= producer latency {latency[i]}")

    if require_schedulable and arr.has_zero_distance_cycle():
        problems.append("zero-distance dependence cycle (unschedulable)")

    # copy/move port discipline from the CSR DATA flags
    for i in range(arr.n):
        op = None
        pool = arr.pool[i]
        if pool != _COPY_POOL:
            continue
        op = ddg.op(ids[i])
        n_reads = sum(arr.in_data[j] for j in
                      range(arr.in_ptr[i], arr.in_ptr[i + 1]))
        n_writes = sum(arr.out_data[j] for j in
                       range(arr.out_ptr[i], arr.out_ptr[i + 1]))
        if op.is_copy:
            if n_reads != max_copy_reads:
                problems.append(
                    f"copy {op.name} reads {n_reads} values "
                    f"(hardware reads {max_copy_reads})")
            if n_writes > max_copy_writes:
                problems.append(
                    f"copy {op.name} feeds {n_writes} consumers "
                    f"(hardware writes {max_copy_writes})")
            if n_writes == 0:
                problems.append(f"copy {op.name} is dead")
        if op.is_move:
            if n_reads != 1 or n_writes != 1:
                problems.append(
                    f"move {op.name} must have exactly 1 producer and "
                    f"1 consumer")

    if problems:
        raise DdgValidationError(
            f"DDG {ddg.name!r} invalid:\n  " + "\n  ".join(problems))
    ddg._edge_cache[memo_key] = True


#: COPY and MOVE ops both map to the copy pool -- the only pool whose ops
#: carry port-discipline invariants.
_COPY_POOL = POOL_ID_FOR[FuType.COPY]


def is_valid(ddg: Ddg, **kwargs: object) -> bool:
    """Boolean convenience wrapper around :func:`validate_ddg`."""
    try:
        validate_ddg(ddg, **kwargs)
        return True
    except DdgValidationError:
        return False
