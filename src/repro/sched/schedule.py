"""Modulo schedule result objects.

A :class:`ModuloSchedule` binds a loop DDG to issue times (``sigma``) and --
for clustered machines -- cluster assignments.  It knows how to re-derive
everything downstream analyses need: stage count, kernel occupancy, static
IPC, per-edge lifetimes, and it can *audit itself* against the dependence
and resource constraints (:meth:`validate`), which every scheduler test
exercises.  :func:`check_engine` is the one name check of the two engine
tables (``SCHEDULERS``, ``PARTITIONERS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Mapping, Optional, Sequence, TypeVar,
                    Union)

from repro.ir.ddg import Ddg, DepEdge, DepKind
from repro.ir.operations import FuType
from repro.kernels import capacity_clean, dependence_clean

from repro.machine.resources import HARDWARE_POOLS, POOL_IDS, pool_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import ClusteredMachine

_E = TypeVar("_E")


class SchedulingError(RuntimeError):
    """Raised when no schedule is found within the II / budget limits."""


def check_engine(table: Mapping[str, _E], kind: str, name: str) -> _E:
    """The engine *table* holds under *name* (a ``SCHEDULERS`` or
    ``PARTITIONERS`` entry).

    Raises ``KeyError`` naming the *kind* and listing the table's names,
    so a typo'd engine reads the same from the CLI, the service and a
    library call, before any scheduling work is spent.
    """
    if name not in table:
        raise KeyError(f"unknown {kind} {name!r}; available: "
                       f"{', '.join(table)}")
    return table[name]


class ScheduleValidationError(AssertionError):
    """Raised by :meth:`ModuloSchedule.validate` on a broken schedule."""


@dataclass
class ScheduleStats:
    """Bookkeeping of the search that produced a schedule."""

    mii: int = 0
    res_mii: int = 0
    rec_mii: int = 0
    attempts: int = 0          # placements performed (incl. re-placements)
    evictions: int = 0
    iis_tried: int = 0
    budget: int = 0


@dataclass
class ModuloSchedule:
    """An accepted modulo schedule.

    ``sigma[op_id]`` is the issue cycle of iteration 0; iteration *k*
    issues at ``sigma[op_id] + k * ii``.  ``cluster_of[op_id]`` is 0 for
    single-cluster machines.
    """

    ddg: Ddg
    ii: int
    sigma: dict[int, int]
    cluster_of: dict[int, int] = field(default_factory=dict)
    n_clusters: int = 1
    machine_name: str = ""
    stats: ScheduleStats = field(default_factory=ScheduleStats)

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise ValueError("II must be >= 1")
        if not self.cluster_of:
            self.cluster_of = {o: 0 for o in self.sigma}

    # ----------------------------------------------------------- queries

    def time_of(self, op_id: int) -> int:
        return self.sigma[op_id]

    def row_of(self, op_id: int) -> int:
        return self.sigma[op_id] % self.ii

    def stage_of(self, op_id: int) -> int:
        return self.sigma[op_id] // self.ii

    @property
    def max_time(self) -> int:
        return max(self.sigma.values(), default=0)

    @property
    def stage_count(self) -> int:
        """Number of pipeline stages (iterations concurrently in flight).

        ``SC = floor(max issue time / II) + 1`` -- determines prologue and
        epilogue length: total cycles for N iterations are
        ``(N + SC - 1) * II``.
        """
        return self.max_time // self.ii + 1

    @property
    def n_ops(self) -> int:
        return len(self.sigma)

    def static_ipc(self) -> float:
        """Kernel operations issued per cycle (paper's IPC_static)."""
        return self.n_ops / self.ii

    def cycles_for(self, iterations: int, *,
                   unroll_factor: int = 1) -> int:
        """Execution cycles for *iterations* original iterations, including
        prologue and epilogue (paper's dynamic model).

        If the scheduled body is an unrolled loop covering ``unroll_factor``
        original iterations per kernel iteration, the kernel runs
        ``ceil(iterations / unroll_factor)`` times.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if unroll_factor < 1:
            raise ValueError("unroll_factor must be >= 1")
        kernel_iters = -(-iterations // unroll_factor)
        return (kernel_iters + self.stage_count - 1) * self.ii

    def dynamic_ipc(self, iterations: Optional[int] = None, *,
                    unroll_factor: int = 1,
                    useful_ops_per_iteration: Optional[int] = None) -> float:
        """Operations per cycle over a whole loop execution
        (paper's IPC_dynamic; prologue/epilogue drag included).

        ``useful_ops_per_iteration`` lets callers count only source ops
        (excluding compiler-inserted copies) or count unrolled bodies per
        original iteration; defaults to this DDG's op count per kernel
        iteration.
        """
        iterations = iterations or self.ddg.trip_count
        kernel_iters = -(-iterations // unroll_factor)
        ops = (useful_ops_per_iteration * iterations
               if useful_ops_per_iteration is not None
               else self.n_ops * kernel_iters)
        return ops / self.cycles_for(iterations, unroll_factor=unroll_factor)

    # ------------------------------------------------------ lifetimes

    def value_write_time(self, op_id: int) -> int:
        """Cycle the op's result enters its register/queue (iteration 0)."""
        return self.sigma[op_id] + self.ddg.op(op_id).latency

    def value_read_time(self, edge: DepEdge) -> int:
        """Cycle the consumer of *edge* reads the iteration-0 value."""
        return self.sigma[edge.dst] + edge.distance * self.ii

    def edge_slack(self, edge: DepEdge) -> int:
        """Cycles between value availability and consumption (>= 0 iff the
        dependence is honoured)."""
        return (self.sigma[edge.dst] + edge.distance * self.ii
                - self.sigma[edge.src] - edge.latency)

    # ----------------------------------------------------- validation

    def validate(self, capacities: "Union[dict[FuType, int], Sequence[int], None]" = None,
                 *, adjacency: Optional["ClusteredMachine"] = None
                 ) -> None:
        """Audit the schedule; raise :class:`ScheduleValidationError`.

        Checks: every op scheduled exactly once at time >= 0; every
        dependence satisfied; (optionally) per-cluster modulo resource
        limits given per-cluster pool *capacities* (a FuType-keyed dict
        or a pre-packed per-pool-id vector such as ``FuSet.pool_caps``);
        (optionally, clustered)
        every DATA edge connects ring-adjacent clusters, given the
        :class:`~repro.machine.cluster.ClusteredMachine` as *adjacency*.
        """
        problems: list[str] = []
        ddg = self.ddg
        arr = ddg.arrays()
        ids = arr.ids
        sigma = self.sigma
        ii = self.ii
        # packed sigma mirror; -1 marks unscheduled ops
        sig = [-1] * arr.n
        for i, o in enumerate(ids):
            t = sigma.get(o)
            if t is None:
                problems.append(f"op {o} unscheduled")
            elif t < 0:
                problems.append(f"op {o} at negative time")
            else:
                sig[i] = t
        known = arr.index
        for extra in sigma:
            if extra not in known:
                problems.append(f"sigma has unknown op {extra}")

        # fast boolean audits first: a clean, fully-scheduled schedule
        # (the overwhelmingly common case -- every scheduler output is
        # validated) skips the per-edge diagnostic loops entirely; any
        # problem falls through to them
        clean = not problems
        if clean and not dependence_clean(arr, sig, ii):
            clean = False
        if not clean:
            for s, d, lat, dist in zip(arr.e_src, arr.e_dst, arr.e_lat,
                                       arr.e_dist):
                ts, td = sig[s], sig[d]
                if ts < 0 or td < 0:
                    continue
                if td + dist * ii - ts - lat < 0:
                    problems.append(
                        f"dependence violated: {ddg.op(ids[s]).name}"
                        f"@{ts} -> {ddg.op(ids[d]).name}"
                        f"@{td} (lat={lat}, d={dist}, II={ii})")

        if capacities is not None:
            cluster_of = self.cluster_of
            pool = arr.pool
            if isinstance(capacities, dict):
                caps = [0] * len(HARDWARE_POOLS)
                for p, n in capacities.items():
                    caps[POOL_IDS[pool_for(p)]] = n
            else:
                # pre-packed per-pool vector (FuSet.pool_caps)
                caps = capacities
            cl_list = [cluster_of.get(o, 0) for o in ids]
            if not capacity_clean(pool, sig, cl_list, ii, caps):
                usage: dict[tuple[int, int, int], int] = {}
                for i, o in enumerate(ids):
                    t = sig[i]
                    if t < 0:
                        continue
                    key = (cl_list[i], pool[i], t % ii)
                    usage[key] = usage.get(key, 0) + 1
                for (cl, pid, row), n in sorted(
                        usage.items(),
                        key=lambda kv: (kv[0][0],
                                        HARDWARE_POOLS[kv[0][1]].name,
                                        kv[0][2])):
                    if n > caps[pid]:
                        problems.append(
                            f"cluster {cl}: {n} ops on "
                            f"{HARDWARE_POOLS[pid].value} at row "
                            f"{row} (capacity {caps[pid]})")

        if adjacency is not None:
            cluster_of = self.cluster_of
            cl = [cluster_of.get(o, 0) for o in ids]
            # ring arithmetic when every cluster id is in range: an edge
            # is legal within one cluster or one hop either way round;
            # anything else asks the machine, which raises IndexError
            # on an out-of-range id
            n_cl = adjacency.n_clusters
            in_range = not cl or (min(cl) >= 0 and max(cl) < n_cl)
            hop = (1, n_cl - 1)
            out_ptr, out_dst, out_data = arr.out_ptr, arr.out_dst, \
                arr.out_data
            for i in range(arr.n):
                ca = cl[i]
                for j in range(out_ptr[i], out_ptr[i + 1]):
                    if not out_data[j]:
                        continue
                    cb = cl[out_dst[j]]
                    if in_range and (ca == cb or (ca - cb) % n_cl in hop):
                        continue
                    if not adjacency.are_adjacent(ca, cb):
                        problems.append(
                            f"DATA edge {ddg.op(ids[i]).name}(cl{ca}) -> "
                            f"{ddg.op(ids[out_dst[j]]).name}(cl{cb}) "
                            f"spans non-adjacent clusters")

        if problems:
            raise ScheduleValidationError(
                f"schedule of {self.ddg.name!r} invalid:\n  "
                + "\n  ".join(problems))

    # -------------------------------------------------------- rendering

    def render(self) -> str:
        """Kernel table: one line per modulo row."""
        by_row: dict[int, list[str]] = {r: [] for r in range(self.ii)}
        for op_id in sorted(self.sigma, key=lambda o: (self.row_of(o), o)):
            op = self.ddg.op(op_id)
            tag = (f"{op.name}@s{self.stage_of(op_id)}"
                   + (f"/c{self.cluster_of[op_id]}"
                      if self.n_clusters > 1 else ""))
            by_row[self.row_of(op_id)].append(tag)
        lines = [f"II={self.ii} SC={self.stage_count} "
                 f"ops={self.n_ops} machine={self.machine_name}"]
        for row in range(self.ii):
            lines.append(f"  [{row:3d}] " + "  ".join(by_row[row]))
        return "\n".join(lines)
