"""The static schedule verifier (DESIGN.md §5.9).

Given a :class:`~repro.sched.schedule.ModuloSchedule`, the machine it
claims to run on and (optionally) an override DDG, prove every schedule
invariant the paper defines and return a :class:`Verdict`:

1. **Structure** -- every DDG op scheduled exactly once at a
   non-negative time; no phantom ops; cluster assignments in range.
2. **Dependences** -- every edge satisfies
   ``sigma(dst) + dist*II - sigma(src) - latency >= 0``; crossing DATA
   edges additionally cover the inter-cluster bus latency.
3. **Resources** -- on every (cluster, FU pool, modulo row) the op count
   stays within the pool's unit count (the MRT re-derived from scratch).
4. **Topology** -- every DATA edge connects ring-adjacent clusters
   (hop count <= 1, re-derived from modular arithmetic).
5. **Queues** (QRF machines) -- the queue packing that ships with the
   schedule (``usage``) is proved, not rebuilt: every DATA lifetime the
   verifier derives sits in exactly one queue of its location with its
   start and length, and no queue holds anything else; every queue
   passes the locally re-implemented sorted-order form of Theorem 1.1
   (DESIGN.md §5.2; the pairwise closed form names the offending pairs
   when it fails); every queue's peak occupancy (prologue preloads
   included) fits the per-queue position count; and -- under
   ``enforce_queue_budget`` -- each location's queue count fits the
   hardware budget.  The budget check is opt-in because the paper's
   Fig. 3/Fig. 7 methodology *measures* queue demand rather than
   failing schedules that exceed one budget point.  Without a packing,
   the verifier proves ``allocate_queues``' packing of the lifetimes it
   derived; the proof never trusts the packer.

The verifier deliberately re-derives every check from public,
object-level APIs (edge dataclasses, ``FuSet.capacity``, modular ring
arithmetic) rather than the packed ``arrays()`` lowering the schedulers
use: it is the independent half of a translation-validation pair, so it
must not share representation bugs with the engines it checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.ir.ddg import DATA_CODE, KINDS, Ddg, DepKind, Row
from repro.ir.operations import FuType, Opcode, Operation
from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import Machine, QueueBudget
from repro.machine.resources import FuSet, pool_for
from repro.sched.schedule import ModuloSchedule

from .verdict import Verdict, Violation, ViolationKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.regalloc.lifetimes import Lifetime, Location
    from repro.regalloc.queues import QueueAllocation, ScheduleQueueUsage

AnyMachine = Union[Machine, ClusteredMachine]

#: Invariant families in proof order (structure first: a dependence
#: inequality over an unscheduled op is meaningless).
INVARIANT_FAMILIES = ("structure", "dependence", "resource", "topology",
                      "queues")


def verify_schedule(sched: ModuloSchedule, machine: AnyMachine, *,
                    ddg: Optional[Ddg] = None,
                    enforce_queue_budget: bool = False,
                    usage: Optional["ScheduleQueueUsage"] = None
                    ) -> Verdict:
    """Prove one schedule against its machine; never raises on a bad
    schedule -- the :class:`Verdict` carries the violations.

    *usage* is the queue packing that ships with the schedule (the
    allocator's ``ScheduleQueueUsage``); on a QRF machine the verifier
    proves it.  Without one, it proves ``allocate_queues``' packing of
    the lifetimes it derives itself."""
    ddg = ddg if ddg is not None else sched.ddg
    clustered = isinstance(machine, ClusteredMachine)
    cluster_fus = machine.cluster.fus if clustered else machine.fus
    n_clusters = machine.n_clusters if clustered else 1
    xlat = machine.inter_cluster_latency if clustered else 0

    violations: list[Violation] = []
    proved: dict[str, int] = {}
    checked = ["structure", "dependence", "resource"]

    ok_ops, rows = _check_structure(sched, ddg, n_clusters, violations,
                                    proved)
    _check_dependences(sched, ddg, ok_ops, xlat, violations, proved)
    _check_resources(sched, ddg, ok_ops, rows, cluster_fus, violations,
                     proved)
    if clustered:
        checked.append("topology")
        _check_topology(sched, ddg, ok_ops, n_clusters, violations,
                        proved)
    if machine.has_queues:
        checked.append("queues")
        _check_queues(sched, ddg, ok_ops, n_clusters,
                      machine.queue_budget, enforce_queue_budget, usage,
                      violations, proved)

    return Verdict(
        loop=ddg.name,
        machine=machine.name,
        ii=sched.ii, n_ops=ddg.n_ops,
        checked=tuple(checked), violations=tuple(violations),
        proved=proved)


# ---------------------------------------------------------------------------
# 1. structure
# ---------------------------------------------------------------------------

#: FU pools in report order (by name); a resource row is (cluster,
#: pool, modulo row)
_POOL_TYPES = tuple(sorted({pool_for(t) for t in FuType},
                           key=lambda t: t.value))
_POOLS = tuple(t.value for t in _POOL_TYPES)


#: index into :data:`_POOLS` of the pool serving each opcode, keyed by
#: mnemonic (a str key hashes in C, an enum member in Python)
_POOL_INDEX = {code.mnemonic: _POOLS.index(pool_for(code.fu_type).value)
               for code in Opcode}


def _pool_index(op: Operation) -> int:
    return _POOL_INDEX[op.opcode.mnemonic]


def _row_code(cl: int, pool: int, row: int, ii: int) -> int:
    """One int per (cluster, pool index, modulo row), ordered as the
    triple: the rows are counted without a tuple or list per row."""
    return (cl * len(_POOLS) + pool) * ii + row


def _check_structure(sched: ModuloSchedule, ddg: Ddg, n_clusters: int,
                     out: list[Violation], proved: dict[str, int]
                     ) -> tuple[set[int], dict[int, int]]:
    """Every op scheduled once, at t >= 0, on a real cluster.

    Returns the set of ops whose placement is sound -- downstream checks
    only reason about those (a missing op is reported once, not once
    per incident edge) -- and, from the same walk over
    ``ddg.operations``, how many sound ops occupy each resource row
    (:func:`_row_code`), for :func:`_check_resources`.
    """
    sigma = sched.sigma
    cluster_of = sched.cluster_of
    ii = sched.ii
    ok: set[int] = set()
    rows: dict[int, int] = {}
    for op in ddg.operations:
        op_id = op.op_id
        t = sigma.get(op_id)
        if t is None:
            out.append(Violation(
                ViolationKind.UNSCHEDULED,
                f"op {op.name} (id {op_id}) has no issue time",
                ops=(op_id,)))
            continue
        if t < 0:
            out.append(Violation(
                ViolationKind.NEGATIVE_TIME,
                f"op {op.name} issues at cycle {t}",
                inequality=f"sigma({op_id}) = {t} >= 0",
                ops=(op_id,)))
            continue
        cl = cluster_of.get(op_id, 0)
        if not 0 <= cl < n_clusters:
            out.append(Violation(
                ViolationKind.CLUSTER_RANGE,
                f"op {op.name} assigned to cluster {cl} of a "
                f"{n_clusters}-cluster machine",
                inequality=f"0 <= {cl} < {n_clusters}",
                ops=(op_id,)))
            continue
        ok.add(op_id)
        code = _row_code(cl, _pool_index(op), t % ii, ii)
        rows[code] = rows.get(code, 0) + 1
    if len(sigma) != len(ok):
        known = set(ddg.op_ids)
        for extra in sigma:
            if extra not in known:
                out.append(Violation(
                    ViolationKind.UNKNOWN_OP,
                    f"sigma schedules op {extra}, which the DDG does not "
                    f"contain", ops=(extra,)))
    proved["structure"] = len(ok)
    return ok, rows


# ---------------------------------------------------------------------------
# 2. dependences (+ bus latency on crossing edges)
# ---------------------------------------------------------------------------

def _edge_tag(ddg: Ddg, e: Row) -> str:
    src, dst, _key, lat, dist, kind = e
    return (f"{ddg.op(src).name} -> {ddg.op(dst).name} "
            f"({KINDS[kind].value}, lat={lat}, d={dist})")


def _check_dependences(sched: ModuloSchedule, ddg: Ddg, ok_ops: set[int],
                       xlat: int, out: list[Violation],
                       proved: dict[str, int]) -> None:
    sigma = sched.sigma
    cluster_of = sched.cluster_of
    ii = sched.ii
    passed = 0
    for e in ddg.edge_rows():
        src, dst, _key, lat, dist, kind = e
        if src not in ok_ops or dst not in ok_ops:
            continue
        slack = sigma[dst] + dist * ii - sigma[src] - lat
        if slack < 0:
            out.append(Violation(
                ViolationKind.DEPENDENCE,
                f"dependence violated: {_edge_tag(ddg, e)} with "
                f"sigma {sigma[src]} -> {sigma[dst]} at II={ii}",
                inequality=(f"{sigma[dst]} + {dist}*{ii} - "
                            f"{sigma[src]} - {lat} = {slack} "
                            f">= 0"),
                ops=(src, dst)))
            continue
        if (xlat and kind == DATA_CODE
                and cluster_of.get(src, 0) != cluster_of.get(dst, 0)
                and slack < xlat):
            out.append(Violation(
                ViolationKind.BUS_LATENCY,
                f"crossing edge {_edge_tag(ddg, e)} pays only {slack} "
                f"cycle(s) of the {xlat}-cycle inter-cluster bus",
                inequality=f"slack {slack} >= bus latency {xlat}",
                ops=(src, dst)))
            continue
        passed += 1
    proved["dependence"] = passed


# ---------------------------------------------------------------------------
# 3. resources (the MRT, re-derived)
# ---------------------------------------------------------------------------

def _check_resources(sched: ModuloSchedule, ddg: Ddg, ok_ops: set[int],
                     rows: dict[int, int], cluster_fus: FuSet,
                     out: list[Violation], proved: dict[str, int]) -> None:
    ii = sched.ii
    # each pool's capacity, looked up once per call
    caps = [cluster_fus.capacity(t) for t in _POOL_TYPES]
    passed = 0
    for code in sorted(rows):
        n = rows[code]
        rest, row = divmod(code, ii)
        cl, pool = divmod(rest, len(_POOLS))
        if n <= caps[pool]:
            passed += 1
            continue
        ops = [op for op in ddg.operations
               if op.op_id in ok_ops
               and _row_code(sched.cluster_of.get(op.op_id, 0),
                             _pool_index(op),
                             sched.sigma[op.op_id] % ii, ii) == code]
        out.append(Violation(
            ViolationKind.RESOURCE,
            f"cluster {cl}: {n} ops need the {_POOLS[pool]} "
            f"pool on modulo row {row} "
            f"({', '.join(op.name for op in ops)})",
            inequality=f"{n} <= capacity {caps[pool]}",
            ops=tuple(op.op_id for op in ops)))
    proved["resource"] = passed


# ---------------------------------------------------------------------------
# 4. ring topology
# ---------------------------------------------------------------------------

def _ring_hops(a: int, b: int, n: int) -> int:
    d = (a - b) % n
    return min(d, n - d)


def _check_topology(sched: ModuloSchedule, ddg: Ddg, ok_ops: set[int],
                    n_clusters: int, out: list[Violation],
                    proved: dict[str, int]) -> None:
    cluster_of = sched.cluster_of
    passed = 0
    for e in ddg.edge_rows(DepKind.DATA):
        src, dst = e[0], e[1]
        if src not in ok_ops or dst not in ok_ops:
            continue
        ca = cluster_of.get(src, 0)
        cb = cluster_of.get(dst, 0)
        hops = 0 if ca == cb else _ring_hops(ca, cb, n_clusters)
        if hops > 1:
            out.append(Violation(
                ViolationKind.ADJACENCY,
                f"DATA edge {_edge_tag(ddg, e)} spans clusters "
                f"{ca} -> {cb}, {hops} ring hops apart",
                inequality=f"ring_hops({ca}, {cb}) = {hops} <= 1",
                ops=(src, dst)))
        else:
            passed += 1
    proved["topology"] = passed


# ---------------------------------------------------------------------------
# 5. queues
# ---------------------------------------------------------------------------

def _q_compatible(sa: int, la: int, sb: int, lb: int, ii: int) -> bool:
    """Theorem 1.1, strict closed form (re-implemented locally; see the
    module docstring for why this duplicates ``repro.regalloc.queues``)."""
    if la > lb:
        sa, la, sb, lb = sb, lb, sa, la
    delta = (sb - sa) % ii
    return delta != 0 and lb - la < ii - delta


#: queue location kinds, in report order; a location is (kind, cluster)
_KINDS = ("private", "ring_ccw", "ring_cw")


def _queue_positions(queue: list[int], starts: list[int],
                     lengths: list[int], ii: int) -> int:
    """Peak occupancy of one queue over a whole execution, prologue
    preloads included (the semantics of
    ``repro.regalloc.queues.queue_depth``, re-derived).  *queue* holds
    indices into *starts* / *lengths*.

    Every instance an execution holds -- preloads too -- lives within its
    steady-state interval, and after the preloads drain all of them are
    live, so the peak is the steady-state one: per phase, each lifetime
    of length L counts ``L // II`` instances, plus one on the
    ``L % II`` phases from its write phase on.  A lone lifetime
    therefore peaks at ⌈L/II⌉.  Otherwise one sweep over the partial
    runs' edges, sorted by phase, finds the peak in O(k log k) for k
    lifetimes: the count starts at the runs that wrap past phase II-1
    (they are live at phase 0), and at any one phase the ends (-1) sort
    before the starts (+1), so no running count exceeds the count of
    some phase.
    """
    if len(queue) == 1:
        return -(-lengths[queue[0]] // ii)
    every = 0
    wrapped = 0
    edges = []
    for i in queue:
        full, rest = divmod(lengths[i], ii)
        every += full
        if rest:
            r = starts[i] % ii
            end = r + rest
            edges.append((r, 1))
            if end > ii:
                wrapped += 1
                end -= ii
            edges.append((end, -1))
    edges.sort()
    peak = run = wrapped
    for _phase, delta in edges:
        run += delta
        if run > peak:
            peak = run
    return every + peak


def _fifo_ordered(q: list[int], starts: list[int], lengths: list[int],
                  ii: int) -> bool:
    """Whether the lifetimes of queue *q* can share one FIFO: Theorem 1.1
    for a whole queue (DESIGN.md §5.2).  With residues ``r = S mod II``
    and ends ``e = r + L``: the residues are distinct, sorted by residue
    the ends strictly increase, and the last end minus the first is
    below II (re-derived locally, like :func:`_q_compatible`)."""
    if len(q) < 2:
        return True
    order = sorted((starts[i] % ii, lengths[i]) for i in q)
    prev_r, first_e = order[0]
    first_e += prev_r
    prev_e = first_e
    for r, length in order[1:]:
        e = r + length
        if r == prev_r or e <= prev_e:
            return False
        prev_r, prev_e = r, e
    return prev_e - first_e < ii


def _report_pairs(q: list[int], edges: list[Row], starts: list[int],
                  lengths: list[int], ii: int, where: str,
                  out: list[Violation]) -> None:
    """Report every pair sharing queue *q* that is not Q-compatible."""
    for n, i in enumerate(q):
        for j in q[n + 1:]:
            if not _q_compatible(starts[i], lengths[i], starts[j],
                                 lengths[j], ii):
                a, b = edges[i], edges[j]
                out.append(Violation(
                    ViolationKind.QUEUE_ORDER,
                    f"{where}: lifetimes {a[0]}->{a[1]} and "
                    f"{b[0]}->{b[1]} cannot share a FIFO at II={ii}",
                    ops=(a[0], a[1], b[0], b[1])))


#: location kind name -> its index in :data:`_KINDS`
_KIND_INDEX = {kind: k for k, kind in enumerate(_KINDS)}


def _own_packing(edges: list[Row], starts: list[int], lengths: list[int],
                 codes: list[int], n_clusters: int, ii: int
                 ) -> dict["Location", "QueueAllocation"]:
    """The allocator's packing of the lifetimes the verifier derived,
    for a caller that passes none: it is proved like any other."""
    from repro.regalloc.lifetimes import Lifetime, Location, LocationKind
    from repro.regalloc.queues import allocate_queues

    locations: dict[int, Location] = {}
    groups: dict[int, list[Lifetime]] = {}
    for i, e in enumerate(edges):
        code = codes[i]
        loc = locations.get(code)
        if loc is None:
            k, cl = divmod(code, n_clusters)
            loc = locations[code] = Location(LocationKind(_KINDS[k]), cl)
            groups[code] = []
        groups[code].append(Lifetime(e[0], e[1], e[2], starts[i],
                                     lengths[i], e[4], loc))
    return {locations[code]: allocate_queues(group, ii,
                                             location=locations[code])
            for code, group in groups.items()}


def _check_queues(sched: ModuloSchedule, ddg: Ddg, ok_ops: set[int],
                  n_clusters: int, budget: QueueBudget,
                  enforce_budget: bool,
                  usage: Optional["ScheduleQueueUsage"],
                  out: list[Violation], proved: dict[str, int]) -> None:
    ii = sched.ii
    sigma = sched.sigma
    cluster_of = sched.cluster_of
    # lifetime i: DATA edge edges[i] in location codes[i], written at
    # starts[i] and read lengths[i] cycles later -- flat lists, not an
    # object per lifetime.  A location code is kind index * n_clusters +
    # producer cluster, so codes sort in report order.
    edges: list[Row] = []
    codes: list[int] = []
    starts: list[int] = []
    lengths: list[int] = []
    # (src, dst, key, start, length) -> i: a packed lifetime that
    # matches the schedule is found with one lookup
    index: dict[tuple[int, ...], int] = {}
    for e in ddg.edge_rows(DepKind.DATA):
        src, dst, key, lat, dist, _kind = e
        if src not in ok_ops or dst not in ok_ops:
            continue
        start = sigma[src] + lat
        length = sigma[dst] + dist * ii - start
        if length < 0:
            continue  # already reported as a dependence violation
        ca = cluster_of.get(src, 0)
        cb = cluster_of.get(dst, 0)
        if ca == cb:
            code = ca
        elif (ca + 1) % n_clusters == cb:
            code = 2 * n_clusters + ca
        elif (ca - 1) % n_clusters == cb:
            code = n_clusters + ca
        else:
            continue  # already reported as an adjacency violation
        index[(src, dst, key, start, length)] = len(edges)
        edges.append(e)
        codes.append(code)
        starts.append(start)
        lengths.append(length)

    if usage is None:
        by_location = _own_packing(edges, starts, lengths, codes,
                                   n_clusters, ii)
    else:
        by_location = usage.by_location

    # coverage: every derived lifetime sits in exactly one queue of its
    # location, with its start and length, and no queue holds anything
    # else.  Each queue keeps only its matching members for the proof.
    placed = [False] * len(edges)
    by_edge: Optional[dict[tuple[int, ...], int]] = None  # on a mismatch
    packing: list[tuple[int, str, list[list[int]]]] = []
    for loc, alloc in by_location.items():
        where = f"{loc.kind.value}[{loc.cluster}]"
        k = _KIND_INDEX.get(loc.kind.value)
        code = (k * n_clusters + loc.cluster
                if k is not None and 0 <= loc.cluster < n_clusters else -1)
        queues: list[list[int]] = []
        for qi, q in enumerate(alloc.queues):
            members: list[int] = []
            for lt in q:
                i = index.get(lt[:5])
                if i is not None and not placed[i] and codes[i] == code:
                    placed[i] = True
                    members.append(i)
                    continue
                if by_edge is None:
                    by_edge = {e[:3]: n for n, e in enumerate(edges)}
                i = by_edge.get(lt[:3])
                out.append(_misfiled(lt, i, placed, code, codes, starts,
                                     lengths, n_clusters,
                                     f"{where} queue {qi}"))
                if i is not None:
                    placed[i] = True
            queues.append(members)
        if code >= 0:
            packing.append((code, where, queues))
    for i, done in enumerate(placed):
        if not done:
            e = edges[i]
            out.append(Violation(
                ViolationKind.QUEUE_ALLOCATION,
                f"lifetime {e[0]}->{e[1]} (key {e[2]}) "
                f"[{starts[i]}, {starts[i] + lengths[i]}) of "
                f"{_where(codes[i], n_clusters)} is in no queue",
                ops=(e[0], e[1])))

    limits = (budget.private, budget.ring_out_ccw, budget.ring_out_cw)
    passed = 0
    for code, where, queues in sorted(packing):
        for qi, q in enumerate(queues):
            # FIFO-sharing proof: the sorted-order test; the pairwise
            # closed form names the offending pairs when it fails
            if not _fifo_ordered(q, starts, lengths, ii):
                _report_pairs(q, edges, starts, lengths, ii,
                              f"{where} queue {qi}", out)
                continue
            depth = _queue_positions(q, starts, lengths, ii)
            if depth > budget.positions:
                out.append(Violation(
                    ViolationKind.QUEUE_DEPTH,
                    f"{where} queue {qi} peaks at {depth} live "
                    f"values ({len(q)} lifetimes)",
                    inequality=(f"MaxLive {depth} <= positions "
                                f"{budget.positions}"),
                    ops=tuple(edges[i][0] for i in q)))
            else:
                passed += 1
        k = code // n_clusters
        if enforce_budget and len(queues) > limits[k]:
            out.append(Violation(
                ViolationKind.QUEUE_COUNT,
                f"{where} needs {len(queues)} queues",
                inequality=(f"{len(queues)} <= {_KINDS[k]} budget "
                            f"{limits[k]}")))
    proved["queues"] = passed


def _where(code: int, n_clusters: int) -> str:
    k, cl = divmod(code, n_clusters)
    return f"{_KINDS[k]}[{cl}]"


def _misfiled(lt: "Lifetime", i: Optional[int], placed: list[bool],
              code: int, codes: list[int], starts: list[int],
              lengths: list[int], n_clusters: int, where: str) -> Violation:
    """A packed lifetime that does not match the schedule: not one of
    its lifetimes, packed twice, in another location than its edge's,
    or with another start or length."""
    tag = f"lifetime {lt[0]}->{lt[1]} (key {lt[2]})"
    inequality = ""
    if i is None:
        message = f"{where} holds {tag}, which matches no lifetime of " \
                  f"the schedule"
    elif placed[i]:
        message = f"{where} holds {tag} a second time"
    elif codes[i] != code:
        message = (f"{where} holds {tag}, whose edge runs through "
                   f"{_where(codes[i], n_clusters)}")
    else:
        message = (f"{where} holds {tag} as [{lt.start}, "
                   f"{lt.start + lt.length}); the schedule writes it at "
                   f"{starts[i]} and reads it at {starts[i] + lengths[i]}")
        inequality = (f"start {lt.start} == {starts[i]}, length "
                      f"{lt.length} == {lengths[i]}")
    return Violation(ViolationKind.QUEUE_ALLOCATION, message,
                     inequality=inequality, ops=(lt[0], lt[1]))
