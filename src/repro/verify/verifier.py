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
5. **Queues** (QRF machines) -- lifetimes grouped per queue location,
   greedily packed under the locally re-implemented Q-compatibility
   closed form (Theorem 1.1); every queue's peak occupancy (prologue
   preloads included) must fit the per-queue position count, and --
   under ``enforce_queue_budget`` -- each location's queue count must
   fit the hardware budget.  The budget check is opt-in because the
   paper's Fig. 3/Fig. 7 methodology *measures* queue demand rather
   than failing schedules that exceed one budget point.

The verifier deliberately re-derives everything from public,
object-level APIs (edge dataclasses, ``FuSet.capacity``, modular ring
arithmetic) rather than the packed ``arrays()`` lowering the schedulers
use: it is the independent half of a translation-validation pair, so it
must not share representation bugs with the engines it checks.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ir.ddg import Ddg, DepEdge, DepKind
from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import Machine, QueueBudget
from repro.machine.resources import pool_for
from repro.sched.schedule import ModuloSchedule

from .verdict import Verdict, Violation, ViolationKind

AnyMachine = Union[Machine, ClusteredMachine]

#: Invariant families in proof order (structure first: a dependence
#: inequality over an unscheduled op is meaningless).
INVARIANT_FAMILIES = ("structure", "dependence", "resource", "topology",
                      "queues")


def verify_schedule(sched: ModuloSchedule, machine: AnyMachine, *,
                    ddg: Optional[Ddg] = None,
                    enforce_queue_budget: bool = False) -> Verdict:
    """Prove one schedule against its machine; never raises on a bad
    schedule -- the :class:`Verdict` carries the violations."""
    ddg = ddg if ddg is not None else sched.ddg
    clustered = isinstance(machine, ClusteredMachine)
    cluster_fus = machine.cluster.fus if clustered else machine.fus
    n_clusters = machine.n_clusters if clustered else 1
    xlat = machine.inter_cluster_latency if clustered else 0

    violations: list[Violation] = []
    proved: dict[str, int] = {}
    checked = ["structure", "dependence", "resource"]

    ok_ops = _check_structure(sched, ddg, n_clusters, violations, proved)
    _check_dependences(sched, ddg, ok_ops, xlat, violations, proved)
    _check_resources(sched, ddg, ok_ops, cluster_fus, violations, proved)
    if clustered:
        checked.append("topology")
        _check_topology(sched, ddg, ok_ops, n_clusters, violations,
                        proved)
    if machine.has_queues:
        checked.append("queues")
        _check_queues(sched, ddg, ok_ops, n_clusters,
                      machine.queue_budget, enforce_queue_budget,
                      violations, proved)

    return Verdict(
        loop=ddg.name,
        machine=getattr(machine, "name", str(machine)),
        ii=sched.ii, n_ops=ddg.n_ops,
        checked=tuple(checked), violations=tuple(violations),
        proved=proved)


# ---------------------------------------------------------------------------
# 1. structure
# ---------------------------------------------------------------------------

def _check_structure(sched: ModuloSchedule, ddg: Ddg, n_clusters: int,
                     out: list[Violation],
                     proved: dict[str, int]) -> set[int]:
    """Every op scheduled once, at t >= 0, on a real cluster.

    Returns the set of ops whose placement is sound; downstream checks
    only reason about those (a missing op is reported once, not once
    per incident edge).
    """
    ok: set[int] = set()
    passed = 0
    known = set(ddg.op_ids)
    for op_id in ddg.op_ids:
        t = sched.sigma.get(op_id)
        name = ddg.op(op_id).name
        if t is None:
            out.append(Violation(
                ViolationKind.UNSCHEDULED,
                f"op {name} (id {op_id}) has no issue time",
                ops=(op_id,)))
            continue
        if t < 0:
            out.append(Violation(
                ViolationKind.NEGATIVE_TIME,
                f"op {name} issues at cycle {t}",
                inequality=f"sigma({op_id}) = {t} >= 0",
                ops=(op_id,)))
            continue
        cl = sched.cluster_of.get(op_id, 0)
        if not 0 <= cl < n_clusters:
            out.append(Violation(
                ViolationKind.CLUSTER_RANGE,
                f"op {name} assigned to cluster {cl} of a "
                f"{n_clusters}-cluster machine",
                inequality=f"0 <= {cl} < {n_clusters}",
                ops=(op_id,)))
            continue
        ok.add(op_id)
        passed += 1
    for extra in sched.sigma:
        if extra not in known:
            out.append(Violation(
                ViolationKind.UNKNOWN_OP,
                f"sigma schedules op {extra}, which the DDG does not "
                f"contain", ops=(extra,)))
    proved["structure"] = passed
    return ok


# ---------------------------------------------------------------------------
# 2. dependences (+ bus latency on crossing edges)
# ---------------------------------------------------------------------------

def _edge_tag(ddg: Ddg, e: DepEdge) -> str:
    return (f"{ddg.op(e.src).name} -> {ddg.op(e.dst).name} "
            f"({e.kind.value}, lat={e.latency}, d={e.distance})")


def _check_dependences(sched: ModuloSchedule, ddg: Ddg, ok_ops: set[int],
                       xlat: int, out: list[Violation],
                       proved: dict[str, int]) -> None:
    sigma = sched.sigma
    cluster_of = sched.cluster_of
    ii = sched.ii
    passed = 0
    for e in ddg.edges():
        if e.src not in ok_ops or e.dst not in ok_ops:
            continue
        slack = sigma[e.dst] + e.distance * ii - sigma[e.src] - e.latency
        if slack < 0:
            out.append(Violation(
                ViolationKind.DEPENDENCE,
                f"dependence violated: {_edge_tag(ddg, e)} with "
                f"sigma {sigma[e.src]} -> {sigma[e.dst]} at II={ii}",
                inequality=(f"{sigma[e.dst]} + {e.distance}*{ii} - "
                            f"{sigma[e.src]} - {e.latency} = {slack} "
                            f">= 0"),
                ops=(e.src, e.dst)))
            continue
        if (xlat and e.kind is DepKind.DATA
                and cluster_of.get(e.src, 0) != cluster_of.get(e.dst, 0)
                and slack < xlat):
            out.append(Violation(
                ViolationKind.BUS_LATENCY,
                f"crossing edge {_edge_tag(ddg, e)} pays only {slack} "
                f"cycle(s) of the {xlat}-cycle inter-cluster bus",
                inequality=f"slack {slack} >= bus latency {xlat}",
                ops=(e.src, e.dst)))
            continue
        passed += 1
    proved["dependence"] = passed


# ---------------------------------------------------------------------------
# 3. resources (the MRT, re-derived)
# ---------------------------------------------------------------------------

def _check_resources(sched: ModuloSchedule, ddg: Ddg, ok_ops: set[int],
                     cluster_fus: object, out: list[Violation],
                     proved: dict[str, int]) -> None:
    ii = sched.ii
    usage: dict[tuple[int, str, int], list[int]] = {}
    for op_id in sorted(ok_ops):
        op = ddg.op(op_id)
        pool = pool_for(op.fu_type)
        key = (sched.cluster_of.get(op_id, 0), pool.value,
               sched.sigma[op_id] % ii)
        usage.setdefault(key, []).append(op_id)
    passed = 0
    for (cl, pool_name, row), ops in sorted(usage.items()):
        cap = cluster_fus.capacity(ddg.op(ops[0]).fu_type)  # type: ignore[attr-defined]
        if len(ops) > cap:
            out.append(Violation(
                ViolationKind.RESOURCE,
                f"cluster {cl}: {len(ops)} ops need the {pool_name} "
                f"pool on modulo row {row} "
                f"({', '.join(ddg.op(o).name for o in ops)})",
                inequality=f"{len(ops)} <= capacity {cap}",
                ops=tuple(ops)))
        else:
            passed += 1
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
    passed = 0
    for e in ddg.data_edges():
        if e.src not in ok_ops or e.dst not in ok_ops:
            continue
        ca = sched.cluster_of.get(e.src, 0)
        cb = sched.cluster_of.get(e.dst, 0)
        hops = _ring_hops(ca, cb, n_clusters)
        if hops > 1:
            out.append(Violation(
                ViolationKind.ADJACENCY,
                f"DATA edge {_edge_tag(ddg, e)} spans clusters "
                f"{ca} -> {cb}, {hops} ring hops apart",
                inequality=f"ring_hops({ca}, {cb}) = {hops} <= 1",
                ops=(e.src, e.dst)))
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


def _queue_positions(queue: list[tuple[int, int, int, DepEdge]],
                     ii: int) -> int:
    """Peak occupancy of one queue over a whole execution, prologue
    preloads included (the semantics of
    ``repro.regalloc.queues.queue_depth``, re-derived).

    Every instance an execution holds -- preloads too -- lives within its
    steady-state interval, and after the preloads drain all of them are
    live, so the peak is the steady-state one: per phase, each lifetime
    of length L counts ``L // II`` instances, plus one on the
    ``L % II`` phases from its write phase on.  The partial runs are
    laid out unwrapped over two periods, then folded onto one.
    """
    every = 0
    edges = [0] * (2 * ii + 1)
    for start, length, _d, _e in queue:
        full, rest = divmod(length, ii)
        every += full
        edges[start % ii] += 1
        edges[start % ii + rest] -= 1
    folded = [0] * ii
    run = 0
    for t in range(2 * ii):
        run += edges[t]
        folded[t % ii] += run
    return every + max(folded)


def _check_queues(sched: ModuloSchedule, ddg: Ddg, ok_ops: set[int],
                  n_clusters: int, budget: QueueBudget,
                  enforce_budget: bool, out: list[Violation],
                  proved: dict[str, int]) -> None:
    ii = sched.ii
    sigma = sched.sigma
    # location key: ("private"|"ring_cw"|"ring_ccw", producer cluster)
    per_loc: dict[tuple[str, int], list[tuple[int, int, int, DepEdge]]] = {}
    for e in ddg.data_edges():
        if e.src not in ok_ops or e.dst not in ok_ops:
            continue
        start = sigma[e.src] + e.latency
        length = sigma[e.dst] + e.distance * ii - start
        if length < 0:
            continue  # already reported as a dependence violation
        ca = sched.cluster_of.get(e.src, 0)
        cb = sched.cluster_of.get(e.dst, 0)
        if ca == cb:
            loc = ("private", ca)
        elif (ca + 1) % n_clusters == cb:
            loc = ("ring_cw", ca)
        elif (ca - 1) % n_clusters == cb:
            loc = ("ring_ccw", ca)
        else:
            continue  # already reported as an adjacency violation
        per_loc.setdefault(loc, []).append((start, length, e.distance, e))

    limits = {"private": budget.private, "ring_cw": budget.ring_out_cw,
              "ring_ccw": budget.ring_out_ccw}
    passed = 0
    for (kind, cl), lifetimes in sorted(per_loc.items()):
        # deterministic greedy first-fit, as the hardware allocator packs;
        # a queue already holding the incoming start residue is skipped
        # untested (delta == 0 is never Q-compatible)
        lifetimes.sort(key=lambda lt: (lt[0], lt[1], lt[3].src,
                                       lt[3].dst, lt[3].key))
        queues: list[list[tuple[int, int, int, DepEdge]]] = []
        residues: list[int] = []
        for lt in lifetimes:
            bit = 1 << (lt[0] % ii)
            for i, q in enumerate(queues):
                if residues[i] & bit:
                    continue
                for other in q:
                    if not _q_compatible(lt[0], lt[1], other[0], other[1],
                                         ii):
                        break
                else:  # compatible with every member: join this queue
                    q.append(lt)
                    residues[i] |= bit
                    break
            else:
                queues.append([lt])
                residues.append(bit)
        for qi, q in enumerate(queues):
            # FIFO-sharing proof: pairwise Q-compatibility of the packing
            bad = False
            for i, a in enumerate(q):
                for b in q[i + 1:]:
                    if not _q_compatible(a[0], a[1], b[0], b[1], ii):
                        out.append(Violation(
                            ViolationKind.QUEUE_ORDER,
                            f"{kind}[{cl}] queue {qi}: lifetimes "
                            f"{a[3].src}->{a[3].dst} and "
                            f"{b[3].src}->{b[3].dst} cannot share a "
                            f"FIFO at II={ii}",
                            ops=(a[3].src, a[3].dst, b[3].src, b[3].dst)))
                        bad = True
            if bad:
                continue
            depth = _queue_positions(q, ii)
            if depth > budget.positions:
                out.append(Violation(
                    ViolationKind.QUEUE_DEPTH,
                    f"{kind}[{cl}] queue {qi} peaks at {depth} live "
                    f"values ({len(q)} lifetimes)",
                    inequality=(f"MaxLive {depth} <= positions "
                                f"{budget.positions}"),
                    ops=tuple(lt[3].src for lt in q)))
            else:
                passed += 1
        if enforce_budget and len(queues) > limits[kind]:
            out.append(Violation(
                ViolationKind.QUEUE_COUNT,
                f"{kind}[{cl}] needs {len(queues)} queues",
                inequality=(f"{len(queues)} <= {kind} budget "
                            f"{limits[kind]}")))
    proved["queues"] = passed
