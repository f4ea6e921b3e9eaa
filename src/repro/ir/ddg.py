"""Data-dependence graphs (DDGs) for innermost loops.

A :class:`Ddg` is the unit of work of the whole library: one innermost loop
body, with operations as nodes and dependences as edges.  Edges carry

* ``latency``  -- cycles the consumer must wait after the producer issues,
* ``distance`` -- iteration distance (0 = intra-iteration, k > 0 = the value
  produced in iteration *i* is consumed in iteration *i + k*),
* ``kind``     -- :class:`DepKind`; only DATA edges move a value through a
  register/queue, MEM and SEQ edges merely order operations.

The store is compact: operations by id, and one edge table of
``(src, dst, key, latency, distance, kind)`` rows kept in
``(src, dst, key)`` order (``kind`` as an index into :data:`KINDS`, so
a row holds only ints and the cyclic GC stops tracking it).
Parallel edges are legal -- an op may consume the same value twice, e.g.
``x * x`` -- and are told apart by ``key``, assigned the way
``networkx.MultiDiGraph.add_edge`` assigns it (the number of parallel
edges, bumped past keys still in use).  Edge order and keys feed every
schedule and every job key, so they are part of the contract.  The typed
API below is all the rest of the library reads; the graph transforms
(:mod:`.unroll`, :mod:`.copyins`) build their output tables in bulk.
"""

from __future__ import annotations

import bisect
import enum
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from .operations import FuType, LatencyModel, Opcode, Operation

if TYPE_CHECKING:  # pragma: no cover
    from .ddgarrays import DdgArrays


class DepKind(enum.Enum):
    """Dependence classes.

    DATA edges are true flow dependences: the producer's value travels
    through a register (conventional RF) or queue (QRF) to the consumer.
    MEM edges order memory operations that may alias (store->load,
    store->store, load->store).  SEQ edges are scheduler-only ordering
    constraints.  Only DATA edges create lifetimes and queue traffic.
    """

    DATA = "data"
    MEM = "mem"
    SEQ = "seq"


#: Edge-table kind codes: ``KINDS[code]`` is the row's :class:`DepKind`.
KINDS = tuple(DepKind)
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
DATA_CODE = KIND_CODE[DepKind.DATA]

#: One edge-table row: ``(src, dst, key, latency, distance, kind code)``.
Row = tuple[int, int, int, int, int, int]


class _DepEdgeFields(NamedTuple):
    src: int
    dst: int
    latency: int
    distance: int
    kind: DepKind
    key: int = 0


class DepEdge(_DepEdgeFields):
    """One dependence ``src -> dst``.

    ``latency`` defaults to the producer's latency for DATA edges and to 1
    for MEM/SEQ edges (a store must complete before an aliasing load of the
    next cycle).  ``key`` disambiguates parallel edges.

    An immutable named tuple rather than a frozen dataclass: a graph
    hands out one per edge, and a tuple is several times cheaper to
    build (rows already checked are built without re-validation).
    """

    __slots__ = ()

    def __new__(cls, src: int, dst: int, latency: int, distance: int,
                kind: DepKind, key: int = 0) -> "DepEdge":
        if distance < 0:
            raise ValueError("dependence distance must be >= 0")
        if latency < 0:
            raise ValueError("dependence latency must be >= 0")
        return super().__new__(cls, src, dst, latency, distance, kind, key)

    @property
    def is_loop_carried(self) -> bool:
        return self.distance > 0

    @property
    def moves_value(self) -> bool:
        return self.kind is DepKind.DATA


def keyed_rows(rows: list[Row]) -> list[Row]:
    """Sort rows whose third field orders parallel edges by arrival, and
    renumber it to the keys ``add_dependence`` would assign when adding
    them in that order to a graph without them (0, 1, ... per
    ``(src, dst)``).  *rows* is sorted in place."""
    rows.sort()
    out = []
    prev_s = prev_d = -1
    key = 0
    for s, d, _seq, lat, dist, kind in rows:
        if s == prev_s and d == prev_d:
            key += 1
        else:
            prev_s, prev_d, key = s, d, 0
        out.append((s, d, key, lat, dist, kind))
    return out


class Ddg:
    """A data-dependence graph for one innermost loop.

    Parameters
    ----------
    name:
        Loop identifier (e.g. ``"daxpy"`` or ``"synth-0421"``).
    trip_count:
        Nominal iteration count used by the dynamic-IPC analysis; the paper
        weighs loops by execution time (Section 4), so the corpus assigns a
        heavy-tailed trip count to each loop.
    """

    def __init__(self, name: str = "loop", trip_count: int = 100) -> None:
        if trip_count < 1:
            raise ValueError("trip_count must be >= 1")
        self.name = name
        self.trip_count = trip_count
        self._ops: dict[int, Operation] = {}
        self._rows: list[Row] = []
        self._next_id = 0
        # derived-data caches -- schedulers call in_edges/out_edges
        # millions of times on an immutable graph; invalidated on any
        # mutation
        self._version = 0
        self._edge_cache: dict = {}

    @classmethod
    def from_table(cls, name: str, trip_count: int, ops: list[Operation],
                   rows: list[Row], next_id: int = 0) -> "Ddg":
        """A graph over *ops* (ascending ids) and *rows* (sorted, keys
        final) -- the bulk constructor of the graph transforms, which own
        the invariants :meth:`add_dependence` would check."""
        out = cls(name, trip_count)
        out._ops = {op.op_id: op for op in ops}
        out._rows = rows
        out._next_id = max(next_id, ops[-1].op_id + 1 if ops else 0)
        return out

    def _bump(self) -> None:
        self._version += 1
        if self._edge_cache:
            self._edge_cache.clear()

    # ------------------------------------------------------------------ ops

    def add_operation(self, opcode: Opcode, *, name: str = "",
                      latency: int = -1, unroll_index: int = 0,
                      origin: Optional[int] = None) -> Operation:
        """Create and insert a fresh operation; returns it."""
        op = Operation(
            op_id=self._next_id, opcode=opcode, name=name, latency=latency,
            unroll_index=unroll_index, origin=origin,
        )
        self._ops[op.op_id] = op
        self._next_id += 1
        self._bump()
        return op

    def insert_operation(self, op: Operation) -> Operation:
        """Insert a pre-built operation (id must be unused)."""
        if op.op_id in self._ops:
            raise ValueError(f"op id {op.op_id} already present")
        self._ops[op.op_id] = op
        self._next_id = max(self._next_id, op.op_id + 1)
        self._bump()
        return op

    def remove_operation(self, op_id: int) -> None:
        """Remove an op and all incident edges."""
        del self._ops[op_id]
        self._rows = [r for r in self._rows
                      if r[0] != op_id and r[1] != op_id]
        self._bump()

    def op(self, op_id: int) -> Operation:
        """Look up an operation by id."""
        return self._ops[op_id]

    def has_op(self, op_id: int) -> bool:
        return op_id in self._ops

    def replace_operation(self, op: Operation) -> None:
        """Swap the node payload for an op with the same id."""
        if op.op_id not in self._ops:
            raise KeyError(op.op_id)
        self._ops[op.op_id] = op
        self._bump()

    def _sorted_ops(self) -> list[Operation]:
        cached = self._edge_cache.get("ops")
        if cached is None:
            ops = self._ops
            cached = [ops[o] for o in self._sorted_ids()]
            self._edge_cache["ops"] = cached
        return cached

    def _sorted_ids(self) -> list[int]:
        cached = self._edge_cache.get("op_ids")
        if cached is None:
            cached = sorted(self._ops)
            self._edge_cache["op_ids"] = cached
        return cached

    @property
    def operations(self) -> list[Operation]:
        """All operations, ordered by id (deterministic)."""
        return list(self._sorted_ops())

    @property
    def op_ids(self) -> list[int]:
        return list(self._sorted_ids())

    @property
    def n_ops(self) -> int:
        return len(self._ops)

    @property
    def n_edges(self) -> int:
        return len(self._rows)

    def fu_demand(self) -> dict[FuType, int]:
        """Number of ops per FU class (input of ResMII; memoised)."""
        cached = self._edge_cache.get("fu_demand")
        if cached is None:
            cached = {}
            for op in self._sorted_ops():
                cached[op.fu_type] = cached.get(op.fu_type, 0) + 1
            self._edge_cache["fu_demand"] = cached
        return dict(cached)

    # ---------------------------------------------------------------- edges

    def add_dependence(self, src: int | Operation, dst: int | Operation, *,
                       distance: int = 0, kind: DepKind = DepKind.DATA,
                       latency: Optional[int] = None) -> DepEdge:
        """Add a dependence edge.

        DATA edges default their latency to the producer op's latency; MEM
        and SEQ edges default to 1.  A DATA edge requires the producer to be
        a value producer.
        """
        sid = src.op_id if isinstance(src, Operation) else src
        did = dst.op_id if isinstance(dst, Operation) else dst
        if sid not in self._ops or did not in self._ops:
            raise KeyError(f"edge endpoints {sid}->{did} not in graph")
        src_op = self._ops[sid]
        if kind is DepKind.DATA and not src_op.produces_value:
            raise ValueError(
                f"DATA edge from non-producer {src_op.name}"
            )
        if latency is None:
            latency = src_op.latency if kind is DepKind.DATA else 1
        rows = self._rows
        lo = bisect.bisect_left(rows, (sid, did))
        hi = lo
        while hi < len(rows) and rows[hi][0] == sid and rows[hi][1] == did:
            hi += 1
        used = {r[2] for r in rows[lo:hi]}
        key = len(used)
        while key in used:
            key += 1
        edge = DepEdge(sid, did, latency, distance, kind, key)
        row = (sid, did, key, latency, distance, KIND_CODE[kind])
        rows.insert(bisect.bisect_left(rows, row, lo, hi), row)
        self._bump()
        return edge

    def edge_rows(self, kind: Optional[DepKind] = None) -> list[Row]:
        """The edge table, optionally of one kind: :data:`Row` tuples in
        :meth:`edges` order (``KINDS[row[5]]`` is the kind).  The
        allocation-free form of :meth:`edges` for hot readers; callers
        must not mutate the returned list."""
        if kind is None:
            return self._rows
        cache_key = ("rows", kind)
        cached = self._edge_cache.get(cache_key)
        if cached is None:
            code = KIND_CODE[kind]
            cached = [r for r in self._rows if r[5] == code]
            self._edge_cache[cache_key] = cached
        return cached

    def _all_edges(self) -> list[DepEdge]:
        """Every edge as a :class:`DepEdge`, in table order (memoised)."""
        cached = self._edge_cache.get("edges")
        if cached is None:
            # rows were checked on the way in: _make skips the checks
            cached = [DepEdge._make((s, d, lat, dist, KINDS[k], key))
                      for s, d, key, lat, dist, k in self._rows]
            self._edge_cache["edges"] = cached
        return cached

    def edges(self, kind: Optional[DepKind] = None) -> Iterator[DepEdge]:
        """Iterate all edges (optionally of a single kind), deterministic."""
        if kind is None:
            return iter(self._all_edges())
        cache_key = ("edges", kind)
        cached = self._edge_cache.get(cache_key)
        if cached is None:
            cached = [e for e in self._all_edges() if e.kind is kind]
            self._edge_cache[cache_key] = cached
        return iter(cached)

    def data_edges(self) -> Iterator[DepEdge]:
        return self.edges(DepKind.DATA)

    def _buckets(self, side: str) -> dict[int, list[DepEdge]]:
        """Edges grouped by destination (``"in"``) or source (``"out"``),
        each group in table order (memoised)."""
        cached = self._edge_cache.get(("buckets", side))
        if cached is None:
            cached = {o: [] for o in self._ops}
            if side == "in":
                for e in self._all_edges():
                    cached[e.dst].append(e)
            else:
                for e in self._all_edges():
                    cached[e.src].append(e)
            self._edge_cache[("buckets", side)] = cached
        return cached

    def _incident(self, side: str, op_id: int,
                  kind: Optional[DepKind]) -> list[DepEdge]:
        cache_key = (side, op_id, kind)
        cached = self._edge_cache.get(cache_key)
        if cached is None:
            edges = self._buckets(side)[op_id]
            cached = [e for e in edges if kind is None or e.kind is kind]
            self._edge_cache[cache_key] = cached
        return cached

    def in_edges(self, op_id: int,
                 kind: Optional[DepKind] = None) -> list[DepEdge]:
        return self._incident("in", op_id, kind)

    def out_edges(self, op_id: int,
                  kind: Optional[DepKind] = None) -> list[DepEdge]:
        return self._incident("out", op_id, kind)

    def consumers(self, op_id: int) -> list[DepEdge]:
        """DATA out-edges of *op_id* (each is one queue lifetime)."""
        return self.out_edges(op_id, DepKind.DATA)

    def producers(self, op_id: int) -> list[DepEdge]:
        """DATA in-edges of *op_id*."""
        return self.in_edges(op_id, DepKind.DATA)

    def remove_edge(self, edge: DepEdge) -> None:
        rows = self._rows
        i = bisect.bisect_left(rows, (edge.src, edge.dst, edge.key))
        if i == len(rows) or rows[i][:3] != (edge.src, edge.dst, edge.key):
            raise KeyError(f"no edge {edge.src}->{edge.dst} key {edge.key}")
        del rows[i]
        self._bump()

    def fanout(self, op_id: int) -> int:
        """Number of DATA consumers of an op's value (drives copy trees)."""
        return len(self.consumers(op_id))

    def max_fanout(self) -> int:
        return max((self.fanout(o) for o in self._sorted_ids()), default=0)

    # ----------------------------------------------------------- structure

    def neighbors_data(self, op_id: int) -> set[int]:
        """Ops connected to *op_id* by a DATA edge in either direction."""
        cache_key = ("nbr", op_id)
        cached = self._edge_cache.get(cache_key)
        if cached is not None:
            return cached
        out = {e.src for e in self.producers(op_id)}
        out |= {e.dst for e in self.consumers(op_id)}
        out.discard(op_id)
        self._edge_cache[cache_key] = out
        return out

    def has_zero_distance_cycle(self) -> bool:
        """A cycle of distance-0 edges makes the loop unschedulable."""
        return self.arrays().has_zero_distance_cycle()

    def recurrence_ops(self) -> set[int]:
        """Ops participating in some dependence cycle (recurrence circuit).

        Used to report which loops are recurrence-bound (Figs. 8 vs 9).
        """
        arr = self.arrays()
        return {arr.ids[i] for i in arr.cyc_nodes}

    def sum_latency(self) -> int:
        return sum(op.latency for op in self._sorted_ops())

    # -------------------------------------------------------------- copies

    def live_in_ops(self) -> list[int]:
        """Ops with no DATA producers (they read loop invariants/live-ins).

        The paper defers loop-invariant handling to future work; we model
        live-in operands as coming from a non-queue constant store, so such
        ops simply have fewer queue reads.
        """
        return [o for o in self._sorted_ids() if not self.producers(o)]

    def copy_ops(self) -> list[int]:
        return [op.op_id for op in self._sorted_ops() if op.is_copy]

    def source_ops(self) -> list[int]:
        """Ops that existed before compiler-inserted COPY/MOVE ops."""
        return [op.op_id for op in self._sorted_ops()
                if not op.is_copy and not op.is_move]

    # ------------------------------------------------------------- utility

    def retimed(self, model: LatencyModel) -> "Ddg":
        """Return a copy of the graph with a different latency model.

        DATA edge latencies are recomputed from the (re-timed) producer
        latencies; MEM/SEQ latencies are preserved.  Parallel-edge keys are
        renumbered 0, 1, ... as if every edge were re-added in order.
        """
        ops = [model.retime(op) for op in self._sorted_ops()]
        lat = {op.op_id: op.latency for op in ops}
        rows = keyed_rows([
            (s, d, key, lat[s] if k == DATA_CODE else el, dist, k)
            for s, d, key, el, dist, k in self._rows])
        return Ddg.from_table(self.name, self.trip_count, ops, rows)

    def copy(self, name: Optional[str] = None) -> "Ddg":
        """Deep copy (ops and edge rows are immutable and shared; the
        containers holding them are copied)."""
        out = Ddg(name or self.name, self.trip_count)
        out._ops = dict(self._ops)
        out._rows = list(self._rows)
        out._next_id = self._next_id
        return out

    def arrays(self) -> "DdgArrays":
        """Packed struct-of-arrays view (:class:`~repro.ir.ddgarrays.
        DdgArrays`) of this graph -- the schedulers' hot-path
        representation.  Built lazily, memoised on the structural cache:
        any mutation invalidates it and the next call rebuilds."""
        cached = self._edge_cache.get("arrays")
        if cached is None:
            from .ddgarrays import DdgArrays
            cached = DdgArrays(self)
            self._edge_cache["arrays"] = cached
        return cached

    def fresh_id(self) -> int:
        """Peek the id the next inserted op will get."""
        return self._next_id

    def __len__(self) -> int:
        return self.n_ops

    def __contains__(self, op_id: int) -> bool:
        return op_id in self._ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Ddg({self.name!r}, ops={self.n_ops}, "
                f"edges={self.n_edges}, trip={self.trip_count})")

    def summary(self) -> str:
        """Multi-line human-readable dump used by examples and the CLI."""
        lines = [f"loop {self.name}: {self.n_ops} ops, {self.n_edges} deps, "
                 f"trip_count={self.trip_count}"]
        for op in self._sorted_ops():
            cons = ", ".join(
                f"->{self.op(e.dst).name}"
                + (f"[d={e.distance}]" if e.distance else "")
                for e in self.out_edges(op.op_id))
            lines.append(f"  {op.name:>12} {op.opcode.mnemonic:<6}"
                         f" lat={op.latency} {cons}")
        return "\n".join(lines)


def merge_ddgs(name: str, parts: Iterable[Ddg],
               trip_count: Optional[int] = None) -> Ddg:
    """Disjoint union of several DDGs (used by tests and the generator).

    Ops are renumbered densely, part by part, in id order; *trip_count*
    defaults to the parts' maximum."""
    parts = list(parts)
    if trip_count is None:
        trip_count = max((p.trip_count for p in parts), default=100)
    ops: list[Operation] = []
    rows: list[Row] = []
    for part in parts:
        remap: dict[int, int] = {}
        for op in part._sorted_ops():
            remap[op.op_id] = nid = len(ops)
            ops.append(op.with_id(nid, origin=op.origin,
                                  unroll_index=op.unroll_index))
        rows.extend((remap[s], remap[d], key, lat, dist, k)
                    for s, d, key, lat, dist, k in part._rows)
    return Ddg.from_table(name, trip_count, ops, keyed_rows(rows))
