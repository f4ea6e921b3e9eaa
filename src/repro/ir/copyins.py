"""Copy-operation insertion (Section 2 of the paper).

A queue register file destroys a value on read, so a value consumed by
``n > 1`` operations must be written into ``n`` distinct queues.  Rather
than give every FU ``n`` write ports, the paper introduces a *copy
operation*, executed by a dedicated FU, that reads one queue and writes two
queues (Fig. 2).  A value with ``n`` consumers therefore needs a fan-out
tree of exactly ``n - 1`` copies: the producer writes one queue, each copy
consumes one tree edge and produces two.

Tree shape matters: every copy on the path producer -> consumer adds its
latency to that path, and a longer path through a recurrence circuit raises
RecMII.  Three strategies are provided (ablation A1):

* ``"chain"``    -- linear chain; consumer *i* sits behind *i* copies.
* ``"balanced"`` -- recursively split consumers in halves; all consumers at
  depth ~ ``ceil(log2 n)``.
* ``"slack"``    -- (default) Huffman tree weighted by consumer criticality:
  consumers on long downstream paths (low slack) get shallow positions.
  With equal weights this degenerates to ``balanced``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.kernels import zero_heights

from .ddg import DATA_CODE, Ddg, DepKind, Row
from .operations import Opcode, Operation

CopyStrategy = Literal["chain", "balanced", "slack"]


@dataclass
class CopyInsertionResult:
    """Outcome of :func:`insert_copies`."""

    ddg: Ddg
    n_copies: int
    #: copy depth (number of copies traversed) per rewritten (src, dst, key)
    #: original data edge.
    depth_by_edge: dict[tuple[int, int, int], int] = field(
        default_factory=dict)

    @property
    def max_depth(self) -> int:
        return max(self.depth_by_edge.values(), default=0)


# ----------------------------------------------------------- tree shaping

class _Leaf:
    """A consumer edge to be served by the fan-out tree.

    ``edge`` is the edge-table row of the original DATA edge."""

    __slots__ = ("edge", "weight")

    def __init__(self, edge: Row, weight: float) -> None:
        self.edge = edge
        self.weight = weight


class _Node:
    """Internal tree node == one copy op; leaves == consumer edges."""

    __slots__ = ("left", "right")

    def __init__(self, left: "_Node | _Leaf",
                 right: "_Node | _Leaf") -> None:
        self.left = left
        self.right = right


def _tree_chain(leaves: list[_Leaf]) -> "_Node | _Leaf":
    # most critical consumer exits first (depth 1), the rest chain deeper
    ordered = sorted(leaves, key=lambda l: -l.weight)
    node: "_Node | _Leaf" = ordered[-1]
    for leaf in reversed(ordered[:-1]):
        node = _Node(leaf, node)
    return node


def _tree_balanced(leaves: list[_Leaf]) -> "_Node | _Leaf":
    if len(leaves) == 1:
        return leaves[0]
    mid = (len(leaves) + 1) // 2
    return _Node(_tree_balanced(leaves[:mid]), _tree_balanced(leaves[mid:]))


def _tree_huffman(leaves: list[_Leaf]) -> "_Node | _Leaf":
    # classic Huffman: repeatedly merge the two lightest subtrees, so heavy
    # (critical) leaves end up shallow.
    counter = itertools.count()
    heap: list[tuple[float, int, object]] = [
        (leaf.weight, next(counter), leaf) for leaf in leaves]
    heapq.heapify(heap)
    while len(heap) > 1:
        w1, _, t1 = heapq.heappop(heap)
        w2, _, t2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, next(counter), _Node(t2, t1)))
    return heap[0][2]


_BUILDERS = {
    "chain": _tree_chain,
    "balanced": _tree_balanced,
    "slack": _tree_huffman,
}

#: the copy-tree strategies :func:`insert_copies` accepts
COPY_STRATEGIES = tuple(_BUILDERS)


# ------------------------------------------------------------- transform

def insert_copies(ddg: Ddg, *, strategy: CopyStrategy = "slack",
                  copy_latency: int = 1) -> CopyInsertionResult:
    """Rewrite *ddg* so that every value has at most one consumer.

    Returns a new graph (the input is not modified) in which every original
    DATA edge from a producer with fan-out > 1 is re-routed through a tree
    of COPY ops.  Loop-carried distances stay on the final copy->consumer
    edge; producer->copy and copy->copy edges have distance 0, so the
    rewrite never changes which iteration consumes a value.

    MEM/SEQ edges and single-consumer values are untouched.  Every new
    edge leaves a fresh copy op or enters one, so it starts a new
    ``(src, dst)`` group: keys count 0, 1 in emission order and never
    meet a key of the input.
    """
    if strategy not in _BUILDERS:
        raise ValueError(f"unknown copy strategy {strategy!r}")
    arr = ddg.arrays()
    index = arr.index
    # criticality inputs, all in packed (op-index) form
    heights = zero_heights(arr)
    scc = arr.scc_id
    scc_sizes = [0] * (max(scc) + 1 if scc else 0)
    for comp in scc:
        scc_sizes[comp] += 1
    has_self_cycle = {s for s, d in zip(arr.e_src, arr.e_dst) if s == d}
    n_copies = 0
    depth_by_edge: dict[tuple[int, int, int], int] = {}
    ops = ddg.operations
    next_id = ddg.fresh_id()
    copy_op = Operation(0, Opcode.COPY, latency=copy_latency)  # validates

    # every producer's DATA out-rows, in table order; rewriting one
    # producer's fan-out never touches another producer's
    consumers_of: dict[int, list[Row]] = {}
    for row in ddg.edge_rows(DepKind.DATA):
        consumers_of.setdefault(row[0], []).append(row)
    rewritten: set[int] = set()   # producers whose DATA rows are replaced
    new_rows: list[Row] = []

    for oid, consumers in consumers_of.items():
        if len(consumers) == 1:
            _s, dst, key = consumers[0][:3]
            depth_by_edge[(oid, dst, key)] = 0
            continue

        # weight: edges on a recurrence circuit dominate (every copy on
        # their path raises RecMII directly); otherwise the consumer's
        # downstream height (+1 so weights > 0).
        i_src = index[oid]
        comp = scc[i_src]
        src_cyclic = scc_sizes[comp] > 1 or i_src in has_self_cycle
        leaves = []
        for cons in consumers:
            dst, dist = cons[1], cons[4]
            if src_cyclic and scc[index[dst]] == comp:
                # scale by 1/distance: tighter recurrences are more
                # sensitive to added latency
                weight = 1e6 / max(1, dist)
            else:
                weight = float(heights[index[dst]] + 1)
            leaves.append(_Leaf(cons, weight))
        tree = _BUILDERS[strategy](leaves)
        rewritten.add(oid)

        # preorder, left subtree first: copy names (.cp0, .cp1, ...) and
        # the key of a repeated (copy, consumer) edge follow this order.
        # An explicit stack, not a recursive closure: a closure that
        # calls itself is a reference cycle, and would keep the tree
        # alive until the cycle collector runs
        producer = ddg.op(oid)
        n_local = 0
        stack: list[tuple["_Node | _Leaf", int, int, int]] = [
            (tree, oid, producer.latency, 0)]
        while stack:
            node, parent_id, parent_lat, depth = stack.pop()
            if isinstance(node, _Leaf):
                _s, dst, key, _lat, dist, _k = node.edge
                # two leaves of one copy may share a consumer (x * x)
                pkey = 1 if new_rows[-1][:2] == (parent_id, dst) else 0
                new_rows.append((parent_id, dst, pkey, parent_lat, dist,
                                 DATA_CODE))
                depth_by_edge[(oid, dst, key)] = depth
                continue
            cp_id = next_id
            next_id += 1
            ops.append(copy_op.with_id(
                cp_id, origin=oid, unroll_index=producer.unroll_index,
                name=f"{producer.name}.cp{n_local}"))
            n_local += 1
            new_rows.append((parent_id, cp_id, 0, parent_lat, 0, DATA_CODE))
            stack.append((node.right, cp_id, copy_latency, depth + 1))
            stack.append((node.left, cp_id, copy_latency, depth + 1))
        n_copies += n_local

    rows = [r for r in ddg.edge_rows()
            if r[5] != DATA_CODE or r[0] not in rewritten]
    rows += new_rows
    rows.sort()
    out = Ddg.from_table(ddg.name, ddg.trip_count, ops, rows, next_id)
    return CopyInsertionResult(out, n_copies, depth_by_edge)


def count_required_copies(ddg: Ddg) -> int:
    """Copies :func:`insert_copies` will create: ``sum(max(0, fanout-1))``."""
    return sum(max(0, ddg.fanout(o) - 1) for o in ddg.op_ids)


def strip_copies(ddg: Ddg) -> Ddg:
    """Inverse transform (short-circuit every copy op); used in tests.

    Every COPY node is removed and its incoming value edge is re-attached
    directly to its consumers, accumulating nothing (copies carry latency
    but the *logical* dataflow is identity).
    """
    out = ddg.copy()
    while True:
        copies = out.copy_ops()
        if not copies:
            return out
        cid = copies[0]
        (in_edge,) = out.producers(cid)
        consumers = out.consumers(cid)
        for e in consumers:
            out.remove_edge(e)
            # distance through a copy chain accumulates additively
            out.add_dependence(in_edge.src, e.dst,
                               distance=in_edge.distance + e.distance,
                               kind=DepKind.DATA)
        out.remove_edge(in_edge)
        out.remove_operation(cid)


def logical_dataflow(ddg: Ddg) -> set[tuple[int, int, int]]:
    """The copy-free dataflow relation ``{(producer, consumer, distance)}``.

    Two graphs with the same logical dataflow compute the same function;
    :func:`insert_copies` must preserve it (tested property).
    Multiplicity is ignored by the set; tests also compare sorted lists.
    """
    stripped = strip_copies(ddg)
    return {(e.src, e.dst, e.distance) for e in stripped.data_edges()}
