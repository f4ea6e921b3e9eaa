"""Frozen CSR view of a :class:`~repro.ir.ddg.Ddg`.

The schedulers walk dependence edges millions of times per corpus sweep;
iterating :class:`~repro.ir.ddg.DepEdge` objects dominates their
profiles.  A :class:`DdgArrays` packs one graph -- **once per loop** --
into flat integer arrays the inner loops index directly:

* ``ids``/``index`` map dense op indices (0..n-1) to/from op ids;
* ``latency``/``pool`` are per-op int vectors (``pool`` is the integer
  hardware-pool id of :data:`repro.machine.resources.POOL_IDS`, so the
  reservation tables never hash :class:`~repro.ir.operations.FuType`);
* predecessor/successor edges in CSR form (``in_ptr``/``out_ptr`` index
  arrays plus parallel data arrays for endpoint, latency, distance and a
  DATA flag) in exactly ``Ddg.in_edges``/``Ddg.out_edges`` order;
* one flat edge list (``e_src``/``e_dst``/``e_lat``/``e_dist``) for the
  Bellman-Ford passes (heights, RecMII);
* a DATA-neighbourhood CSR (``nbr_ptr``/``nbr``) for cluster affinity;
* strongly-connected-component ids plus the *cycle-restricted* edge list
  ``cyc_edges`` over the ``cyc_n`` nodes ``cyc_nodes`` of cyclic SCCs: a
  positive dependence cycle can only use edges inside one SCC, so
  RecMII's repeated positive-cycle tests run on the (usually tiny)
  recurrence subgraph instead of the whole loop body.

The graph's edge table is already in ``(src, dst, key)`` order, which is
the out-CSR order, so the view is a transposition of the table, not a
walk and re-sort.  The successor arrays *are* the flat edge arrays
(``out_dst is e_dst``); all of them are read-only.

Instances are immutable snapshots.  Obtain them through
:meth:`Ddg.arrays`, which memoises on the graph's structural cache --
any mutation invalidates, the next call rebuilds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.machine.resources import POOL_ID_FOR

from .ddg import DATA_CODE

if TYPE_CHECKING:  # pragma: no cover
    from .ddg import Ddg


class DdgArrays:
    """Immutable packed-array view of one loop DDG (see module doc).

    The per-op vectors and the flat/successor edge arrays are built up
    front; the predecessor CSR, the DATA neighbourhood, the SCC ids and
    the cycle-restricted edges are built on first access (a front-end
    intermediate such as an unrolled body only ever needs SCCs)."""

    __slots__ = (
        "n", "ids", "index", "latency", "pool", "produces",
        "in_ptr", "in_src", "in_lat", "in_dist", "in_data",
        "out_ptr", "out_dst", "out_lat", "out_dist", "out_data",
        "e_src", "e_dst", "e_lat", "e_dist",
        "nbr_ptr", "nbr",
        "scc_id", "cyc_n", "cyc_nodes", "cyc_edges",
        "ii_cache",
    )

    def __init__(self, ddg: "Ddg") -> None:
        #: per-II derived-analysis memo (heights, priority orders, SMS
        #: analyses -- all pure functions of (this view, II)).  II
        #: drivers re-probe the same (loop, II) points across machines
        #: and search modes; the memo rides the view, which itself
        #: rides the Ddg's structural cache, so any mutation drops both.
        self.ii_cache: dict = {}
        ids = ddg.op_ids
        n = len(ids)
        index = {o: i for i, o in enumerate(ids)}
        self.n = n
        self.ids = ids
        self.index = index
        ops = ddg._sorted_ops()
        self.latency = [op.latency for op in ops]
        self.pool = [POOL_ID_FOR[op.fu_type] for op in ops]
        self.produces = [op.produces_value for op in ops]

        rows = ddg.edge_rows()
        if rows:
            src, dst, _key, lat, dist, kind = (list(c) for c in zip(*rows))
        else:
            src, dst, lat, dist, kind = [], [], [], [], []
        if n and ids[-1] != n - 1:
            # sparse ids (an op was removed): translate to dense indices;
            # ``index`` is monotone, so the table order carries over
            src = [index[o] for o in src]
            dst = [index[o] for o in dst]
        self.e_src = src
        self.e_dst = self.out_dst = dst
        self.e_lat = self.out_lat = lat
        self.e_dist = self.out_dist = dist
        self.out_data = [1 if k == DATA_CODE else 0 for k in kind]
        self.out_ptr = array("i", [bisect_left(src, i)
                                   for i in range(n + 1)])

    def __getattr__(self, name: str) -> object:
        # only reached for an empty slot: build the group that fills it
        build = _LAZY.get(name)
        if build is None:
            raise AttributeError(name)
        build(self)
        return object.__getattribute__(self, name)

    def _build_in(self) -> None:
        """Predecessor CSR: a stable sort by destination keeps each
        bucket in (src, key) order, i.e. ``Ddg.in_edges`` order."""
        src, dst = self.e_src, self.e_dst
        order = sorted(range(len(dst)), key=dst.__getitem__)
        by_dst = [dst[j] for j in order]
        self.in_ptr = array("i", [bisect_left(by_dst, i)
                                  for i in range(self.n + 1)])
        self.in_src = [src[j] for j in order]
        self.in_lat = [self.e_lat[j] for j in order]
        self.in_dist = [self.e_dist[j] for j in order]
        self.in_data = [self.out_data[j] for j in order]

    def _build_nbr(self) -> None:
        """DATA neighbourhood (either direction, deduplicated,
        ascending)."""
        nbr_sets: list[set[int]] = [set() for _ in range(self.n)]
        for s, d, k in zip(self.e_src, self.e_dst, self.out_data):
            if k and s != d:
                nbr_sets[s].add(d)
                nbr_sets[d].add(s)
        nbr_ptr = array("i", bytes(4 * (self.n + 1)))
        nbr: list[int] = []
        for i, ns in enumerate(nbr_sets):
            nbr.extend(sorted(ns))
            nbr_ptr[i + 1] = len(nbr)
        self.nbr_ptr = nbr_ptr
        self.nbr = nbr

    def _build_scc(self) -> None:
        self.scc_id = _scc_ids(self.n, self.out_ptr, self.out_dst)

    def _build_cycle_edges(self) -> None:
        """Compact the edges that can participate in a dependence cycle.

        An edge can only lie on a cycle when both endpoints share an SCC
        and that SCC is cyclic (more than one node, or a self-loop).
        Nodes of cyclic SCCs are renumbered 0..cyc_n-1.
        """
        scc = self.scc_id
        src, dst = self.e_src, self.e_dst
        cyclic: set[int] = set()
        members: dict[int, int] = {}
        for c in scc:
            members[c] = members.get(c, 0) + 1
        for c, count in members.items():
            if count > 1:
                cyclic.add(c)
        for s, d in zip(src, dst):
            if s == d:
                cyclic.add(scc[s])
        self.cyc_nodes = [i for i in range(self.n) if scc[i] in cyclic]
        remap = {i: c for c, i in enumerate(self.cyc_nodes)}
        self.cyc_n = len(remap)
        self.cyc_edges = [
            (remap[s], remap[d], lat, dist)
            for s, d, lat, dist in zip(src, dst, self.e_lat, self.e_dist)
            if scc[s] == scc[d] and scc[s] in cyclic]

    def has_zero_distance_cycle(self) -> bool:
        """Any cycle of distance-0 edges?  Restricted to the recurrence
        subgraph (a distance-0 cycle is a cycle, so all its edges live in
        ``cyc_edges``), then an iterative DFS 3-colouring."""
        n = self.cyc_n
        if not n:
            return False
        succs: list[list[int]] = [[] for _ in range(n)]
        for s, d, _lat, dist in self.cyc_edges:
            if dist == 0:
                if s == d:
                    return True
                succs[s].append(d)
        state = [0] * n  # 0 = white, 1 = on stack, 2 = done
        for root in range(n):
            if state[root]:
                continue
            stack = [(root, 0)]
            state[root] = 1
            while stack:
                v, ptr = stack[-1]
                if ptr < len(succs[v]):
                    stack[-1] = (v, ptr + 1)
                    w = succs[v][ptr]
                    if state[w] == 1:
                        return True
                    if state[w] == 0:
                        state[w] = 1
                        stack.append((w, 0))
                else:
                    state[v] = 2
                    stack.pop()
        return False


def _scc_ids(n: int, out_ptr: list[int],
             out_dst: list[int]) -> list[int]:
    """Strongly connected components over a CSR digraph (iterative
    Tarjan); returns a component id per node."""
    ids = [-1] * n
    low = [0] * n
    num = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for root in range(n):
        if ids[root] != -1 or num[root]:
            continue
        work: list[tuple[int, int]] = [(root, out_ptr[root])]
        num[root] = low[root] = counter = counter + 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, ptr = work[-1]
            if ptr < out_ptr[v + 1]:
                work[-1] = (v, ptr + 1)
                w = out_dst[ptr]
                if not num[w]:
                    counter += 1
                    num[w] = low[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, out_ptr[w]))
                elif on_stack[w] and num[w] < low[v]:
                    low[v] = num[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == num[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        ids[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
    return ids


#: Lazily built slot -> the builder that fills it (with its group).
_LAZY = {
    **dict.fromkeys(("in_ptr", "in_src", "in_lat", "in_dist", "in_data"),
                    DdgArrays._build_in),
    **dict.fromkeys(("nbr_ptr", "nbr"), DdgArrays._build_nbr),
    "scc_id": DdgArrays._build_scc,
    **dict.fromkeys(("cyc_n", "cyc_nodes", "cyc_edges"),
                    DdgArrays._build_cycle_edges),
}
