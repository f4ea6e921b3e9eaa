"""DdgArrays must agree edge-for-edge with the object-graph API."""

import pytest

from repro.ir.ddg import DepKind
from repro.ir.copyins import insert_copies
from repro.ir.unroll import unroll
from repro.machine.resources import POOL_ID_FOR
from repro.workloads.kernels import KERNELS, kernel
from repro.workloads.synth import SynthConfig, generate_corpus


def _graphs():
    for name in sorted(KERNELS):
        yield kernel(name)
        yield insert_copies(kernel(name)).ddg
    yield insert_copies(unroll(kernel("dot"), 3)).ddg
    for ddg in generate_corpus(SynthConfig(n_loops=6, seed=7)):
        yield ddg


@pytest.mark.parametrize("ddg", list(_graphs()), ids=lambda d: d.name)
def test_csr_matches_edge_objects(ddg):
    arr = ddg.arrays()
    assert arr.ids == ddg.op_ids
    assert arr.n == ddg.n_ops
    for i, o in enumerate(arr.ids):
        op = ddg.op(o)
        assert arr.index[o] == i
        assert arr.latency[i] == op.latency
        assert arr.pool[i] == POOL_ID_FOR[op.fu_type]
        ins = ddg.in_edges(o)
        got_in = [(arr.ids[arr.in_src[j]], arr.in_lat[j], arr.in_dist[j],
                   bool(arr.in_data[j]))
                  for j in range(arr.in_ptr[i], arr.in_ptr[i + 1])]
        assert got_in == [(e.src, e.latency, e.distance,
                           e.kind is DepKind.DATA) for e in ins]
        outs = ddg.out_edges(o)
        got_out = [(arr.ids[arr.out_dst[j]], arr.out_lat[j],
                    arr.out_dist[j], bool(arr.out_data[j]))
                   for j in range(arr.out_ptr[i], arr.out_ptr[i + 1])]
        assert got_out == [(e.dst, e.latency, e.distance,
                            e.kind is DepKind.DATA) for e in outs]
        nbrs = {arr.ids[arr.nbr[j]]
                for j in range(arr.nbr_ptr[i], arr.nbr_ptr[i + 1])}
        assert nbrs == ddg.neighbors_data(o)


@pytest.mark.parametrize("ddg", list(_graphs()), ids=lambda d: d.name)
def test_scc_and_cycle_edges_match_networkx(ddg, reachability):
    """SCCs and cycle edges against a brute-force reachability oracle
    (named for the networkx oracle it replaced)."""
    arr = ddg.arrays()
    reach = reachability(arr.n, zip(arr.e_src, arr.e_dst))
    # same partition of nodes into components: u and v share one iff
    # each reaches the other
    expected = {frozenset({u} | {v for v in reach[u] if u in reach[v]})
                for u in range(arr.n)}
    got: dict[int, set] = {}
    for i, c in enumerate(arr.scc_id):
        got.setdefault(c, set()).add(i)
    assert sorted(map(sorted, got.values())) \
        == sorted(map(sorted, expected))
    # cycle-restricted edges: exactly the edges inside a cyclic SCC (a
    # node is on a cycle iff it reaches itself)
    cyclic_nodes = {u for u in range(arr.n) if u in reach[u]}
    n_expected = sum(1 for s, d in zip(arr.e_src, arr.e_dst)
                     if s in cyclic_nodes and d in cyclic_nodes
                     and arr.scc_id[s] == arr.scc_id[d])
    assert len(arr.cyc_edges) == n_expected
    assert arr.cyc_n == len(cyclic_nodes)
    assert {arr.ids[i] for i in cyclic_nodes} == ddg.recurrence_ops()
    # the compacted subgraph preserves every cycle's latency/distance sums
    for s, d, lat, dist in arr.cyc_edges:
        assert 0 <= s < arr.cyc_n and 0 <= d < arr.cyc_n
        assert lat >= 0 and dist >= 0


def test_arrays_cache_invalidates_on_mutation():
    ddg = kernel("daxpy")
    a1 = ddg.arrays()
    assert ddg.arrays() is a1
    from repro.ir.operations import Opcode
    ddg.add_operation(Opcode.ADD)
    a2 = ddg.arrays()
    assert a2 is not a1
    assert a2.n == a1.n + 1
