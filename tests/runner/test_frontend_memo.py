"""The bounded front-end memo and the loop-major grid that keeps it whole.

``pipeline._FRONTEND_MEMO`` holds the (unroll ->) copy-insert bodies of
the ``MAX_FRONTEND_LOOPS`` most recently used source loops.  Evicting a
loop must cost nothing but a recompile of the same result, and a
``Grid`` must submit its jobs loop-major so a grid over more loops than
the bound still builds each body once.
"""

import gc
import weakref

import pytest

from repro.ir.ddg import DepKind
from repro.machine.presets import qrf_machine
from repro.runner import CompileJob, PipelineOptions, pipeline, sweep
from repro.runner.fingerprint import (canonical_json, ddg_json,
                                      ddg_signature, job_key)
from repro.runner.pipeline import compile_loop, execute_job
from repro.workloads.kernels import all_kernels, kernel
from repro.workloads.synth import SynthConfig, generate_corpus


def _fresh_loops(n):
    """*n* distinct loop objects no memo has seen."""
    return generate_corpus(SynthConfig(n_loops=n))


def test_memo_holds_at_most_the_bound():
    loops = [kernel(name) for name in ("daxpy", "dot", "fir4")] * 90
    loops = [ddg.copy() for ddg in loops]
    assert len(loops) > pipeline.MAX_FRONTEND_LOOPS
    m = qrf_machine(4)
    for ddg in loops:
        compile_loop(ddg, m, allocate=False)
    assert len(pipeline._FRONTEND_MEMO) <= pipeline.MAX_FRONTEND_LOOPS
    # the most recent loops are the ones kept
    assert loops[-1] in pipeline._FRONTEND_MEMO
    assert loops[0] not in pipeline._FRONTEND_MEMO


def test_a_hit_refreshes_its_loop(monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_FRONTEND_LOOPS", 3)
    a, b, c, d = _fresh_loops(4)
    m = qrf_machine(4)
    for ddg in (a, b, c, a, d):
        compile_loop(ddg, m, allocate=False)
    # b was the least recently used when d arrived
    assert b not in pipeline._FRONTEND_MEMO
    assert all(ddg in pipeline._FRONTEND_MEMO for ddg in (a, c, d))


def test_an_evicted_loop_recompiles_to_an_equal_result(monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_FRONTEND_LOOPS", 2)
    first, *others = _fresh_loops(4)
    m = qrf_machine(10)
    job = CompileJob(first, m, PipelineOptions(do_unroll=True, verify=True))
    before = execute_job(job)
    for ddg in others:
        execute_job(CompileJob(ddg, m, job.options))
    assert first not in pipeline._FRONTEND_MEMO
    assert execute_job(job) == before


def test_a_dropped_loop_frees_its_entries():
    ddg = kernel("fir4").copy()
    compile_loop(ddg, qrf_machine(4), do_unroll=True, allocate=False)
    n = len(pipeline._FRONTEND_MEMO)
    alive = weakref.ref(ddg)
    del ddg
    gc.collect()
    assert alive() is None
    assert len(pipeline._FRONTEND_MEMO) <= n - 1


@pytest.mark.parametrize("factor", [1, 2])
def test_a_mutated_loop_is_rebuilt(factor):
    ddg = kernel("daxpy").copy()
    m = qrf_machine(4)
    old = pipeline._frontend(ddg, factor, True, "slack")[0]
    assert pipeline._frontend(ddg, factor, True, "slack")[0] is old
    ddg.add_dependence(ddg.op_ids[-1], ddg.op_ids[0], distance=1,
                       kind=DepKind.MEM)
    new = pipeline._frontend(ddg, factor, True, "slack")[0]
    assert new is not old and new.n_edges > old.n_edges
    assert not compile_loop(ddg, m, allocate=False).outcome.failed


def test_machine_major_grid_builds_each_body_once(monkeypatch):
    """Cells added machine by machine over more loops than the bound:
    the loop-major submission still copy-inserts once per (loop,
    factor).  Run cell by cell, every loop would be evicted before the
    next machine reached it and rebuilt."""
    monkeypatch.setattr(pipeline, "MAX_FRONTEND_LOOPS", 3)
    loops = _fresh_loops(5) + [k.copy() for k in all_kernels()[:3]]
    machines = [qrf_machine(n) for n in (4, 10, 16)]
    seen = set()
    calls = []
    frontend, insert_copies = pipeline._frontend, pipeline.insert_copies

    def recording_frontend(ddg, factor, copies, copy_strategy):
        seen.add((id(ddg), factor))
        return frontend(ddg, factor, copies, copy_strategy)

    def counting_insert_copies(work, **kwargs):
        calls.append(work)
        return insert_copies(work, **kwargs)

    monkeypatch.setattr(pipeline, "_frontend", recording_frontend)
    monkeypatch.setattr(pipeline, "insert_copies", counting_insert_copies)
    grid = sweep(loops, machines, [dict(do_unroll=True)])
    assert [j.machine.name for j in grid.jobs[:len(loops)]] == \
        [machines[0].name] * len(loops)       # cells are machine-major
    results = grid.run()
    assert len(seen) > len(loops)             # some loops unroll
    assert len(calls) == len(seen)
    for (name, _opts), cell in results.items():
        assert [r.outcome.loop for r in cell] == [d.name for d in loops]
        assert {r.outcome.machine for r in cell} == {name}


def test_ddg_json_keeps_only_the_text():
    ddg = kernel("dot").copy()
    js = ddg_json(ddg)
    assert "fingerprint_sig" not in ddg._edge_cache
    assert ddg._edge_cache["fingerprint_json"] is js
    assert ddg_json(ddg) is js
    # the public signature is built afresh and still spells the same text
    sig = ddg_signature(ddg)
    assert sig is not ddg_signature(ddg)
    assert "fingerprint_sig" not in ddg._edge_cache
    assert canonical_json(sig) == js
    job_key(ddg, qrf_machine(4), {})
    assert "fingerprint_sig" not in ddg._edge_cache
