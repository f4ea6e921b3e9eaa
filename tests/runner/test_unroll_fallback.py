"""The ``do_unroll`` fallback schedules both candidates and finishes one.

``compile_loop(do_unroll=True)`` schedules the unrolled loop, then the
rolled one unless the unrolled per-iteration II already meets the
rolled loop's MII; it keeps the unrolled schedule unless its
per-iteration II is worse, and only then allocates queues for and
verifies the kept schedule.

``data/unroll_fallback_outcomes.json`` holds the outcome of every
classic kernel on the paper's QRF presets (``do_unroll=True,
verify=True``) as produced when the fallback compiled the rolled loop a
second time just to allocate it; the single-finish pipeline must return
the same outcomes.  The kernels all keep their unrolled schedule, so the
fixture adds ``synth-0049``, the first corpus loop whose fallback keeps
the rolled one (on ``queu-6fu``).
"""

import dataclasses
import json
import pathlib

import pytest

from repro.ir.unroll import select_unroll_factor
from repro.machine.presets import paper_qrf_machines
from repro.runner import pipeline
from repro.runner.pipeline import compile_loop
from repro.workloads.kernels import all_kernels
from repro.workloads.synth import SynthConfig, generate_corpus

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" /
     "unroll_fallback_outcomes.json").read_text())

MACHINES = paper_qrf_machines()
LOOPS = all_kernels() + generate_corpus(SynthConfig(n_loops=50))[49:]


def _fallback_jobs():
    """(kernel, machine) pairs where the unroll policy picks factor > 1,
    i.e. where both candidates are scheduled."""
    return [(ddg, m) for ddg in LOOPS for m in MACHINES
            if select_unroll_factor(
                ddg, pipeline._fu_counts(m),
                max_factor=pipeline.UNROLL_MAX_FACTOR,
                max_ops=pipeline.UNROLL_MAX_OPS).factor > 1]


def test_kernel_outcomes_match_the_golden_fixture():
    got = [dataclasses.asdict(
               compile_loop(ddg, m, do_unroll=True, verify=True).outcome)
           for ddg in LOOPS for m in MACHINES]
    want = sorted(GOLDEN, key=lambda r: (r["loop"], r["machine"]))
    assert sorted(got, key=lambda r: (r["loop"], r["machine"])) == want


def test_fallback_allocates_and_verifies_once(monkeypatch):
    calls = {"allocate": 0, "verify": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pipeline, "allocate_for_schedule",
                        counting("allocate", pipeline.allocate_for_schedule))
    monkeypatch.setattr(pipeline, "verify_schedule",
                        counting("verify", pipeline.verify_schedule))
    jobs = _fallback_jobs()
    assert jobs
    kept = set()
    for ddg, m in jobs:
        calls.update(allocate=0, verify=0)
        compiled = compile_loop(ddg, m, do_unroll=True, verify=True)
        assert not compiled.outcome.failed
        assert calls == {"allocate": 1, "verify": 1}, (ddg.name, m.name)
        assert compiled.outcome.total_queues == compiled.usage.total_queues
        kept.add(compiled.outcome.unroll_factor > 1)
    assert kept == {True, False}


@pytest.mark.parametrize("allocate", [True, False])
def test_allocate_flag_reaches_the_kept_schedule(allocate):
    ddg, m = _fallback_jobs()[0]
    compiled = compile_loop(ddg, m, do_unroll=True, allocate=allocate)
    assert (compiled.usage is not None) is allocate
    assert (compiled.outcome.total_queues is not None) is allocate


def test_rolled_loop_is_scheduled_only_when_it_can_win(monkeypatch):
    scheduled = []
    real_schedule_loop = pipeline.schedule_loop

    def counting(work, machine, **kwargs):
        scheduled.append(work.n_ops)
        return real_schedule_loop(work, machine, **kwargs)

    monkeypatch.setattr(pipeline, "schedule_loop", counting)
    engine_calls = {}
    for ddg, m in _fallback_jobs():
        scheduled.clear()
        outcome = compile_loop(ddg, m, do_unroll=True).outcome
        rolled, _ = pipeline._frontend(ddg, 1, True, "slack")
        shortcut = (outcome.unroll_factor > 1 and outcome.ii_per_iteration
                    <= pipeline._bounds(rolled, m).mii)
        assert len(scheduled) == (1 if shortcut else 2), (ddg.name, m.name)
        engine_calls[ddg.name, m.name] = (len(scheduled),
                                          outcome.unroll_factor)
    # the shortcut applies: one engine call for most fallback jobs
    assert sum(n == 1 for n, _ in engine_calls.values()) \
        > len(engine_calls) // 2
    # the rolled loop wins here, so both candidates were scheduled
    assert engine_calls["synth-0049", "queu-6fu"] == (2, 1)
