"""Golden verdicts and queue packings: the allocate/verify tail is pinned.

``data/verdicts.json`` holds, for a seeded sample of corpus loops on the
4/5/6-cluster rings and the 4/6/12-FU QRF presets (plus the five loops
whose ring schedules overflow a queue's positions), the full verifier
verdict of every schedule -- with and without the queue-count budget --
and every location's queue packing and depths as the allocator built
them.  It also holds the verdict of every schedule and every corruption
in the ``repro-vliw verify --mutations 1`` corpus.  Allocator and
verifier must reproduce all of it exactly: their fast paths change how
the work is done, never its result.

Regenerate (only when a verdict or a packing is meant to change)::

    PYTHONPATH=src python tests/verify/test_verdict_golden.py
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

import pytest

from repro.machine.cluster import ClusteredMachine
from repro.machine.presets import (clustered_machine, paper_clustered_machines,
                                   paper_qrf_machines, qrf_machine)
from repro.regalloc.queues import allocate_for_schedule
from repro.runner.pipeline import compile_loop
from repro.verify import mutation_corpus, verify_schedule

FIXTURE = pathlib.Path(__file__).parent / "data" / "verdicts.json"

#: corpus loops sampled for the fixture, and the sampling seed
SAMPLE_SIZE = 30
SAMPLE_SEED = 15
#: ring-sweep loops whose schedules overflow a queue (QUEUE_DEPTH)
OVERFLOW_LOOPS = ("synth-0116", "synth-0328", "synth-0817", "synth-0869",
                  "synth-1157")


def _verdict(sched, machine, **kwargs) -> dict:
    record = verify_schedule(sched, machine, **kwargs).to_json()
    del record["ok"]   # implied by the violations
    return record


def _packing(usage) -> list:
    return [{"kind": loc.kind.value, "cluster": loc.cluster,
             "queues": [[[lt.producer, lt.consumer, lt.edge_key]
                         for lt in q] for q in alloc.queues],
             "depths": alloc.depths}
            for loc, alloc in usage.by_location.items()]


def _sample_loops() -> list:
    from repro.workloads.synth import generate_corpus

    corpus = generate_corpus()
    picks = sorted(random.Random(SAMPLE_SEED).sample(range(len(corpus)),
                                                     SAMPLE_SIZE))
    by_name = {ddg.name: ddg for ddg in corpus}
    return [corpus[i] for i in picks] + [by_name[n] for n in OVERFLOW_LOOPS]


def sample_cases() -> dict:
    """``loop@machine`` -> verdicts and packing of its schedule."""
    out = {}
    for ddg in _sample_loops():
        for machine in paper_clustered_machines() + paper_qrf_machines():
            compiled = compile_loop(ddg, machine, allocate=False)
            sched = compiled.schedule
            if sched is None:
                continue
            usage = allocate_for_schedule(
                sched,
                machine if isinstance(machine, ClusteredMachine) else None)
            out[f"{ddg.name}@{machine.name}"] = {
                "verdict": _verdict(sched, machine),
                "budget_verdict": _verdict(sched, machine,
                                           enforce_queue_budget=True),
                "packing": _packing(usage),
                "max_depth": usage.max_depth,
                "total_queues": usage.total_queues,
            }
    return out


def mutation_cases() -> dict:
    """The ``repro-vliw verify --mutations 1`` corpus, verdict by
    verdict: ``engine/kernel`` -> schedule verdict plus one verdict per
    corruption (default machines and seed of the CLI)."""
    from repro.ir.copyins import insert_copies
    from repro.sched.partition import PartitionConfig, partitioned_schedule
    from repro.sched.partitioners import PARTITIONERS
    from repro.sched.strategies import SCHEDULERS
    from repro.workloads.kernels import KERNELS, kernel

    single, ring = qrf_machine(12), clustered_machine(4)
    out = {}
    for name in sorted(KERNELS):
        work = insert_copies(kernel(name)).ddg
        builds = [(s, single, engine.schedule(work, single))
                  for s, engine in SCHEDULERS.items()]
        builds += [(p, ring, partitioned_schedule(
            work, ring, config=PartitionConfig(partitioner=p)))
            for p in PARTITIONERS]
        for engine, machine, sched in builds:
            out[f"{engine}/{name}"] = {
                "verdict": _verdict(sched, machine),
                "mutations": [
                    [mut.name, _verdict(mut.schedule, mut.machine,
                                        usage=mut.usage)]
                    for mut in mutation_corpus(sched, machine, seed=0,
                                               rounds=1)],
            }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_sample_verdicts_and_packings_match_golden(golden):
    got = sample_cases()
    assert sorted(got) == sorted(golden["sample"])
    for case, want in golden["sample"].items():
        assert got[case] == want, case
    # the fixture covers real queue-depth overflows, not only proofs
    assert sum(any(v["kind"] == "queue-depth"
                   for v in c["verdict"]["violations"])
               for c in got.values()) == len(OVERFLOW_LOOPS)


def test_mutation_corpus_verdicts_match_golden(golden):
    got = mutation_cases()
    assert sorted(got) == sorted(golden["mutations"])
    for case, want in golden["mutations"].items():
        assert got[case] == want, case
    assert sum(len(c["mutations"]) for c in got.values()) == 1131


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {"sample": sample_cases(), "mutations": mutation_cases()}
    # one case per line: compact, yet a changed verdict is a one-line diff
    parts = []
    for part, cases in sorted(data.items()):
        rows = [json.dumps(k) + ":" + json.dumps(v, sort_keys=True,
                                                 separators=(",", ":"))
                for k, v in sorted(cases.items())]
        parts.append(json.dumps(part) + ":{\n" + ",\n".join(rows) + "}")
    FIXTURE.write_text("{" + ",\n".join(parts) + "}\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes, "
          f"{len(data['sample'])} sample + {len(data['mutations'])} "
          f"mutation cases)", file=sys.stderr)
