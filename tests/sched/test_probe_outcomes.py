"""Per-probe outcomes of every partitioner, failed probes included.

``golden_schedules.json`` pins each engine's *final* schedule; a probe
that runs out of budget leaves no trace there, so a change on the
eviction path could alter a failed probe's work unseen.  This fixture
records every probe of a linear II walk -- MII upward until one lands --
for all registered engines on a seeded slice of the paper corpus (rolled
and unrolled twice) on the 4-, 5- and 6-cluster rings: the II, whether it
placed, the placement rounds and evictions it spent, and a digest of the
ordered ``sigma``/``cluster_of`` items it returned.

Regenerate (only when a change of search decisions is intended)::

    PYTHONPATH=src python tests/sched/test_probe_outcomes.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from typing import Optional

import pytest

from repro.ir.copyins import insert_copies
from repro.ir.ddg import Ddg
from repro.ir.unroll import unroll
from repro.machine.presets import clustered_machine
from repro.sched.arena import SchedArena
from repro.sched.ims import DEFAULT_BUDGET_RATIO
from repro.sched.mii import mii_report
from repro.sched.partitioners import PARTITIONERS
from repro.sched.schedule import ScheduleStats
from repro.workloads.corpus import paper_corpus

FIXTURE = pathlib.Path(__file__).parent / "data" / "probe_outcomes.json"

ENGINES = ("affinity", "balance", "first", "random", "agglomerative")
RINGS = (4, 5, 6)
#: corpus slice: loops drawn by this seed, each rolled and unrolled x2
SLICE_SEED = 32
SLICE_LOOPS = 10
#: II steps past MII a walk may take before it gives up
MAX_STEPS = 6


def _loops() -> list[tuple[str, Ddg]]:
    corpus = paper_corpus()
    picks = random.Random(SLICE_SEED).sample(range(len(corpus)),
                                             SLICE_LOOPS)
    out = []
    for i in sorted(picks):
        for factor in (1, 2):
            body = unroll(corpus[i], factor) if factor > 1 else corpus[i]
            out.append((f"{corpus[i].name}.u{factor}",
                        insert_copies(body).ddg))
    return out


def _digest(sigma: dict[int, int], cluster_of: dict[int, int]) -> str:
    text = json.dumps([list(sigma.items()), list(cluster_of.items())])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _walk(engine: str, ddg: Ddg, n_clusters: int
          ) -> list[list[object]]:
    """``[ii, placed, attempts, evictions, digest]`` per probe."""
    cm = clustered_machine(n_clusters)
    work = cm.cluster.retime(ddg)
    first = mii_report(work, cm).mii
    budget = DEFAULT_BUDGET_RATIO * work.n_ops
    eng = PARTITIONERS[engine]()
    rng = random.Random(0)
    arena = SchedArena()
    probes: list[list[object]] = []
    for ii in range(first, first + MAX_STEPS + 1):
        stats = ScheduleStats()
        state = eng.try_at_ii(work, cm, ii, budget=budget, stats=stats,
                              rng=rng, arena=arena)
        digest: Optional[str] = (None if state is None else
                                 _digest(state.sigma, state.cluster_of))
        probes.append([ii, state is not None, stats.attempts,
                       stats.evictions, digest])
        if state is not None:
            break
    return probes


def probe_records() -> dict[str, list[list[object]]]:
    return {f"{name}/{n}/{engine}": _walk(engine, ddg, n)
            for name, ddg in _loops()
            for n in RINGS
            for engine in ENGINES}


@pytest.fixture(scope="module")
def recorded() -> dict[str, list[list[object]]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_failed_probes(recorded):
    """The fixture is only a guard for the eviction path if it holds
    budget-exhausted probes that evicted, for every engine."""
    for engine in ENGINES:
        failed = [p for key, walk in recorded.items()
                  if key.endswith(f"/{engine}") for p in walk if not p[1]]
        assert len(failed) >= 3, engine
        assert sum(p[3] for p in failed) > 0, engine


def test_probe_outcomes_match_fixture(recorded):
    assert probe_records() == recorded


if __name__ == "__main__":
    records = probe_records()
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(records[key])}"
        for key in sorted(records)) + "\n}\n")
