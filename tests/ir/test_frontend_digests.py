"""Front-end equivalence: unroll and copy insertion are pinned bit for bit.

``data/frontend_digests.json`` holds, for every corpus loop and classic
kernel, every unroll factor the automatic policy may pick (``U = 1`` and
each ``U <= UNROLL_MAX_FACTOR`` with ``U * n_ops <= UNROLL_MAX_OPS``) and
every copy strategy, two digests of the front end's work graph:

* the full graph -- every op field (id, opcode, name, latency, unroll
  index, origin) and every edge with its parallel-edge key, in the
  graph's iteration order;
* the job-key fragment -- :func:`repro.runner.fingerprint.ddg_signature`,
  which every cache key embeds.

Edge keys and edge order feed every golden schedule and every job key,
so a change to the graph store must reproduce all of them; matching
signatures also keep existing result caches valid.

Regenerate (only when the front end's output is meant to change)::

    PYTHONPATH=src python tests/ir/test_frontend_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.ir.copyins import insert_copies
from repro.ir.unroll import unroll
from repro.runner.fingerprint import canonical_json, ddg_signature
from repro.runner.pipeline import UNROLL_MAX_FACTOR, UNROLL_MAX_OPS

FIXTURE = pathlib.Path(__file__).parent / "data" / "frontend_digests.json"

STRATEGIES = ("chain", "balanced", "slack")
#: hex digits kept per digest (a regression check, not a security hash)
DIGEST_HEX = 10


def _digest(obj: object) -> str:
    text = canonical_json(obj).encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:DIGEST_HEX]


def _graph_doc(ddg) -> dict:
    return {
        "ops": [(op.op_id, op.opcode.mnemonic, op.name, op.latency,
                 op.unroll_index, op.origin) for op in ddg.operations],
        "edges": [(e.src, e.dst, e.key, e.latency, e.distance, e.kind.value)
                  for e in ddg.edges()],
    }


def _factors(ddg) -> list[int]:
    return [u for u in range(1, UNROLL_MAX_FACTOR + 1)
            if u == 1 or u * ddg.n_ops <= UNROLL_MAX_OPS]


def _loops() -> list:
    from repro.workloads.kernels import all_kernels
    from repro.workloads.synth import generate_corpus

    return generate_corpus() + all_kernels()


def loop_digests(ddg) -> dict[str, str]:
    """``str(U)`` -> the graph and signature digests of every strategy,
    concatenated in :data:`STRATEGIES` order."""
    out = {}
    for u in _factors(ddg):
        base = unroll(ddg, u) if u > 1 else ddg
        parts = []
        for strategy in STRATEGIES:
            work = insert_copies(base, strategy=strategy).ddg
            parts.append(_digest(_graph_doc(work)))
            parts.append(_digest(ddg_signature(work)))
        out[str(u)] = "".join(parts)
    return out


def all_digests() -> dict:
    return {ddg.name: loop_digests(ddg) for ddg in _loops()}


def test_front_end_reproduces_every_digest():
    want = json.loads(FIXTURE.read_text())
    assert want["strategies"] == list(STRATEGIES)
    assert want["digest_hex"] == DIGEST_HEX
    got = all_digests()
    assert sorted(got) == sorted(want["loops"])
    bad = [name for name, digests in got.items()
           if digests != want["loops"][name]]
    assert not bad, f"{len(bad)} loops differ, first: {bad[:5]}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {"strategies": list(STRATEGIES), "digest_hex": DIGEST_HEX,
         "loops": all_digests()},
        sort_keys=True, indent=0) + "\n")
    print(f"wrote {FIXTURE}")
