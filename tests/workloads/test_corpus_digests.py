"""The paper corpus is pinned loop by loop.

``data/corpus_digests.json`` holds one digest per loop of the default
corpus (``generate_corpus()``), taken over the raw generator output: the
loop name, its trip count, every op (id, opcode, name, latency) and
every edge-table row (src, dst, key, latency, distance, kind code), in
the graph's order.  Every sweep, golden schedule and job key starts from
these graphs, so a change to the generator must reproduce all of them.

With the default ``recent_bias`` of 2.0 every operand weight and every
weight total is an exact integer in a float, so the corpus does not
depend on how a Python version rounds ``sum`` over floats.

Regenerate (only when the corpus is meant to change)::

    PYTHONPATH=src python tests/workloads/test_corpus_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.runner.fingerprint import canonical_json

FIXTURE = pathlib.Path(__file__).parent / "data" / "corpus_digests.json"

#: hex digits kept per digest (a regression check, not a security hash)
DIGEST_HEX = 12


def loop_digest(ddg) -> str:
    doc = {
        "name": ddg.name,
        "trip_count": ddg.trip_count,
        "ops": [(op.op_id, op.opcode.mnemonic, op.name, op.latency)
                for op in ddg.operations],
        "edges": [list(row) for row in ddg.edge_rows()],
    }
    text = canonical_json(doc).encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:DIGEST_HEX]


def corpus_digests() -> list[str]:
    from repro.workloads.synth import generate_corpus

    return [loop_digest(ddg) for ddg in generate_corpus()]


def test_corpus_matches_fixture():
    expected = json.loads(FIXTURE.read_text())
    assert expected["digest_hex"] == DIGEST_HEX
    got = corpus_digests()
    assert len(got) == len(expected["loops"])
    bad = [i for i, (g, e) in enumerate(zip(got, expected["loops"]))
           if g != e]
    assert bad == [], f"{len(bad)} corpus loops changed, first: {bad[:10]}"


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {"digest_hex": DIGEST_HEX, "loops": corpus_digests()},
        indent=0) + "\n")
    print(f"wrote {FIXTURE}")
