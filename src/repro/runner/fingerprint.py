"""Deterministic content fingerprints for compile jobs.

A job's cache key must be a pure function of everything that can change
its result: the loop DDG (ops, edges, latencies, trip count), the machine
description (FU mix, register-file kind, latency overrides, queue budget,
cluster topology) and the pipeline options.  Everything is canonicalised
into a JSON document with sorted keys and hashed with SHA-256, so keys are
stable across processes, interpreter runs and machines -- the property the
content-addressed result cache relies on.

``SCHEMA_VERSION`` is folded into every key; bump it whenever the meaning
of a signature field (or of a cached record) changes, and stale cache
entries become unreachable instead of wrong.
"""

from __future__ import annotations

import hashlib
import json

from repro.ir.ddg import KINDS, Ddg
from repro.machine.cluster import ClusteredMachine
from repro.machine.machine import Machine

#: Bump on any change to signature layout or cached-record semantics.
#: v2: options signature gained the ``scheduler`` engine name.
#: v3: ``partition_strategy`` became the registry-backed ``partitioner``
#:     (same default, new field name and engine set -- keys must never
#:     alias against v2 entries).
#: v4: options signature gained the II search mode and
#:     cached records gained the optional ``wall_s`` cost estimate.
#: v5: options signature gained ``verify`` (the static schedule proof);
#:     a verified and an unverified compile must never share a record.
#: v6: options signature lost the II search mode (each engine has one
#:     walk); v5 keys carry the field and must not alias the new ones.
#: v7: options signature names only the engine the machine runs: no
#:     ``scheduler`` on rings, no ``partitioner``/``use_moves`` on
#:     single-cluster machines.
SCHEMA_VERSION = 7


#: ``DepKind.value`` by edge-table kind code.
_KIND_VALUES = tuple(kind.value for kind in KINDS)


#: ``json.dumps`` with non-default arguments builds a new encoder per
#: call; the canonical one is built once (it holds no per-call state)
_encode_canonical = json.JSONEncoder(sort_keys=True,
                                     separators=(",", ":")).encode


def canonical_json(obj: object) -> str:
    """Canonical (sorted-key, minimal-separator) JSON encoding: the same
    text as ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``."""
    return _encode_canonical(obj)


def ddg_signature(ddg: "Ddg") -> dict:
    """Structure-complete signature of a loop DDG.

    Ops are keyed by (id, opcode, latency) -- names, unroll indices and
    origins are bookkeeping that cannot affect scheduling.  Edge order is
    the graph's deterministic iteration order.  Built afresh on every
    call; the job key memoises only its JSON (:func:`ddg_json`).
    """
    return {
        "name": ddg.name,
        "trip": ddg.trip_count,
        "ops": [(op.op_id, op.opcode.mnemonic, op.latency)
                for op in ddg.operations],
        "edges": [(s, d, key, lat, dist, _KIND_VALUES[k])
                  for s, d, key, lat, dist, k in ddg.edge_rows()],
    }


def _single_machine_signature(machine: "Machine") -> dict:
    return {
        "kind": "single",
        "name": machine.name,
        "rf": machine.rf_kind.value,
        "fus": {t.value: n for t, n in sorted(
            machine.fus.counts.items(), key=lambda kv: kv[0].value)},
        "latencies": {op.mnemonic: lat for op, lat in sorted(
            machine.latencies.overrides.items(),
            key=lambda kv: kv[0].mnemonic)},
        "budget": (machine.queue_budget.private,
                   machine.queue_budget.ring_out_cw,
                   machine.queue_budget.ring_out_ccw,
                   machine.queue_budget.positions),
    }


def machine_signature(machine: "Machine | ClusteredMachine") -> dict:
    """Signature of a single-cluster or ring-clustered machine."""
    if isinstance(machine, ClusteredMachine):
        return {
            "kind": "clustered",
            "name": machine.name,
            "n_clusters": machine.n_clusters,
            "allow_moves": machine.allow_moves,
            "xlat": machine.inter_cluster_latency,
            "cluster": _single_machine_signature(machine.cluster),
        }
    return _single_machine_signature(machine)


def ddg_json(ddg: "Ddg") -> str:
    """Canonical JSON of :func:`ddg_signature`: the loop's part of the
    job key, memoised on the DDG's structural cache (a mutation clears
    it).  A sweep keys the same loop against many machines and option
    variants; the signature dict the text is built from is not kept.
    Equal strings mean loops that compile alike."""
    js = ddg._edge_cache.get("fingerprint_json")
    if js is None:
        js = canonical_json(ddg_signature(ddg))
        ddg._edge_cache["fingerprint_json"] = js
    return js


def job_key(ddg: "Ddg", machine: "Machine | ClusteredMachine",
            options_signature: dict) -> str:
    """SHA-256 content hash identifying one compile job.

    The document is composed textually from per-part canonical JSON --
    identical bytes to ``canonical_json({"v": ..., "ddg": ..., ...})``
    ("ddg" < "machine" < "options" < "v" is already sorted order) -- so
    the DDG fragment, by far the largest, is serialised once per graph
    (:func:`ddg_json`).
    """
    doc = '{"ddg":%s,"machine":%s,"options":%s,"v":%d}' % (
        ddg_json(ddg), machine_json(machine),
        canonical_json(options_signature), SCHEMA_VERSION)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


#: Identity-keyed machine-signature JSON memo.  Machines are immutable
#: (frozen dataclasses) but hold dict-valued parts, so they cannot key a
#: hash-based cache; a sweep reuses a handful of machine objects across
#: thousands of jobs, so identity is the right key.  The held reference
#: keeps the id from being recycled; the size cap bounds long-lived
#: processes (the sweep service) that build machines ad hoc.
_MACHINE_JSON: dict[int, tuple[object, str]] = {}


def machine_json(machine: "Machine | ClusteredMachine") -> str:
    """Canonical JSON of :func:`machine_signature` (memoised per
    machine object): the machine's part of the job key."""
    entry = _MACHINE_JSON.get(id(machine))
    if entry is not None:
        return entry[1]
    if len(_MACHINE_JSON) > 512:
        _MACHINE_JSON.clear()
    js = canonical_json(machine_signature(machine))
    _MACHINE_JSON[id(machine)] = (machine, js)
    return js
