"""JSON job specifications: the wire format of ``POST /jobs``.

A job spec is a plain JSON object naming the three inputs of a
:class:`~repro.runner.job.CompileJob`::

    {"loop":    {"kernel": "daxpy"},
     "machine": {"kind": "clustered", "n_clusters": 4},
     "options": {"scheduler": "sms", "extras": ["sched_stats"]}}

Loops come from the kernel catalogue (``{"kernel": name}``) or the
seeded synthetic generator (``{"synth": {"seed": S, "index": I, ...}}``
-- deterministic: the same spec always yields the same DDG, hence the
same fingerprint).  Machines are the paper presets: ``qrf``/``crf``
single-cluster machines (``n_fus``) or the ring-``clustered`` machine
(``n_clusters``, ``allow_moves``).  ``options`` maps straight onto
:class:`~repro.runner.job.PipelineOptions` fields.

Each piece of per-spec work is done once per distinct spec:

* **Jobs** are memoised by the canonical JSON of the whole job spec, so
  a repeated spec -- however its keys are ordered -- returns the same
  :class:`CompileJob`, whose fingerprint is computed on first use and
  then reused.  The memo holds at most ``MAX_MEMO_SPECS`` specs and is
  cleared when full.  Returned jobs are shared: treat them as
  read-only.
* **Loops** are memoised by canonical loop spec, which matters beyond
  speed: the persistent worker pool keys its payload tables by DDG
  *identity*, so serving every request a fresh copy of the same loop
  would restart the pool (and defeat the front-end memo) on every
  submission.
* **Synth loops** come from one resumable generator stream per
  :class:`SynthConfig`.  Loop *i* depends on the draws of loops
  0..i-1, so the stream keeps a cursor (its rng and next index) and an
  rng-state checkpoint every ``SYNTH_CHECKPOINT_EVERY`` indices; a
  request for loop *i* resumes from the nearest saved state at or below
  *i*.  The loops on the way are only drawn, never built; loop *i*
  alone is built and validated.  Replay costs O(largest index asked
  for), not O(sum of indices).

Malformed specs raise :class:`JobSpecError`, which the daemon maps to
HTTP 400.  They are never memoised, so a repeat raises the same error.
A synth index must lie inside its corpus (``index < n_loops``);
``n_loops`` and ``max_ops`` are capped at ``MAX_SYNTH_LOOPS`` and
``MAX_SYNTH_OPS``, int knobs take ints only and float knobs finite
numbers: the replay runs on the daemon's event loop before any request
deadline applies.
"""

from __future__ import annotations

import dataclasses
import math
import random
import threading
from array import array
from typing import Optional

from repro.ir.ddg import Ddg
from repro.machine.presets import clustered_machine, crf_machine, qrf_machine
from repro.runner.fingerprint import canonical_json
from repro.sched.partitioners import check_partitioner
from repro.sched.strategies import check_scheduler
from repro.runner.job import CompileJob, PipelineOptions
from repro.workloads.kernels import KERNELS
from repro.workloads.synth import SynthConfig, build_loop, draw_loop


class JobSpecError(ValueError):
    """A malformed job spec (unknown kernel, bad machine kind, ...)."""


#: Job specs one request may carry.  A bound, not a throughput limit:
#: bigger sweeps split into several requests and still dedup/batch the
#: same -- while a runaway client cannot park an unbounded parse +
#: compile obligation behind a single deadline-less POST.
MAX_JOBS_PER_REQUEST = 4096

#: Largest synth corpus (``n_loops``) and loop body (``max_ops``) a
#: spec may name: 1.6x the paper's 1258 loops and the default corpus
#: tail.  Loop *i* is reached only by drawing loops 0..i-1, on the
#: daemon's event loop, so the two caps bound one request's replay:
#: 2048 loops take ~0.2 s with the default knobs and ~1.2 s with the
#: dearest ones found (64-op bodies, all arithmetic, binary ops, every
#: loop recurrent) on a 2-CPU x86 box, where an unchecked index could
#: stall every connection for hours.
MAX_SYNTH_LOOPS = 2048
MAX_SYNTH_OPS = 64

#: Distinct job specs :func:`parse_job` memoises before it starts over.
MAX_MEMO_SPECS = 4096

#: Synth stream indices between two saved rng states.
SYNTH_CHECKPOINT_EVERY = 64

#: Synth configs with a live stream before the streams start over.
MAX_SYNTH_STREAMS = 8

#: canonical job spec -> CompileJob (bounded by ``MAX_MEMO_SPECS``)
_JOB_MEMO: dict[str, CompileJob] = {}

#: canonical loop spec -> Ddg; grow-only, bounded by the spec space the
#: clients actually use (kernel names x synth configs)
_LOOP_MEMO: dict[str, Ddg] = {}

#: canonical machine spec -> machine object
_MACHINE_MEMO: dict[str, object] = {}

#: synth knob -> its type (int or float); ``arith_mix`` is not a knob
_SYNTH_KNOBS = {name: type(value)
                for name, value in vars(SynthConfig()).items()
                if isinstance(value, (int, float))}
_OPTION_FIELDS = {f.name for f in dataclasses.fields(PipelineOptions)}


def _require_mapping(spec: object, what: str) -> dict:
    if not isinstance(spec, dict):
        raise JobSpecError(f"{what} spec must be a JSON object, "
                           f"not {type(spec).__name__}")
    return spec


class _SynthStream:
    """The generator stream of one :class:`SynthConfig`, resumable.

    ``rng`` sits just before loop ``next_index``; ``checkpoints[j]`` is
    the rng state just before loop ``j * SYNTH_CHECKPOINT_EVERY``, its
    625 words packed into an array (a fifth of the state tuple's size).
    The loops on the way to the one asked for are only drawn
    (:func:`~repro.workloads.synth.draw_loop`: the corpus builder's rng
    draws, in its order, with no graph built); only the loop asked for
    is built and validated.
    """

    def __init__(self, cfg: SynthConfig) -> None:
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.next_index = 0
        self.checkpoints: list[tuple[int, array[int], Optional[float]]] = []

    def loop(self, index: int) -> Ddg:
        every = SYNTH_CHECKPOINT_EVERY
        if index < self.next_index:
            start = index - index % every
            version, words, gauss_next = self.checkpoints[start // every]
            rng = random.Random()
            rng.setstate((version, tuple(words), gauss_next))
        else:
            start, rng = self.next_index, self.rng
        for i in range(start, index + 1):
            if rng is self.rng and i % every == 0:
                version, words, gauss_next = rng.getstate()
                self.checkpoints.append(
                    (version, array("L", words), gauss_next))
            draw = draw_loop(rng, self.cfg, i)
        if rng is self.rng:
            self.next_index = index + 1
        return build_loop(draw)


#: SynthConfig -> its stream (bounded by ``MAX_SYNTH_STREAMS``)
_SYNTH_STREAMS: dict[SynthConfig, _SynthStream] = {}
_SYNTH_LOCK = threading.Lock()


def _synth_loop(cfg: SynthConfig, index: int) -> Ddg:
    """Loop *index* of *cfg*'s corpus, resumed from the nearest saved
    stream state at or below *index*."""
    with _SYNTH_LOCK:
        stream = _SYNTH_STREAMS.get(cfg)
        if stream is None:
            if len(_SYNTH_STREAMS) >= MAX_SYNTH_STREAMS:
                _SYNTH_STREAMS.clear()
            stream = _SYNTH_STREAMS[cfg] = _SynthStream(cfg)
        try:
            return stream.loop(index)
        except Exception:
            # a config the generator cannot follow leaves the cursor
            # mid-loop: drop the stream rather than resume from there
            del _SYNTH_STREAMS[cfg]
            raise


def _synth_config(knobs: dict) -> SynthConfig:
    """Synth spec knobs -> :class:`SynthConfig`, type- and bound-checked.

    The config keys the stream table, so every knob must hash; int
    knobs take ints only and float knobs are stored as floats, so no
    knob reaches the generator as a huge int exponent or a float count.
    """
    unknown = set(knobs) - set(_SYNTH_KNOBS)
    if unknown:
        raise JobSpecError(f"unknown synth fields: {sorted(unknown)}; "
                           f"known: {sorted(_SYNTH_KNOBS)}")
    values = {}
    for name, value in knobs.items():
        kind = _SYNTH_KNOBS[name]
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else int):
            raise JobSpecError(f"synth {name!r} must be "
                               f"{'a number' if kind is float else 'an int'}")
        try:
            values[name] = kind(value)
        except OverflowError as exc:
            raise JobSpecError(f"synth {name!r}: {exc}") from None
        if kind is float and not math.isfinite(values[name]):
            raise JobSpecError(f"synth {name!r} must be finite")
    cfg = SynthConfig(**values)
    if not 1 <= cfg.n_loops <= MAX_SYNTH_LOOPS:
        raise JobSpecError(f"synth 'n_loops' must be in "
                           f"1..{MAX_SYNTH_LOOPS}")
    if not 1 <= cfg.min_ops <= cfg.max_ops <= MAX_SYNTH_OPS:
        raise JobSpecError(f"synth needs 1 <= 'min_ops' <= 'max_ops' "
                           f"<= {MAX_SYNTH_OPS}")
    if not (0 <= cfg.load_fraction <= 1 and 0 <= cfg.store_fraction <= 1):
        raise JobSpecError("synth 'load_fraction' and 'store_fraction' "
                           "must lie in 0..1")
    return cfg


def parse_loop(spec: object) -> Ddg:
    """Loop spec -> DDG (memoised; identical specs share one object)."""
    spec = _require_mapping(spec, "loop")
    memo_key = canonical_json(spec)
    hit = _LOOP_MEMO.get(memo_key)
    if hit is not None:
        return hit
    if "kernel" in spec:
        name = spec["kernel"]
        extra = set(spec) - {"kernel"}
        if extra:
            raise JobSpecError(f"unknown loop spec fields: {sorted(extra)}")
        factory = KERNELS.get(name)
        if factory is None:
            raise JobSpecError(f"unknown kernel {name!r}; available: "
                               f"{', '.join(sorted(KERNELS))}")
        ddg = factory()
    elif "synth" in spec:
        knobs = dict(_require_mapping(spec["synth"], "synth"))
        index = knobs.pop("index", 0)
        if isinstance(index, bool) or not isinstance(index, int) or \
                index < 0:
            raise JobSpecError("synth 'index' must be a non-negative int")
        cfg = _synth_config(knobs)
        if index >= cfg.n_loops:
            raise JobSpecError(f"synth 'index' {index} is outside the "
                               f"{cfg.n_loops}-loop corpus")
        try:
            ddg = _synth_loop(cfg, index)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise JobSpecError(f"bad synth config: {exc}") from None
    else:
        raise JobSpecError("loop spec needs 'kernel' or 'synth'")
    _LOOP_MEMO[memo_key] = ddg
    return ddg


def parse_machine(spec: object) -> object:
    """Machine spec -> preset machine object (memoised)."""
    spec = _require_mapping(spec, "machine")
    memo_key = canonical_json(spec)
    hit = _MACHINE_MEMO.get(memo_key)
    if hit is not None:
        return hit
    kind = spec.get("kind", "qrf")
    if kind in ("qrf", "crf"):
        extra = set(spec) - {"kind", "n_fus"}
        if extra:
            raise JobSpecError(
                f"unknown machine spec fields: {sorted(extra)}")
        n_fus = spec.get("n_fus", 4)
        if not isinstance(n_fus, int) or n_fus < 1:
            raise JobSpecError("'n_fus' must be a positive int")
        machine = (qrf_machine if kind == "qrf" else crf_machine)(n_fus)
    elif kind == "clustered":
        extra = set(spec) - {"kind", "n_clusters", "allow_moves"}
        if extra:
            raise JobSpecError(
                f"unknown machine spec fields: {sorted(extra)}")
        n_clusters = spec.get("n_clusters", 4)
        if not isinstance(n_clusters, int) or n_clusters < 2:
            raise JobSpecError("'n_clusters' must be an int >= 2")
        machine = clustered_machine(
            n_clusters, allow_moves=bool(spec.get("allow_moves", False)))
    else:
        raise JobSpecError(f"unknown machine kind {kind!r}; "
                           f"use 'qrf', 'crf' or 'clustered'")
    _MACHINE_MEMO[memo_key] = machine
    return machine


def parse_options(spec: object) -> PipelineOptions:
    """Options spec -> :class:`PipelineOptions`.

    Engine names (``scheduler``/``partitioner``) are validated here, at
    the request boundary, so a typo comes back as a 400 listing the
    registered engines -- the same message the registry raises for
    library callers -- instead of a worker-side 500.
    """
    if spec is None:
        return PipelineOptions()
    spec = dict(_require_mapping(spec, "options"))
    unknown = set(spec) - _OPTION_FIELDS
    if unknown:
        raise JobSpecError(f"unknown option fields: {sorted(unknown)}; "
                           f"known: {sorted(_OPTION_FIELDS)}")
    if "extras" in spec:
        extras = spec["extras"]
        if not isinstance(extras, (list, tuple)) or \
                not all(isinstance(e, str) for e in extras):
            raise JobSpecError("'extras' must be a list of strings")
        spec["extras"] = tuple(extras)
    try:
        options = PipelineOptions(**spec)
    except TypeError as exc:
        raise JobSpecError(f"bad options: {exc}") from None
    try:
        check_scheduler(options.scheduler)
        check_partitioner(options.partitioner)
    except KeyError as exc:
        raise JobSpecError(str(exc.args[0]) if exc.args
                           else str(exc)) from None
    return options


def parse_job(spec: object) -> CompileJob:
    """Full job spec -> :class:`CompileJob` (memoised by canonical spec;
    fingerprinted lazily, once per distinct spec)."""
    spec = _require_mapping(spec, "job")
    try:
        memo_key = canonical_json(spec)
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"job spec is not JSON-shaped: {exc}") from None
    job = _JOB_MEMO.get(memo_key)
    if job is not None:
        return job
    unknown = set(spec) - {"loop", "machine", "options"}
    if unknown:
        raise JobSpecError(f"unknown job spec fields: {sorted(unknown)}")
    if "loop" not in spec:
        raise JobSpecError("job spec needs a 'loop'")
    job = CompileJob(ddg=parse_loop(spec["loop"]),
                     machine=parse_machine(spec.get("machine", {})),
                     options=parse_options(spec.get("options")))
    if len(_JOB_MEMO) >= MAX_MEMO_SPECS:
        _JOB_MEMO.clear()
    _JOB_MEMO[memo_key] = job
    return job


def parse_jobs(body: object) -> list[CompileJob]:
    """Request body -> job list: one spec object, or ``{"jobs": [...]}``."""
    body = _require_mapping(body, "request")
    if "jobs" in body:
        specs = body["jobs"]
        if not isinstance(specs, list) or not specs:
            raise JobSpecError("'jobs' must be a non-empty list")
        if len(specs) > MAX_JOBS_PER_REQUEST:
            raise JobSpecError(
                f"'jobs' lists {len(specs)} specs; the per-request "
                f"bound is {MAX_JOBS_PER_REQUEST} -- split the sweep")
        return [parse_job(s) for s in specs]
    return [parse_job(body)]


def kernel_job_spec(kernel: str, *, n_fus: Optional[int] = None,
                    n_clusters: Optional[int] = None,
                    options: Optional[dict] = None) -> dict:
    """Convenience builder for clients (the CLI ``submit`` command)."""
    if n_clusters:
        machine = {"kind": "clustered", "n_clusters": n_clusters}
    else:
        machine = {"kind": "qrf", "n_fus": n_fus or 4}
    spec = {"loop": {"kernel": kernel}, "machine": machine}
    if options:
        spec["options"] = options
    return spec
