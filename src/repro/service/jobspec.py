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

* **Jobs** are memoised, so a repeated spec returns the same
  :class:`CompileJob`, whose fingerprint is computed on first use and
  then reused.  A raw request body (what the daemon passes to
  :func:`parse_jobs`) is decoded once into a hashable form -- objects
  as tuples of ``(key, value)`` pairs, numbers tagged with their JSON
  type -- and each spec in it keys the memo as it is, with no
  re-encoding; a library caller's dict is keyed by its canonical JSON.
  Either way a memo miss runs the one validation path below.  The memo
  holds at most ``MAX_MEMO_SPECS`` specs and is cleared when full.
  Returned jobs are shared: treat them as read-only.
* **Loops** and **machines** are memoised by canonical spec (at most
  ``MAX_MEMO_LOOPS`` and ``MAX_MEMO_MACHINES``, cleared when full), so
  one DDG carries the front-end memo for every job on that loop.  The
  worker pool keys its payload tables by content, so a loop built
  again after a clear costs one rebuild, never a wrong payload.
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
Option and machine fields are type-checked against the annotations of
:class:`PipelineOptions` and of the machine presets' parameters, so a
wrongly typed value is a 400 rather than a failed job; so is an unknown
engine, copy strategy or extras name.
A synth index must lie inside its corpus (``index < n_loops``);
``n_loops`` and ``max_ops`` are capped at ``MAX_SYNTH_LOOPS`` and
``MAX_SYNTH_OPS``, int knobs take ints only and float knobs finite
numbers: the replay runs on the daemon's event loop before any request
deadline applies.
"""

from __future__ import annotations

import json
import math
import random
import sys
import threading
import typing
from array import array
from typing import Callable, Optional, Union

from repro.ir.copyins import COPY_STRATEGIES
from repro.ir.ddg import Ddg
from repro.machine.presets import clustered_machine, crf_machine, qrf_machine
from repro.runner.fingerprint import canonical_json
from repro.runner.job import CompileJob, PipelineOptions
from repro.runner.pipeline import EXTRA_EXTRACTORS
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

#: Distinct loop and machine specs memoised before each memo starts
#: over.
MAX_MEMO_LOOPS = 1024
MAX_MEMO_MACHINES = 256

#: job spec -> CompileJob (bounded by ``MAX_MEMO_SPECS``); keyed by a
#: decoded spec as it is, or by a library dict's canonical JSON
_JOB_MEMO: dict[object, CompileJob] = {}

#: canonical loop spec -> Ddg (bounded by ``MAX_MEMO_LOOPS``)
_LOOP_MEMO: dict[str, Ddg] = {}

#: canonical machine spec -> machine object (``MAX_MEMO_MACHINES``)
_MACHINE_MEMO: dict[str, object] = {}

#: synth knob -> its type (int or float); ``arith_mix`` is not a knob
_SYNTH_KNOBS = {name: type(value)
                for name, value in vars(SynthConfig()).items()
                if isinstance(value, (int, float))}

#: option field -> its annotated type
_OPTION_TYPES = typing.get_type_hints(PipelineOptions)


def _parameters(builder: Callable) -> dict:
    """Annotated parameters of a machine preset: its spec fields."""
    hints = typing.get_type_hints(builder)
    hints.pop("return", None)
    return hints


#: machine kind -> (preset, its spec fields' types, spec defaults)
_MACHINE_KINDS = {
    kind: (builder, _parameters(builder), defaults)
    for kind, builder, defaults in (
        ("qrf", qrf_machine, {"n_fus": 4}),
        ("crf", crf_machine, {"n_fus": 4}),
        ("clustered", clustered_machine, {"n_clusters": 4}))}

#: smallest legal value of the int machine fields
_MACHINE_MINIMA = {"n_fus": 1, "n_clusters": 2}


def _remember(memo: dict, key: object, value: object, cap: int) -> None:
    """Store *value* in *memo*, clearing it first when it holds *cap*."""
    if len(memo) >= cap:
        memo.clear()
    memo[key] = value


def _require_mapping(spec: object, what: str) -> dict:
    if not isinstance(spec, dict):
        raise JobSpecError(f"{what} spec must be a JSON object, "
                           f"not {type(spec).__name__}")
    return spec


def _has_type(value: object, hint: object) -> bool:
    """Whether JSON-shaped *value* is of the annotated type *hint*.

    A bool is not an int here, and ``tuple[X, ...]`` is a JSON array
    of X.  An annotation with no JSON reading raises ``TypeError``.
    """
    if hint is bool:
        return isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is str:
        return isinstance(value, str)
    if hint is type(None):
        return value is None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        return any(_has_type(value, arg) for arg in args)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return isinstance(value, (list, tuple)) and \
            all(_has_type(item, args[0]) for item in value)
    raise TypeError(f"no JSON reading of the annotation {hint!r}")


def _describe(hint: object) -> str:
    names = {bool: "a bool", int: "an int", str: "a string",
             type(None): "null"}
    if hint in names:
        return names[hint]
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union:
        return " or ".join(_describe(arg) for arg in args)
    return f"a list, each {_describe(args[0])}"


def _check_fields(spec: dict, types: dict, what: str) -> None:
    """Every field of *spec* is one of *types* and holds a value of its
    annotated type -- the one type check of the request boundary."""
    unknown = set(spec) - set(types)
    if unknown:
        raise JobSpecError(f"unknown {what} fields: {sorted(unknown)}; "
                           f"known: {sorted(types)}")
    for name, value in spec.items():
        if not _has_type(value, types[name]):
            raise JobSpecError(f"{what} {name!r} must be "
                               f"{_describe(types[name])}, not "
                               f"{type(value).__name__}")


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
        if not isinstance(name, str):
            raise JobSpecError(f"'kernel' must be a string, "
                               f"not {type(name).__name__}")
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
    _remember(_LOOP_MEMO, memo_key, ddg, MAX_MEMO_LOOPS)
    return ddg


def parse_machine(spec: object) -> object:
    """Machine spec -> preset machine object (memoised)."""
    spec = _require_mapping(spec, "machine")
    memo_key = canonical_json(spec)
    hit = _MACHINE_MEMO.get(memo_key)
    if hit is not None:
        return hit
    fields = dict(spec)
    kind = fields.pop("kind", "qrf")
    if not (isinstance(kind, str) and kind in _MACHINE_KINDS):
        raise JobSpecError(f"unknown machine kind {kind!r}; "
                           f"use {', '.join(map(repr, _MACHINE_KINDS))}")
    builder, types, defaults = _MACHINE_KINDS[kind]
    _check_fields(fields, types, "machine spec")
    args = {**defaults, **fields}
    for name, least in _MACHINE_MINIMA.items():
        if args.get(name, least) < least:
            raise JobSpecError(f"{name!r} must be an int >= {least}")
    machine = builder(**args)
    _remember(_MACHINE_MEMO, memo_key, machine, MAX_MEMO_MACHINES)
    return machine


def parse_options(spec: object) -> PipelineOptions:
    """Options spec -> :class:`PipelineOptions`.

    Engine names (``scheduler``/``partitioner``) are validated here, at
    the request boundary, so a typo comes back as a 400 listing the
    engines -- the same ``check_engine`` message library callers get --
    instead of a worker-side 500.  So are the copy
    strategy and the name of each extras spec: an unknown one would
    compile into a failed job.
    """
    if spec is None:
        return PipelineOptions()
    spec = dict(_require_mapping(spec, "options"))
    _check_fields(spec, _OPTION_TYPES, "option")
    if "extras" in spec:
        spec["extras"] = tuple(spec["extras"])
    try:
        options = PipelineOptions(**spec)      # checks the engine names
    except KeyError as exc:
        raise JobSpecError(str(exc.args[0]) if exc.args
                           else str(exc)) from None
    if options.copy_strategy not in COPY_STRATEGIES:
        raise JobSpecError(f"unknown copy strategy "
                           f"{options.copy_strategy!r}; known: "
                           f"{', '.join(COPY_STRATEGIES)}")
    for extra in options.extras:
        if extra.partition(":")[0] not in EXTRA_EXTRACTORS:
            raise JobSpecError(f"unknown extras spec {extra!r}; known: "
                               f"{', '.join(sorted(EXTRA_EXTRACTORS))}")
    return options


def _build_job(memo_key: object, spec: object) -> CompileJob:
    """Validate JSON-shaped *spec*, build its job and memoise it under
    *memo_key*: the one parse path behind both kinds of memo key."""
    spec = _require_mapping(spec, "job")
    unknown = set(spec) - {"loop", "machine", "options"}
    if unknown:
        raise JobSpecError(f"unknown job spec fields: {sorted(unknown)}")
    if "loop" not in spec:
        raise JobSpecError("job spec needs a 'loop'")
    job = CompileJob(ddg=parse_loop(spec["loop"]),
                     machine=parse_machine(spec.get("machine", {})),
                     options=parse_options(spec.get("options")))
    _remember(_JOB_MEMO, memo_key, job, MAX_MEMO_SPECS)
    return job


def parse_job(spec: object) -> CompileJob:
    """Full job spec -> :class:`CompileJob` (memoised by canonical spec;
    fingerprinted lazily, once per distinct spec)."""
    spec = _require_mapping(spec, "job")
    try:
        memo_key = canonical_json(spec)
    except (TypeError, ValueError, RecursionError) as exc:
        raise JobSpecError(f"job spec is not JSON-shaped: {exc}") from None
    job = _JOB_MEMO.get(memo_key)
    return job if job is not None else _build_job(memo_key, spec)


# ---------------------------------------------------------------------------
# raw request bodies
# ---------------------------------------------------------------------------
#
# A body is decoded once into hashable values: a JSON object becomes the
# tuple of its (name, value) pairs in body order, and a number the pair
# (_INT or _FLOAT, its JSON text).  The tags keep 1, 1.0 and true apart:
# they are equal Python values, and a memo hit across them would pass a
# mistyped spec.  Arrays stay lists, so a spec holding one is frozen
# (arrays as (_ARRAY, *items)) before it keys the memo; a stored key
# is frozen too, which also interns its strings.

_INT = object()
_FLOAT = object()
_ARRAY = object()


def _tag_int(text: str) -> tuple:
    return _INT, text


def _tag_float(text: str) -> tuple:
    return _FLOAT, text


_decode = json.JSONDecoder(object_pairs_hook=tuple, parse_int=_tag_int,
                           parse_float=_tag_float,
                           parse_constant=_tag_float).decode


def _is_object(value: object) -> bool:
    """Whether a decoded value is a JSON object (a tuple of pairs)."""
    return type(value) is tuple and (not value or type(value[0]) is tuple)


def _frozen(value: object) -> object:
    """A decoded value as a memo key: every array a hashable tuple and
    every string interned, so the memo's keys share one copy of each
    field name."""
    kind = type(value)
    if kind is str:
        return sys.intern(value)
    if kind is list:
        return (_ARRAY, *map(_frozen, value))
    if kind is tuple:
        return tuple([_frozen(item) for item in value])
    return value


def _plain(value: object) -> object:
    """A decoded or frozen value as JSON-shaped Python (the last of
    duplicate object keys wins, as in ``json.loads``)."""
    if type(value) is list:
        return [_plain(item) for item in value]
    if type(value) is not tuple:
        return value
    if _is_object(value):
        return {name: _plain(item) for name, item in value}
    tag, rest = value[0], value[1:]
    if tag is _ARRAY:
        return [_plain(item) for item in rest]
    if tag is _FLOAT:
        return float(rest[0])
    try:
        return int(rest[0])
    except ValueError:      # past the interpreter's int-digit limit
        raise JobSpecError(f"a {len(rest[0])}-digit integer is too "
                           f"long") from None


def _decoded_job(spec: object) -> CompileJob:
    """The job of one spec of a decoded body: a memo hit costs one hash
    of the spec as decoded, with no re-encoding."""
    try:
        job = _JOB_MEMO.get(spec)
    except TypeError:       # an array inside
        spec = _frozen(spec)
        job = _JOB_MEMO.get(spec)
    if job is not None:
        return job
    return _build_job(_frozen(spec), _plain(spec))


def _spec_list(fields: dict) -> Optional[list]:
    """A request's ``jobs`` list, or None for a single-spec request."""
    if "jobs" not in fields:
        return None
    specs = fields["jobs"]
    if not isinstance(specs, list) or not specs:
        raise JobSpecError("'jobs' must be a non-empty list")
    if len(specs) > MAX_JOBS_PER_REQUEST:
        raise JobSpecError(
            f"'jobs' lists {len(specs)} specs; the per-request "
            f"bound is {MAX_JOBS_PER_REQUEST} -- split the sweep")
    return specs


def parse_jobs(body: object) -> list[CompileJob]:
    """Request body -> job list: one spec object, or ``{"jobs": [...]}``.

    *body* is a JSON-shaped dict, or the raw bytes of a ``POST /jobs``
    body, which are decoded here, once, into the memo's hashable form.
    """
    try:
        if not isinstance(body, bytes):
            specs = _spec_list(_require_mapping(body, "request"))
            return [parse_job(s) for s in specs or [body]]
        try:
            decoded = _decode(body.decode("utf-8"))
        except ValueError as exc:   # bad UTF-8 or bad JSON
            raise JobSpecError(f"request body is not JSON: {exc}") \
                from None
        fields = (dict(decoded) if _is_object(decoded)
                  else _require_mapping(_plain(decoded), "request"))
        specs = _spec_list(fields)
        return [_decoded_job(s) for s in specs or [decoded]]
    except RecursionError:
        raise JobSpecError("request body nests too deeply") from None


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
