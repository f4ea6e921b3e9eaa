"""Job model of the sweep runner.

A :class:`CompileJob` is one (loop DDG, machine, pipeline options) triple:
the unit of work that :func:`repro.runner.executor.run_jobs` fans out over
worker processes.  Jobs are picklable, and each one owns a deterministic
content-hash ``key`` (see :mod:`repro.runner.fingerprint`) under which its
:class:`JobResult` is stored in the on-disk cache.

A :class:`JobResult` deliberately carries only plain data -- the
:class:`~repro.analysis.metrics.LoopOutcome` record plus any requested
``extras`` (JSON-shaped derived metrics computed in the worker) -- never
schedule or allocation objects, so results round-trip losslessly through
both ``pickle`` (process boundary) and JSON (cache file).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.metrics import LoopOutcome
from repro.ir.ddg import Ddg
from repro.machine.cluster import ClusteredMachine
from repro.sched.partitioners import DEFAULT_PARTITIONER, PARTITIONERS
from repro.sched.schedule import check_engine
from repro.sched.strategies import DEFAULT_SCHEDULER, SCHEDULERS

from .fingerprint import job_key


@dataclass(frozen=True)
class PipelineOptions:
    """Pipeline configuration of one job (mirrors ``compile_loop``).

    ``scheduler`` names the single-cluster scheduling engine (a key of
    :data:`~repro.sched.strategies.SCHEDULERS`) and ``partitioner`` the
    clustered engine (a key of
    :data:`~repro.sched.partitioners.PARTITIONERS`).  The job signature
    names only the engine that runs on the job's machine, so cached
    results never alias across engines, and an engine field the machine
    ignores never splits one compile into two keys.

    ``extras`` names derived metrics to compute in the worker after the
    pipeline runs; see ``EXTRA_EXTRACTORS`` in
    :mod:`repro.runner.pipeline` for the table (an entry may carry an
    argument after a colon, e.g. ``"spills:8x16"``).
    """

    do_unroll: bool = False
    unroll_factor: Optional[int] = None
    copies: bool = True
    copy_strategy: str = "slack"
    allocate: bool = True
    partitioner: str = DEFAULT_PARTITIONER
    use_moves: bool = False
    scheduler: str = DEFAULT_SCHEDULER
    #: prove the schedule with the independent verifier
    #: (:mod:`repro.verify`) before the result leaves the worker; a
    #: failed proof raises instead of producing a result
    verify: bool = False
    extras: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # an unknown engine name never becomes a job: the key leaves out
        # the engine a machine ignores, so a job that carried one would
        # fail when compiled but replay a success from the cache
        check_engine(SCHEDULERS, "scheduler", self.scheduler)
        check_engine(PARTITIONERS, "partitioner", self.partitioner)

    def compile_kwargs(self) -> dict:
        """Keyword arguments for ``compile_loop`` (extras excluded)."""
        out = {f.name: getattr(self, f.name)
               for f in dataclasses.fields(self)}
        out.pop("extras")
        return out

    def signature(self, machine: object) -> dict:
        """JSON-shaped content signature on *machine* (feeds the job
        key): rings run the partitioner (with MOVEs when ``use_moves``),
        single-cluster machines the scheduler, and the signature drops
        the fields the machine ignores."""
        ignored = (("scheduler",) if isinstance(machine, ClusteredMachine)
                   else ("partitioner", "use_moves"))
        sig = {f.name: getattr(self, f.name)
               for f in dataclasses.fields(self) if f.name not in ignored}
        sig["extras"] = list(self.extras)
        return sig


@dataclass
class CompileJob:
    """One unit of work: compile *ddg* on *machine* under *options*."""

    ddg: Ddg
    machine: object  # Machine | ClusteredMachine
    options: PipelineOptions = field(default_factory=PipelineOptions)
    _key: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        """Content-hash identity of this job (cached after first use)."""
        if self._key is None:
            self._key = job_key(self.ddg, self.machine,
                                self.options.signature(self.machine))
        return self._key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompileJob({self.ddg.name!r}, "
                f"{getattr(self.machine, 'name', self.machine)!r})")


def _refuse(self: object, *args: object, **kwargs: object) -> None:
    raise TypeError("a cached result's extras are read-only; "
                    "copy them (dict(...), copy.deepcopy) to edit")


class _ReadOnlyDict(dict):
    """A JSON object of a shared cached result: reads as a ``dict``,
    refuses writes.  Copies (``dict(d)``, ``copy``, ``deepcopy``,
    pickle) are plain dicts."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self) -> tuple:
        return dict, (dict(self),)


class _ReadOnlyList(list):
    """The ``list`` twin of :class:`_ReadOnlyDict`."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = _refuse
    sort = reverse = _refuse

    def __reduce__(self) -> tuple:
        return list, (list(self),)


def read_only_json(value: object) -> object:
    """JSON-shaped *value* with every dict and list refusing writes: a
    deep copy of its plain dicts and lists (one that already refuses
    writes is kept as it is)."""
    kind = type(value)
    if kind is dict:
        return _ReadOnlyDict({k: read_only_json(v)
                              for k, v in value.items()})
    if kind is list:
        return _ReadOnlyList([read_only_json(v) for v in value])
    return value


@dataclass(frozen=True)
class JobResult:
    """Plain-data outcome of one job.

    ``cached`` is True when the result was replayed from the on-disk
    cache instead of recompiled; ``wall_s`` is the worker-side compile
    time (the job-cost estimate future sweeps use to balance chunked
    dispatch).  Neither participates in equality, so cached and fresh
    runs compare identical.

    Results are immutable: ``dataclasses.replace`` gives a modified
    copy.  A cache hit is one object shared by every lookup of its
    stored record (:meth:`~repro.runner.cache.ShardedResultCache.get`),
    and a result rebuilt from a record has ``extras`` that refuse
    writes as well.
    """

    key: str
    outcome: LoopOutcome
    extras: dict = field(default_factory=dict)
    cached: bool = field(default=False, compare=False)
    wall_s: float = field(default=0.0, compare=False)

    def to_record(self) -> dict:
        """JSON-shaped cache record (also the wire record's base).

        ``outcome`` is a shallow copy of the outcome's fields, in
        declaration order: every :class:`LoopOutcome` field is a scalar,
        so it equals ``dataclasses.asdict`` without that call's
        recursive deep-copy walk.
        """
        return {
            "key": self.key,
            "outcome": dict(vars(self.outcome)),
            "extras": self.extras,
            "wall_s": round(self.wall_s, 6),
        }

    @classmethod
    def from_record(cls, record: dict, *, cached: bool = True) -> "JobResult":
        """Rebuild a result from a cache record.

        Raises ``KeyError``/``TypeError`` on malformed records; the cache
        treats those as corrupt entries and recompiles.  ``wall_s`` is
        optional so pre-existing records stay readable.  ``extras``
        refuses writes (:func:`read_only_json`); read-only record extras
        are shared, not copied.
        """
        outcome = LoopOutcome(**record["outcome"])
        extras = record.get("extras") or {}
        if not isinstance(extras, dict):
            raise TypeError("record extras must be a JSON object")
        return cls(key=record["key"], outcome=outcome,
                   extras=read_only_json(extras),
                   cached=cached, wall_s=float(record.get("wall_s") or 0.0))
