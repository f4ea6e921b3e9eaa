"""Benchmark-side span tracer for the layer-by-layer run.

:func:`install` replaces each layer's public entry point, in the module
or class its caller looks it up from, with a wrapper that records a span
(name, start, end, parent span, job id) in memory; :func:`Recorder.dump`
writes them out when the traced process ends.  The program itself is
not edited and carries no benchmark code: tracing happens only in the
processes the benchmark starts with ``--trace``.

:func:`layer_metrics` turns a dump into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children
(children of one span run one after another in the same thread or
asyncio task, so they never overlap).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

_current: contextvars.ContextVar[Optional[int]] = \
    contextvars.ContextVar("perfbench_span", default=None)
_job: contextvars.ContextVar[Optional[str]] = \
    contextvars.ContextVar("perfbench_job", default=None)


class Recorder:
    """In-memory span and counter store, safe across threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None,
             sets_job: bool = False) -> Callable:
        """*fn* recording a span per call; ``on_result(result, args)``
        sees each return value (outside the span)."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid = next(ids)
                token = _current.set(sid)
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    _current.reset(token)
                    spans.append((sid, name, t0, t1, _parent(token),
                                  _job.get()))
                if on_result is not None:
                    on_result(result, args)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            token = _current.set(sid)
            job_token = (_job.set(args[0].key) if sets_job else None)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                job = _job.get()
                if job_token is not None:
                    _job.reset(job_token)
                _current.reset(token)
                spans.append((sid, name, t0, t1, _parent(token), job))
            if on_result is not None:
                on_result(result, args)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def _parent(token: contextvars.Token) -> Optional[int]:
    old = token.old_value
    return None if old is contextvars.Token.MISSING else old


# ------------------------------------------------------------- wrapping

def install(rec: Recorder) -> None:
    """Wrap every traced layer entry point (see README.md)."""
    from repro.ir.ddg import Ddg
    from repro.runner import cache, executor, job, pipeline
    from repro.sched import ims, partition
    from repro.sched.strategies import ims as ims_strategy
    from repro.sched.strategies import sms
    from repro.service import daemon, engine

    def copies(res, args):
        rec.count("ir.copyins.ops", args[0].n_ops)
        rec.count("ir.copyins.copies", res.n_copies)

    pipeline.unroll = rec.wrap("ir.unroll", pipeline.unroll)
    pipeline.insert_copies = rec.wrap("ir.copyins", pipeline.insert_copies,
                                      copies)

    build_arrays = rec.wrap("ir.ddgarrays", Ddg.arrays)
    plain_arrays = Ddg.arrays

    def arrays(self):
        # a span only for a real build; memo hits cost a dict lookup
        if self._edge_cache.get("arrays") is None:
            return build_arrays(self)
        return plain_arrays(self)
    Ddg.arrays = arrays

    for mod in (pipeline, partition, ims, sms):
        mod.mii_report = rec.wrap("sched.mii", mod.mii_report)

    def scheduled(res, args):
        sched = getattr(res, "schedule", res)
        rec.count("sched.scheduled")
        rec.count("sched.scheduled_ops", sched.n_ops)
        rec.count("sched.placements", sched.stats.attempts)
        rec.count("sched.evictions", sched.stats.evictions)

    pipeline.partitioned_schedule = rec.wrap(
        "sched.schedule", pipeline.partitioned_schedule, scheduled)
    for cls in (ims_strategy.ImsStrategy, sms.SmsStrategy):
        cls.schedule = rec.wrap("sched.schedule", cls.schedule, scheduled)

    def counting_search(search_ii):
        @functools.wraps(search_ii)
        def search(probe, *args, **kwargs):
            def counted(ii):
                rec.count("sched.iisearch.probes")
                return probe(ii)
            found = search_ii(counted, *args, **kwargs)
            rec.count("sched.iisearch.searches")
            rec.count("sched.iisearch.found", found is not None)
            return found
        return search
    for mod in (partition, ims, sms):
        mod.search_ii = counting_search(mod.search_ii)

    pipeline.allocate_for_schedule = rec.wrap(
        "regalloc.queues", pipeline.allocate_for_schedule)
    pipeline.verify_schedule = rec.wrap(
        "verify", pipeline.verify_schedule,
        lambda verdict, args: rec.count("verify.rejects", not verdict.ok))

    job.job_key = rec.wrap("runner.fingerprint", job.job_key)
    store = cache.ShardedResultCache
    store.get = rec.wrap("runner.cache.get", store.get,
                         lambda hit, args: rec.count("runner.cache.hits",
                                                     hit is not None))
    store.put_many = rec.wrap("runner.cache.put", store.put_many)

    def compiled(result, args):
        rec.count("jobs.compiled")
        rec.count("ir.body_ops", result.outcome.n_body_ops)
    executor.execute_job = rec.wrap("runner.job", executor.execute_job,
                                    compiled, sets_job=True)
    executor.run_jobs = rec.wrap("runner.executor", executor.run_jobs)
    engine.run_jobs = executor.run_jobs

    daemon.parse_jobs = rec.wrap("service.jobspec", daemon.parse_jobs)
    engine.SweepService.submit = rec.wrap("service.engine.submit",
                                          engine.SweepService.submit)
    daemon._Http._route = rec.wrap("service.daemon.request",
                                   daemon._Http._route)
    daemon._response = rec.wrap("service.daemon.respond", daemon._response)


# ----------------------------------------------------------- aggregation

#: Per-layer metrics: name -> (unit, better).  Every traced run reports
#: all of them; a layer idle on a workload reports zero work.
LAYER_METRICS = {
    "ir.unroll.calls": ("count", "lower"),
    "ir.unroll.self_s": ("s", "lower"),
    "ir.copyins.calls": ("count", "lower"),
    "ir.copyins.self_s": ("s", "lower"),
    "ir.copyins.copies_per_op": ("copies/op", "lower"),
    "ir.ddgarrays.builds": ("count", "lower"),
    "ir.ddgarrays.self_s": ("s", "lower"),
    "ir.body_ops_per_job": ("ops/job", "lower"),
    "sched.mii.calls": ("count", "lower"),
    "sched.mii.self_s": ("s", "lower"),
    "sched.schedule.calls": ("count", "lower"),
    "sched.schedule.self_s": ("s", "lower"),
    "sched.iisearch.probes_per_job": ("probes/job", "lower"),
    "sched.iisearch.hit_ratio": ("ratio", "higher"),
    "sched.placements_per_op": ("placements/op", "lower"),
    "sched.evictions_per_job": ("evictions/job", "lower"),
    "regalloc.queues.calls": ("count", "lower"),
    "regalloc.queues.self_s": ("s", "lower"),
    "verify.calls": ("count", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.reject_ratio": ("ratio", "lower"),
    "runner.fingerprint.calls": ("count", "lower"),
    "runner.fingerprint.self_s": ("s", "lower"),
    "runner.cache.get_calls": ("count", "lower"),
    "runner.cache.get_s": ("s", "lower"),
    "runner.cache.hit_ratio": ("ratio", "higher"),
    "runner.cache.put_calls": ("count", "lower"),
    "runner.cache.put_s": ("s", "lower"),
    "runner.executor.self_s": ("s", "lower"),
    "service.jobspec.calls": ("count", "lower"),
    "service.jobspec.self_s": ("s", "lower"),
    "service.engine.submit_calls": ("count", "lower"),
    "service.engine.submit_s": ("s", "lower"),
    "service.engine.wait_s": ("s", "lower"),
    "service.engine.dedup_ratio": ("ratio", "higher"),
    "service.engine.batch_jobs": ("jobs/batch", "higher"),
    "service.daemon.request_self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _uncovered(spans: list[tuple], covers: list[tuple]) -> float:
    """Total time of *spans* not covered by any interval in *covers*."""
    merged: list[list[float]] = []
    for _sid, _n, t0, t1, *_ in sorted(covers, key=lambda s: s[2]):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    total = 0.0
    for _sid, _n, t0, t1, *_ in spans:
        covered = sum(max(0.0, min(t1, hi) - max(t0, lo))
                      for lo, hi in merged)
        total += (t1 - t0) - covered
    return total


def layer_metrics(dumps: list[dict], service: Optional[dict] = None,
                  overhead: float = 0.0) -> dict:
    """Per-layer metric values from trace dumps of one traced round.

    *service* is the daemon's ``/metrics.json`` ``service`` block (None
    on the sweeps); *overhead* the traced/untraced wall-time ratio - 1.
    """
    spans = [tuple(s) for d in dumps for s in d["spans"]]
    counters: dict[str, float] = defaultdict(float)
    for d in dumps:
        for name, n in d["counters"].items():
            counters[name] += n
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] is not None and s[4] in by_id:
            child_s[s[4]] += s[3] - s[2]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s[1]] += 1
        total_s[s[1]] += s[3] - s[2]
        self_s[s[1]] += (s[3] - s[2]) - child_s[s[0]]
    jobs = counters["jobs.compiled"]
    submits = [s for s in spans if s[1] == "service.engine.submit"]
    executor_spans = [s for s in spans if s[1] == "runner.executor"]
    service = service or {}
    return {
        "ir.unroll.calls": calls["ir.unroll"],
        "ir.unroll.self_s": self_s["ir.unroll"],
        "ir.copyins.calls": calls["ir.copyins"],
        "ir.copyins.self_s": self_s["ir.copyins"],
        "ir.copyins.copies_per_op": _ratio(counters["ir.copyins.copies"],
                                           counters["ir.copyins.ops"]),
        "ir.ddgarrays.builds": calls["ir.ddgarrays"],
        "ir.ddgarrays.self_s": self_s["ir.ddgarrays"],
        "ir.body_ops_per_job": _ratio(counters["ir.body_ops"], jobs),
        "sched.mii.calls": calls["sched.mii"],
        "sched.mii.self_s": self_s["sched.mii"],
        "sched.schedule.calls": calls["sched.schedule"],
        "sched.schedule.self_s": self_s["sched.schedule"],
        "sched.iisearch.probes_per_job": _ratio(
            counters["sched.iisearch.probes"], jobs),
        "sched.iisearch.hit_ratio": _ratio(
            counters["sched.iisearch.found"],
            counters["sched.iisearch.probes"]),
        "sched.placements_per_op": _ratio(counters["sched.placements"],
                                          counters["sched.scheduled_ops"]),
        "sched.evictions_per_job": _ratio(counters["sched.evictions"], jobs),
        "regalloc.queues.calls": calls["regalloc.queues"],
        "regalloc.queues.self_s": self_s["regalloc.queues"],
        "verify.calls": calls["verify"],
        "verify.self_s": self_s["verify"],
        "verify.reject_ratio": _ratio(counters["verify.rejects"],
                                      calls["verify"]),
        "runner.fingerprint.calls": calls["runner.fingerprint"],
        "runner.fingerprint.self_s": self_s["runner.fingerprint"],
        "runner.cache.get_calls": calls["runner.cache.get"],
        "runner.cache.get_s": self_s["runner.cache.get"],
        "runner.cache.hit_ratio": _ratio(counters["runner.cache.hits"],
                                         calls["runner.cache.get"]),
        "runner.cache.put_calls": calls["runner.cache.put"],
        "runner.cache.put_s": self_s["runner.cache.put"],
        "runner.executor.self_s": self_s["runner.executor"],
        "service.jobspec.calls": calls["service.jobspec"],
        "service.jobspec.self_s": self_s["service.jobspec"],
        "service.engine.submit_calls": calls["service.engine.submit"],
        "service.engine.submit_s": total_s["service.engine.submit"],
        "service.engine.wait_s": _uncovered(submits, executor_spans),
        "service.engine.dedup_ratio": _ratio(
            service.get("dedup_inflight", 0), service.get("jobs", 0)),
        "service.engine.batch_jobs": _ratio(service.get("batch_jobs", 0),
                                            service.get("batches", 0)),
        "service.daemon.request_self_s": (
            self_s["service.daemon.request"]
            + self_s["service.daemon.respond"]),
        "trace.overhead_ratio": overhead,
    }
