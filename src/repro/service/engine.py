"""The sweep service core: dedup, self-clocking batches, metrics.

:class:`SweepService` is the daemon's engine, independent of HTTP so the
in-process tests and the throughput benchmark can drive it directly.
One submission path:

1. **Fingerprint** -- every incoming :class:`CompileJob` already carries
   its content-hash key (:mod:`repro.runner.fingerprint`), the identity
   used everywhere below.
2. **In-flight dedup** -- a key currently being compiled has a future in
   ``_inflight``; N identical concurrent requests await that one future,
   so the service compiles each distinct job at most once no matter how
   many clients hammer it (``dedup_inflight`` counts the coalesced
   requests).
3. **Cache** -- settled keys are served straight from the (sharded)
   result cache without touching the dispatcher: a hit goes into the
   result list as it is, with no future of its own, and a request made
   only of hits never waits on a ``gather``.  A hit is the cache's
   shared, immutable result for the stored record, so each service
   memoises the encoded wire record of every hit it has served
   (:meth:`SweepService.wire_bytes`) and finds it again by the hit's
   identity.
4. **Group commit** -- new jobs land on an ``asyncio.Queue``; one
   dispatcher task takes the first plus whatever is *already* queued
   (up to ``batch_max``) and dispatches at once, with no timer, so jobs
   queued while a batch compiles ride the next batch together.  A batch
   runs :func:`~repro.runner.executor.compile_and_store` (no second
   cache lookup) on the one dispatcher thread.

Shutdown (:meth:`stop`) drains the queue, waits for every in-flight
future and the dispatcher thread, then retires the worker pools
gracefully (``close_all_sessions(graceful=True)``).

Overload and failure are answered at the front door rather than by
queueing forever (DESIGN §5.10): requests carry a **deadline**
(:class:`DeadlineExceeded` -> HTTP 504, with the job keys so clients
poll ``GET /jobs/<key>`` instead of resubmitting), a full dispatcher
queue **sheds load** (:class:`ServiceOverloaded` -> 503 +
``Retry-After``), and a **circuit breaker** fails fast after
``breaker_threshold`` consecutive batch failures, half-opening after
``breaker_cooldown_s`` to probe with real traffic.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro import faults as _faults
from repro.obs.trace import trace_count
from repro.runner import pool as pool_mod
from repro.runner.executor import RunnerConfig, compile_and_store
from repro.runner.job import CompileJob, JobResult

from .jobspec import MAX_MEMO_SPECS

#: sentinel that tells the dispatcher to finish up
_STOP = object()

#: the batch hook (tests and perfbench's tracer swap it out)
run_jobs = compile_and_store


def _swallow_result(fut: "asyncio.Future") -> None:
    """Detach a future: consume its outcome so nothing is logged."""
    if not fut.cancelled():
        fut.exception()


class ServiceOverloaded(RuntimeError):
    """Shed at the front door: full queue or an open circuit breaker."""

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(reason)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(RuntimeError):
    """A submit request ran past its deadline; the jobs keep compiling.

    Carries the request's job keys so the client can poll
    ``GET /jobs/<key>`` -- the work is *not* cancelled (other coalesced
    requests may be waiting on the same futures) and will land in the
    cache when it finishes.
    """

    def __init__(self, keys: Sequence[str]) -> None:
        super().__init__(f"deadline exceeded; {len(keys)} job(s) still "
                         f"compiling")
        self.keys = list(keys)


def result_to_wire(result: JobResult) -> dict:
    """JSON-shaped response record for one settled job."""
    record = result.to_record()
    record["cached"] = result.cached
    return record


def _encode_wire(result: JobResult) -> bytes:
    """One wire record as it appears in a ``/jobs`` response body."""
    return json.dumps(result_to_wire(result), sort_keys=True).encode("utf-8")


class SweepService:
    """Schedule-compilation-as-a-service over the sweep runner."""

    def __init__(self, cache: object = None, *, n_workers: int = 1,
                 batch_max: int = 64, chunk_size: Optional[int] = None,
                 request_deadline_s: Optional[float] = None,
                 max_queue_depth: int = 1024,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 30.0,
                 job_deadline_s: Optional[float] =
                 pool_mod.DEFAULT_JOB_DEADLINE_S,
                 max_retries: int = pool_mod.DEFAULT_MAX_RETRIES) -> None:
        self.cache = cache
        self.n_workers = n_workers
        self.batch_max = batch_max
        self.chunk_size = chunk_size
        self.request_deadline_s = request_deadline_s
        self.max_queue_depth = max_queue_depth
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.job_deadline_s = job_deadline_s
        self.max_retries = max_retries
        self._inflight: dict[str, asyncio.Future] = {}
        #: key -> (shared cache hit, its encoded wire record); bounded
        #: by ``MAX_MEMO_SPECS`` and cleared when full
        self._wire_memo: dict[str, tuple[JobResult, bytes]] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.t_started = time.monotonic()
        # --------------------------------------------- breaker state
        self._consec_batch_failures = 0
        self._breaker_open_until: Optional[float] = None
        # ------------------------------------------------ counters
        self.c_requests = 0          # submit() calls
        self.c_jobs = 0              # job specs received
        self.c_dedup_inflight = 0    # coalesced onto a live compile
        self.c_cache_hits = 0        # served straight from the cache
        self.c_compiled = 0          # jobs that actually compiled
        self.c_batches = 0           # dispatcher batches executed
        self.c_batch_jobs = 0        # jobs across all batches
        self.submit_s = 0.0          # cumulative submit latency
        self.c_shed = 0              # requests shed on queue depth
        self.c_breaker_rejected = 0  # requests failed fast by the breaker
        self.c_breaker_trips = 0     # closed/half-open -> open transitions
        self.c_batch_failures = 0    # batches that failed wholesale
        self.c_deadline_exceeded = 0  # requests answered 504
        self.c_cache_errors = 0      # lookups degraded to misses

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind to the running event loop and start the dispatcher."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        # the dispatcher runs one batch at a time, so it gets one thread
        self._executor = ThreadPoolExecutor(1)
        self._dispatcher = self._loop.create_task(self._dispatch())

    async def stop(self, drain: bool = True) -> None:
        """Shut down: drain in-flight jobs, flush state, retire pools.

        With ``drain`` (the SIGTERM path) every queued and in-flight job
        completes and its waiters are answered before the pools retire;
        without it, queued jobs are failed fast with CancelledError.
        """
        if self._queue is None:
            return
        if not drain:
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is not _STOP:
                    job, fut = item
                    if not fut.done():
                        fut.cancel()
                    self._inflight.pop(job.key, None)
        await self._queue.put(_STOP)
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._inflight:  # pragma: no cover - defensive
            await asyncio.gather(*self._inflight.values(),
                                 return_exceptions=True)
        self._executor.shutdown()
        self._executor = None
        # retire the persistent worker pools without killing mid-task
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: pool_mod.close_all_sessions(graceful=True))
        self._queue = None

    # ------------------------------------------------------------ serving

    def breaker_state(self) -> str:
        """``"closed"`` (normal) / ``"open"`` (failing fast) /
        ``"half-open"`` (cooldown over; next batch is the probe)."""
        if self._breaker_open_until is None:
            return "closed"
        if time.monotonic() < self._breaker_open_until:
            return "open"
        return "half-open"

    def _admit(self) -> None:
        """Front-door admission control: breaker, then queue depth."""
        if self.breaker_state() == "open":
            self.c_breaker_rejected += 1
            trace_count("service.breaker_rejected")
            retry_after = max(0.0,
                              self._breaker_open_until - time.monotonic())
            raise ServiceOverloaded(
                f"circuit breaker open after "
                f"{self._consec_batch_failures} consecutive batch "
                f"failures", retry_after_s=retry_after)
        if self._queue.qsize() >= self.max_queue_depth:
            self.c_shed += 1
            trace_count("service.shed")
            raise ServiceOverloaded(
                f"dispatch queue depth {self._queue.qsize()} at the "
                f"{self.max_queue_depth} bound", retry_after_s=1.0)

    def _cache_get(self, key: str) -> Optional[JobResult]:
        """A lookup that degrades cache I/O failure to a miss."""
        if self.cache is None:
            return None
        try:
            return self.cache.get(key)
        except Exception:
            self.c_cache_errors += 1
            trace_count("service.cache_errors")
            return None

    async def submit(self, jobs: Sequence[CompileJob],
                     deadline_s: Optional[float] = None
                     ) -> list[JobResult]:
        """Compile *jobs* (deduped against in-flight work and the cache),
        returning results in request order.

        Raises :class:`ServiceOverloaded` when admission control sheds
        the request, and :class:`DeadlineExceeded` when results do not
        settle within *deadline_s* (default: the service-wide
        ``request_deadline_s``) -- the compile itself keeps running for
        coalesced waiters and the cache.
        """
        assert self._queue is not None, "SweepService.start() not awaited"
        t0 = time.perf_counter()
        self.c_requests += 1
        self._admit()
        # a cache hit goes straight in; a miss or an in-flight key holds
        # its slot until the futures in *pending* settle
        results: list = []
        pending: list[asyncio.Future] = []
        slots: list[int] = []
        for job in jobs:
            key = job.key
            self.c_jobs += 1
            fut = self._inflight.get(key)
            if fut is not None:
                self.c_dedup_inflight += 1
            else:
                hit = self._cache_get(key)
                if hit is not None:
                    self.c_cache_hits += 1
                    results.append(hit)
                    continue
                fut = self._loop.create_future()
                self._inflight[key] = fut
                await self._queue.put((job, fut))
            slots.append(len(results))
            results.append(None)
            pending.append(fut)
        if pending:
            for slot, result in zip(slots, await self._settle(
                    pending, jobs, deadline_s)):
                results[slot] = result
        self.submit_s += time.perf_counter() - t0
        return results

    async def _settle(self, pending: list, jobs: Sequence[CompileJob],
                      deadline_s: Optional[float]) -> list[JobResult]:
        """Wait for *pending* under the request deadline."""
        if deadline_s is None:
            deadline_s = self.request_deadline_s
        gathered = asyncio.gather(*pending)
        if deadline_s is None:
            return list(await gathered)
        try:
            # shield: a timed-out request must not cancel futures
            # other coalesced requests are still awaiting
            return list(await asyncio.wait_for(
                asyncio.shield(gathered), deadline_s))
        except asyncio.TimeoutError:
            self.c_deadline_exceeded += 1
            trace_count("service.deadline_exceeded")
            # the gather keeps running detached; swallow its
            # eventual result so it never logs "never retrieved"
            gathered.add_done_callback(_swallow_result)
            raise DeadlineExceeded([job.key for job in jobs]) from None

    def wire_bytes(self, result: JobResult) -> bytes:
        """``json.dumps(result_to_wire(result), sort_keys=True)`` as UTF-8.

        A cache hit is encoded once: the cache hands out one immutable
        result per stored record, so later hits that are the *same
        object* reuse the bytes.  Identity, not a drop on miss or store,
        keeps the memo exact: a shard compaction can swap in another
        writer's record for a key with no miss and no store in this
        process, and the cache then hands out a new object.
        """
        if not result.cached:
            return _encode_wire(result)
        entry = self._wire_memo.get(result.key)
        if entry is not None and entry[0] is result:
            return entry[1]
        data = _encode_wire(result)
        if len(self._wire_memo) >= MAX_MEMO_SPECS:
            self._wire_memo.clear()
        self._wire_memo[result.key] = (result, data)
        return data

    def status(self, key: str) -> tuple[str, Optional[dict]]:
        """``("done", record)`` / ``("pending", None)`` /
        ``("unknown", None)`` for one fingerprint key."""
        if key in self._inflight:
            return "pending", None
        if self.cache is not None:
            hit = self.cache.peek(key)
            if hit is not None:
                return "done", result_to_wire(hit)
        return "unknown", None

    # ---------------------------------------------------------- dispatcher

    async def _dispatch(self) -> None:
        """Single consumer: group-commit batches, never a timer."""
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            while len(batch) < self.batch_max and not self._queue.empty():
                nxt = self._queue.get_nowait()
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            await self._run_batch(batch)

    async def _run_batch(self, batch: list) -> None:
        jobs = [job for job, _ in batch]
        config = RunnerConfig(n_workers=self.n_workers, cache=self.cache,
                              chunk_size=self.chunk_size,
                              job_deadline_s=self.job_deadline_s,
                              max_retries=self.max_retries)
        try:
            _faults.fault_point("service.batch", jobs[0].key)
            results = await self._loop.run_in_executor(
                self._executor, run_jobs, jobs, config)
        except Exception as exc:
            # per-job failures are contained; landing here means the
            # dispatch machinery itself broke (or a fault was injected)
            # -- fail this batch's waiters and feed the breaker
            self.c_batch_failures += 1
            self._consec_batch_failures += 1
            trace_count("service.batch_failures")
            half_open_probe_failed = self._breaker_open_until is not None
            if self.breaker_threshold > 0 and (
                    half_open_probe_failed or
                    self._consec_batch_failures >= self.breaker_threshold):
                self._breaker_open_until = (time.monotonic() +
                                            self.breaker_cooldown_s)
                self.c_breaker_trips += 1
                trace_count("service.breaker_trips")
            for job, fut in batch:
                self._inflight.pop(job.key, None)
                if not fut.done():
                    fut.set_exception(exc)
            return
        # any completed batch -- including the half-open probe -- closes
        # the breaker and resets the consecutive-failure streak
        self._consec_batch_failures = 0
        self._breaker_open_until = None
        self.c_batches += 1
        self.c_batch_jobs += len(batch)
        self.c_compiled += len(results)
        for (job, fut), result in zip(batch, results):
            self._inflight.pop(job.key, None)
            if not fut.done():
                fut.set_result(result)

    # ------------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """One JSON-shaped snapshot: service, cache, pool, arena and
        tracing counters (the source of both ``/metrics.json`` and the
        Prometheus ``/metrics`` exposition)."""
        import repro
        from repro.obs.trace import trace_snapshot
        from repro.sched import arena_counters

        return {
            "uptime_s": round(time.monotonic() - self.t_started, 3),
            "version": repro.__version__,
            "service": {
                "requests": self.c_requests,
                "jobs": self.c_jobs,
                "dedup_inflight": self.c_dedup_inflight,
                "served_from_cache": self.c_cache_hits,
                "compiled": self.c_compiled,
                "batches": self.c_batches,
                "batch_jobs": self.c_batch_jobs,
                "inflight": len(self._inflight),
                "queue_depth": (self._queue.qsize()
                                if self._queue is not None else 0),
                "submit_s": round(self.submit_s, 6),
                "n_workers": self.n_workers,
                "shed": self.c_shed,
                "breaker_rejected": self.c_breaker_rejected,
                "breaker_trips": self.c_breaker_trips,
                "breaker_state": self.breaker_state(),
                "batch_failures": self.c_batch_failures,
                "deadline_exceeded": self.c_deadline_exceeded,
                "cache_errors": self.c_cache_errors,
            },
            "cache": (self.cache.stats()
                      if self.cache is not None else None),
            "pool": pool_mod.session_counters(),
            "arena": arena_counters(),
            "trace": trace_snapshot(),
            "faults": {
                "enabled": _faults.faults_enabled(),
                "injected": _faults.fault_counters(),
            },
        }
