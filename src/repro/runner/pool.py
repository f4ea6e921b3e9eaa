"""Persistent sweep-worker pools with preloaded payloads.

The historical executor spun up a fresh ``multiprocessing.Pool`` for
every ``run_jobs`` call and shipped every job whole -- the loop DDG and
the machine description were re-pickled per job even though a sweep grid
references the same few objects hundreds of times.

A :class:`PoolSession` keeps one pool of workers alive across
``run_jobs`` calls (keyed by worker count) and moves the bulky payload
out of the per-task path:

* **Dedup tables + pool initializer** -- the session maintains grow-only
  tables of the distinct loop/machine objects it has seen; workers
  receive the tables once, through the pool initializer (free under the
  ``fork`` start method -- the child inherits them), and each task is
  just ``(seq, ddg_index, machine_index, options, key)``.  New table
  entries restart the pool (counted, and rare: drivers reuse the same
  loop and machine objects across their calls).
* **Cost-ranked, loop-major chunked dispatch** -- tasks are grouped
  by loop, loops ranked largest-first, and cut into small contiguous
  chunks over ``imap_unordered`` (chunk size derived from the job
  count): each worker compiles a loop's jobs together, so the
  front-end memo builds the loop's bodies once, and the cheap loops
  fill the tail of the sweep.  Cost estimates come from prior cache
  records (``wall_s`` by ``(loop, machine)``), falling back to an
  op-count heuristic for jobs never seen before.  Results are re-ordered by sequence number, so the
  output stays byte-identical to the serial walk.
* **Arena reuse inside each worker** -- workers are ordinary processes
  running :func:`~repro.runner.pipeline.execute_job`, so each one's
  process-global :func:`~repro.sched.arena.global_arena` (and front-end
  memo) persists across every job it executes.

Any failure to fan out degrades to the caller's serial path, exactly as
before.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import signal
import time
from typing import Callable, Optional, Sequence

log = logging.getLogger("repro.runner.pool")

from repro import faults as _faults

from .fingerprint import ddg_json, machine_json
from .job import CompileJob, JobResult
from .pipeline import execute_job

#: Grow-only table cap; beyond it the session recycles itself so a
#: pathological stream of one-shot loop objects cannot hoard memory.
MAX_TABLE_ENTRIES = 4096

#: Per-job progress watchdog: if no job settles for this long, the pool
#: is declared wedged (hung worker, lost chunk) and respawned.  Generous
#: -- the slowest corpus job compiles in well under a second -- while
#: still bounding a sweep's exposure to a hung worker.
DEFAULT_JOB_DEADLINE_S = 120.0

#: Dispatch rounds per job beyond the first: after this many failed
#: rounds a job is quarantined to the caller's serial path, so one
#: poisonous task cannot respawn the pool forever.  The serial run *is*
#: the final retry: with the default of 1 a job executes at most twice.
DEFAULT_MAX_RETRIES = 1

#: Backoff before re-dispatching survivors of a failed round.
RETRY_BACKOFF_S = 0.05

# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: Per-worker payload tables, set once by the pool initializer.
_WORKER_DDGS: Sequence = ()
_WORKER_MACHINES: Sequence = ()


def _init_worker(ddgs: Sequence, machines: Sequence) -> None:
    global _WORKER_DDGS, _WORKER_MACHINES
    # a worker forked from an asyncio daemon inherits the loop's signal
    # wakeup fd and its SIGTERM handler: the SIGTERM that
    # ``Pool.terminate`` sends would land on the daemon's self-pipe and
    # stop the daemon.  Workers die of SIGTERM instead, and ignore the
    # Ctrl-C their process group gets: the parent handles it, draining
    # the pool or terminating it
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _WORKER_DDGS = ddgs
    _WORKER_MACHINES = machines


def _run_task(task: tuple) -> tuple[int, JobResult]:
    seq, ddg_i, machine_i, options, key = task
    # worker entry is an injection seam (crash / hang / slow) and the
    # attempt ledger's recording point; execute_job itself contains any
    # exception into an error-kind result, so a task can only fail by
    # taking the whole worker process down with it
    _faults.on_job_execute(key)
    _faults.fault_point("pool.worker", key)
    job = CompileJob(ddg=_WORKER_DDGS[ddg_i],
                     machine=_WORKER_MACHINES[machine_i],
                     options=options, _key=key)
    return seq, execute_job(job)


def _run_chunk(tasks: list) -> list:
    """Execute one pre-built chunk of tasks in a worker.

    Chunking is explicit (rather than ``imap_unordered``'s
    ``chunksize``) because the chunked iterator the pool returns is a
    plain generator with no timeout support -- the supervision watchdog
    needs ``IMapUnorderedIterator.next(timeout)``, which only the
    one-item-per-task form provides.  A crashed worker loses exactly
    its in-flight chunk; everything else keeps streaming.
    """
    return [_run_task(task) for task in tasks]


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def _loop_major_chunks(tasks: list, cost: dict[int, float],
                       chunk: int) -> list[list]:
    """Cut *tasks* into contiguous chunks of *chunk*, loop-major.

    A loop's tasks stay together, costliest first, and loops are ranked
    by their summed cost, costliest first.  Each worker then sees a
    loop-major stream, which the front-end memo needs to build a loop's
    bodies once and free them when the next loop starts.  The chunks are
    small and pulled as workers free up, so the costly loops go out
    first and the cheap ones fill the tail.
    """
    loop_cost: dict[int, float] = {}
    for seq, ddg_i, *_ in tasks:
        loop_cost[ddg_i] = loop_cost.get(ddg_i, 0.0) + cost[seq]
    tasks = sorted(tasks, key=lambda t: (-loop_cost[t[1]], t[1],
                                         -cost[t[0]]))
    return [tasks[i:i + chunk] for i in range(0, len(tasks), chunk)]


class PoolSession:
    """One persistent worker pool plus its payload tables."""

    def __init__(self, n_workers: int,
                 context_factory: Callable) -> None:
        self.n_workers = n_workers
        self._context_factory = context_factory
        self._pool = None
        self._ddgs: list = []
        self._machines: list = []
        self._ddg_idx: dict[str, int] = {}       # content sig -> index
        self._machine_idx: dict[str, int] = {}   # content sig -> index
        self.spawns = 0        # pools (re)created
        self.reuses = 0        # run_jobs calls served by a live pool
        self.respawns = 0      # partial recoveries (workers replaced)
        self.retries = 0       # jobs re-dispatched after a failed round
        self.quarantines = 0   # jobs handed back for serial execution

    # ------------------------------------------------------------- tables

    def _index_of(self, obj: object, idx: dict, table: list,
                  key: object) -> tuple[int, bool]:
        """Table index of *obj* under *key*; True when newly added.

        Loops and machines are keyed by content signature: callers
        rebuild behaviourally identical objects (the service's loop
        memo may drop a loop and build it again), and each signature
        is exactly that object's part of the cache key, so substituting
        the first-seen equivalent cannot change results.
        """
        i = idx.get(key)
        if i is not None:
            return i, False
        table.append(obj)
        idx[key] = len(table) - 1
        return len(table) - 1, True

    def _ensure_pool(self, grew: bool) -> object:
        """A live pool whose workers hold the current tables."""
        if self._pool is not None and not grew:
            self.reuses += 1
            return self._pool
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None
        ctx = self._context_factory()
        self._pool = ctx.Pool(
            processes=self.n_workers,
            initializer=_init_worker,
            initargs=(tuple(self._ddgs), tuple(self._machines)))
        self.spawns += 1
        return self._pool

    # ------------------------------------------------------------ running

    def run(self, jobs: Sequence[CompileJob],
            on_result: Callable[[int, JobResult], None],
            cost_of: Callable[[CompileJob], float],
            chunk_size: Optional[int] = None, *,
            deadline_s: Optional[float] = DEFAULT_JOB_DEADLINE_S,
            max_retries: int = DEFAULT_MAX_RETRIES) -> list[int]:
        """Execute *jobs*, reporting ``(position, result)`` as each
        settles (any completion order), under per-job supervision.

        A wall-clock watchdog (*deadline_s* without any job settling)
        or a broken pool fails the *round*, not the sweep: the workers
        are respawned with the payload tables kept, the undelivered
        jobs are re-dispatched after a short backoff, and jobs that
        survive *max_retries* failed rounds are **quarantined** --
        returned (sorted) for the caller to finish on its serial path,
        which counts as their final retry.  Exceptions from *on_result*
        itself still propagate: the callback belongs to the caller, and
        a settled-then-redelivered job would break exactly-once
        accounting.
        """
        if len(self._ddgs) + len(self._machines) > MAX_TABLE_ENTRIES:
            # recycle before indexing: the tables restart from only the
            # objects of this call, and the pool respawns with them
            self.close()
        grew = False
        pending: dict[int, tuple] = {}
        for seq, job in enumerate(jobs):
            # a DDG mutated since the workers forked has a new signature
            # (mutation clears its memo), so it is never served from
            # their stale snapshot: the fresh entry restarts the pool
            di, new_d = self._index_of(job.ddg, self._ddg_idx, self._ddgs,
                                       ddg_json(job.ddg))
            mi, new_m = self._index_of(job.machine, self._machine_idx,
                                       self._machines,
                                       machine_json(job.machine))
            grew = grew or new_d or new_m
            pending[seq] = (seq, di, mi, job.options, job.key)
        attempts: dict[int, int] = {}
        quarantined: list[int] = []
        failed_rounds = 0
        while pending:
            pool = self._ensure_pool(grew)
            grew = False
            chunks = _loop_major_chunks(
                list(pending.values()),
                {seq: cost_of(jobs[seq]) for seq in pending},
                chunk_size or max(
                    1, min(32, len(pending) // (self.n_workers * 4))))
            it = pool.imap_unordered(_run_chunk, chunks)
            failure: Optional[BaseException] = None
            while True:
                try:
                    if deadline_s is None:
                        settled = next(it)
                    else:
                        settled = it.next(timeout=deadline_s)
                except StopIteration:
                    break
                except multiprocessing.TimeoutError:
                    failure = TimeoutError(
                        f"no chunk settled within the {deadline_s:g}s "
                        f"watchdog; a worker is hung or its chunk was "
                        f"lost to a crash")
                    break
                except Exception as exc:
                    # infra failure surfacing through the iterator (dead
                    # pool, unpicklable result); job-level exceptions
                    # were already contained into error results
                    failure = exc
                    break
                for seq, result in settled:
                    # settle *before* on_result: if the callback raises,
                    # the job must not be eligible for re-dispatch
                    pending.pop(seq, None)
                    on_result(seq, result)
            if failure is None:
                break
            self.respawn(cause=failure)
            failed_rounds += 1
            retry: dict[int, tuple] = {}
            for seq, task in pending.items():
                attempts[seq] = attempts.get(seq, 0) + 1
                # the serial quarantine run counts as the last retry, so
                # a job is dispatched at most 1 + max_retries times total
                if attempts[seq] >= max_retries:
                    quarantined.append(seq)
                else:
                    retry[seq] = task
            self.retries += len(retry)
            pending = retry
            if pending:
                time.sleep(min(1.0, RETRY_BACKOFF_S * 2 ** (failed_rounds - 1)))
        if quarantined:
            quarantined.sort()
            self.quarantines += len(quarantined)
            log.warning(
                "quarantining %d job(s) to the serial path after %d "
                "failed dispatch round(s)", len(quarantined), failed_rounds)
        return quarantined

    def respawn(self, cause: Optional[BaseException] = None) -> None:
        """Replace the workers, keeping the payload tables.

        Partial recovery: terminating only the pool means the next
        round re-forks workers that still receive the already-built
        dedup tables through the initializer -- unlike
        :func:`discard_session`, nothing the session learned is lost.
        """
        if cause is not None:
            log.warning(
                "pool of %d workers failed a dispatch round (%s: %s); "
                "respawning workers, payload tables kept",
                self.n_workers, type(cause).__name__, cause)
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None
        self.respawns += 1

    def close(self, graceful: bool = False) -> None:
        """Tear the pool down.

        ``graceful`` retires the workers instead of killing them: the
        pool stops accepting work, finishes what is queued, and is
        joined -- the daemon's SIGTERM path, where terminating mid-task
        would leak half-written worker state.  The default stays the
        historical hard terminate (tests, error recovery, atexit).
        """
        if self._pool is not None:
            if graceful:
                self._pool.close()
                self._pool.join()
            else:
                self._pool.terminate()
            self._pool = None
        self._ddgs.clear()
        self._machines.clear()
        self._ddg_idx.clear()
        self._machine_idx.clear()

    def counters(self) -> dict:
        return {"spawns": self.spawns, "reuses": self.reuses,
                "respawns": self.respawns, "retries": self.retries,
                "quarantines": self.quarantines,
                "ddgs": len(self._ddgs), "machines": len(self._machines)}


#: Live sessions, keyed by worker count.
_SESSIONS: dict[int, PoolSession] = {}


def get_session(n_workers: int,
                context_factory: Callable) -> PoolSession:
    """The persistent session for *n_workers* (created on first use)."""
    session = _SESSIONS.get(n_workers)
    if session is None:
        session = PoolSession(n_workers, context_factory)
        _SESSIONS[n_workers] = session
    return session


def discard_session(n_workers: int,
                    cause: Optional[BaseException] = None) -> None:
    """Tear one session down (fan-out failed; a fresh one may recover).

    *cause* is the fan-out failure that triggered the discard.  It used
    to be swallowed silently -- a broken pool degraded to the serial
    path with no trace, which made genuine worker crashes (OOM kills,
    unpicklable payload regressions) invisible.  Now it is logged.
    """
    session = _SESSIONS.pop(n_workers, None)
    if cause is not None:
        log.warning(
            "sweep fan-out over %d workers failed (%s: %s); discarding "
            "the pool session and finishing serially",
            n_workers, type(cause).__name__, cause)
    if session is not None:
        session.close()


def close_all_sessions(graceful: bool = False) -> None:
    """Close every pool: hard terminate by default (atexit, and the
    test-suite's isolation), or drain-and-join with ``graceful`` (the
    service's shutdown path)."""
    for n in list(_SESSIONS):
        session = _SESSIONS.pop(n, None)
        if session is not None:
            session.close(graceful=graceful)


def session_counters() -> dict:
    """Live session counters keyed by worker count (for ``/metrics``)."""
    return {str(n): session.counters()
            for n, session in _SESSIONS.items()}


atexit.register(close_all_sessions)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def cost_estimator(cache: object) -> Callable[[CompileJob], float]:
    """Job-cost estimator from prior cache records.

    Averages ``wall_s`` per ``(loop, machine)`` over everything the cache
    has seen (options variants of a loop cost alike, to first order);
    jobs with no history fall back to an op-count heuristic scaled to be
    comparable with real timings.  The aggregation is memoised on the
    cache instance -- drivers call ``run_jobs`` many times against one
    cache, and the hints need not track results stored mid-session.
    """
    hints: dict[tuple[str, str], tuple[float, int]] = {}
    if cache is not None:
        cached_hints = getattr(cache, "_cost_hints", None)
        if cached_hints is not None:
            hints = cached_hints
        else:
            # both cache backends expose iter_records(); the getattr
            # keeps foreign duck-typed caches (tests, adapters) working
            # -- they just run without history-based hints
            iter_records = getattr(cache, "iter_records", None)
            if iter_records is not None:
                for record in iter_records():
                    wall = float(record.get("wall_s") or 0.0)
                    if wall <= 0.0:
                        continue
                    outcome = record.get("outcome") or {}
                    key = (outcome.get("loop"), outcome.get("machine"))
                    total, n = hints.get(key, (0.0, 0))
                    hints[key] = (total + wall, n + 1)
            cache._cost_hints = hints

    def cost(job: CompileJob) -> float:
        name = getattr(job.machine, "name", "")
        hint = hints.get((job.ddg.name, name))
        if hint is not None:
            return hint[0] / hint[1]
        # ~linear in body size; unrolling multiplies the body
        factor = job.options.unroll_factor or (
            4 if job.options.do_unroll else 1)
        return 1e-4 * job.ddg.n_ops * factor

    return cost
