"""Parallel sweep runner with a content-addressed result cache.

The runner turns every paper experiment into a list of
:class:`~repro.runner.job.CompileJob` units (loop DDG x machine x pipeline
options), executes them with :func:`~repro.runner.executor.run_jobs` --
serially or fanned out over worker processes, always returning ordered,
deterministic results -- and memoises each job's plain-data
:class:`~repro.runner.job.JobResult` in an on-disk sharded JSONL cache
(:class:`~repro.runner.cache.ShardedResultCache`) keyed by a
SHA-256 content hash of the job (see :mod:`repro.runner.fingerprint`).
Repeated sweeps are therefore incremental: identical jobs replay from the
cache without recompiling.

Typical use::

    from repro.runner import Grid, RunnerConfig, ShardedResultCache

    grid = Grid(loops)
    for m in machines:
        grid.add(m.name, m, dict(copies=True, allocate=True))
    results = grid.run(RunnerConfig(n_workers=4,
                                    cache=ShardedResultCache()))
    results["queu-4fu"]         # one JobResult per loop, in loop order

The CLI exposes this as ``repro-vliw --jobs N [--no-cache] experiment``
(``REPRO_CACHE_DIR`` moves the default cache directory).
"""

from .cache import (CACHE_DIR_ENV, ShardedResultCache, default_cache_dir,
                    open_cache)
from .executor import RunnerConfig, run_jobs
from .fingerprint import (SCHEMA_VERSION, ddg_signature, job_key,
                          machine_signature)
from .job import CompileJob, JobResult, PipelineOptions
from .pipeline import (CompiledLoop, compile_loop, compute_extra,
                       execute_job, spill_spec)
from .pool import PoolSession, close_all_sessions, get_session
from .sweep import Grid, as_options, sweep

__all__ = [
    "CACHE_DIR_ENV", "ShardedResultCache",
    "default_cache_dir", "open_cache",
    "RunnerConfig", "run_jobs",
    "PoolSession", "close_all_sessions", "get_session",
    "SCHEMA_VERSION", "ddg_signature", "job_key", "machine_signature",
    "CompileJob", "JobResult", "PipelineOptions",
    "CompiledLoop", "compile_loop", "compute_extra", "execute_job",
    "spill_spec",
    "Grid", "as_options", "sweep",
]
