"""Schedule-compilation-as-a-service: the sweep runner as a daemon.

The ROADMAP's "millions of users" front door: a long-running asyncio
HTTP service that accepts loop+machine+options job specs, dedups them
through the content-addressed fingerprints (in-flight *and* cached),
batches fresh work onto the compile workers, and answers with the same
plain-data results a direct :func:`~repro.runner.pipeline.compile_loop`
call produces.

Layers (each usable on its own):

* :mod:`.jobspec` -- the JSON wire format -> :class:`CompileJob` parser
* :mod:`.engine`  -- :class:`SweepService`: dedup + batching + metrics
* :mod:`.daemon`  -- the HTTP/1.1 front end, blocking (``serve``) or on
  a background thread (``start_in_thread``), with graceful drain on
  SIGTERM/SIGINT

Quick start::

    repro-vliw --jobs 4 serve --port 8123 &
    repro-vliw submit --port 8123 daxpy dot --fus 4
    curl -s http://127.0.0.1:8123/metrics
"""

from .daemon import ServerHandle, serve, start_in_thread
from .engine import (DeadlineExceeded, ServiceOverloaded, SweepService,
                     result_to_wire)
from .jobspec import (JobSpecError, kernel_job_spec, parse_job, parse_jobs,
                      parse_loop, parse_machine, parse_options)

__all__ = [
    "ServerHandle", "serve", "start_in_thread",
    "DeadlineExceeded", "ServiceOverloaded",
    "SweepService", "result_to_wire",
    "JobSpecError", "kernel_job_spec", "parse_job", "parse_jobs",
    "parse_loop", "parse_machine", "parse_options",
]
