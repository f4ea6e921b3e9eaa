"""Observability: compile-pipeline tracing and the ``/metrics`` exposition.

Two modules (DESIGN §5.8):

* :mod:`repro.obs.trace` -- a lightweight span/counter tracer threaded
  through the compile pipeline's control paths (front-end stages, II
  search attempts, partitioner placement, pool dispatch, cache
  read-through).  Off by default; the disabled path is a single flag
  check, so the hot loops pay nothing measurable.
* :mod:`repro.obs.report` -- :func:`prometheus_text`, the service's
  Prometheus ``/metrics`` exposition over the same counters and spans.

Timing is measured by the repository benchmark (``perfbench/``) alone;
``tools/perf_gate.py`` runs it paired against a base checkout in CI.
"""

from .report import prometheus_text
from .trace import (disable_tracing, enable_tracing, job_capture,
                    merge_job_trace, reset_tracing, span, trace_count,
                    trace_snapshot, tracing_enabled)

__all__ = [
    "prometheus_text",
    "disable_tracing", "enable_tracing", "job_capture", "merge_job_trace",
    "reset_tracing", "span", "trace_count", "trace_snapshot",
    "tracing_enabled",
]
