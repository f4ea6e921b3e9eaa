"""The Prometheus text exposition behind the service's ``GET /metrics``.

:func:`prometheus_text` renders a :meth:`SweepService.metrics` snapshot
as valid Prometheus text format (``# HELP``/``# TYPE`` lines, ``_total``
counter suffixes, cumulative histogram buckets) over the service, cache,
pool, fault, arena and per-stage tracing counters.
"""

from __future__ import annotations

from typing import Iterable

from .trace import BUCKETS


def _sanitize(name: str) -> str:
    return "".join(c if (c.isalnum() or c == "_") else "_"
                   for c in name)


def _metric(lines: list, name: str, kind: str, help_text: str,
            samples: Iterable[tuple[str, float]]) -> None:
    """Emit one metric family: HELP/TYPE then ``(labels, value)`` rows."""
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    for labels, value in samples:
        if isinstance(value, float) and value == int(value):
            value = int(value)
        lines.append(f"{name}{labels} {value}")


def prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`SweepService.metrics` snapshot as Prometheus text.

    Counters get the ``_total`` suffix, every family carries HELP/TYPE
    lines, histogram buckets are cumulative with an explicit ``+Inf``
    edge -- the format the service-smoke job (and any real scrape)
    validates.
    """
    lines: list[str] = []
    service = snapshot.get("service") or {}
    _metric(lines, "repro_uptime_seconds", "gauge",
            "Seconds since the service started.",
            [("", float(snapshot.get("uptime_s", 0.0)))])

    service_counters = {
        "requests": "Submit requests received.",
        "jobs": "Job specs received across all requests.",
        "dedup_inflight": "Jobs coalesced onto an in-flight compile.",
        "served_from_cache": "Jobs answered straight from the cache.",
        "compiled": "Jobs that actually compiled.",
        "batches": "Dispatcher batches executed.",
        "batch_jobs": "Jobs across all dispatcher batches.",
        "shed": "Requests shed on dispatcher queue depth (503).",
        "breaker_rejected": "Requests failed fast by the open breaker.",
        "breaker_trips": "Circuit-breaker transitions to open.",
        "batch_failures": "Micro-batches that failed wholesale.",
        "deadline_exceeded": "Requests past their deadline (504).",
        "cache_errors": "Cache lookups degraded to misses.",
    }
    for key, help_text in service_counters.items():
        _metric(lines, f"repro_service_{key}_total", "counter", help_text,
                [("", float(service.get(key, 0)))])
    _metric(lines, "repro_service_submit_seconds_total", "counter",
            "Cumulative submit latency.",
            [("", float(service.get("submit_s", 0.0)))])
    for key, help_text in (
            ("inflight", "Jobs currently compiling."),
            ("queue_depth", "Jobs waiting for the dispatcher."),
            ("n_workers", "Configured compile worker count.")):
        _metric(lines, f"repro_service_{key}", "gauge", help_text,
                [("", float(service.get(key, 0)))])
    breaker_state = service.get("breaker_state")
    if breaker_state is not None:
        _metric(lines, "repro_service_breaker_state", "gauge",
                "Circuit-breaker state (the label carries it).",
                [(f'{{state="{_sanitize(str(breaker_state))}"}}', 1)])

    cache = snapshot.get("cache")
    if cache:
        backend = _sanitize(str(cache.get("backend", "none")))
        _metric(lines, "repro_cache_info", "gauge",
                "Result-cache backend (label carries the kind).",
                [(f'{{backend="{backend}"}}', 1)])
        for key, help_text in (
                ("hits", "Cache lookups served."),
                ("misses", "Cache lookups that missed."),
                ("stores", "Results written to the cache."),
                ("evictions", "Records evicted by the byte budget."),
                ("compactions", "Shard compaction passes.")):
            if key in cache:
                _metric(lines, f"repro_cache_{key}_total", "counter",
                        help_text, [("", float(cache.get(key, 0)))])
        for key, help_text in (
                ("entries", "Results currently cached."),
                ("bytes", "Bytes on disk across cache shards.")):
            if key in cache:
                _metric(lines, f"repro_cache_{key}", "gauge", help_text,
                        [("", float(cache.get(key, 0)))])

    pool = snapshot.get("pool") or {}
    for key, help_text in (
            ("spawns", "Worker pools (re)created."),
            ("reuses", "run_jobs calls served by a live pool."),
            ("respawns", "Partial recoveries (workers replaced)."),
            ("retries", "Jobs re-dispatched after a failed round."),
            ("quarantines", "Jobs quarantined to the serial path.")):
        samples = [(f'{{workers="{n}"}}', float(c.get(key, 0)))
                   for n, c in sorted(pool.items())]
        if samples:
            _metric(lines, f"repro_pool_{key}_total", "counter",
                    help_text, samples)

    faults = snapshot.get("faults") or {}
    _metric(lines, "repro_faults_enabled", "gauge",
            "Whether a fault-injection plan is armed.",
            [("", 1.0 if faults.get("enabled") else 0.0)])
    injected = faults.get("injected") or {}
    if injected:
        samples = []
        for name in sorted(injected):
            site, _, kind = name.rpartition(".")
            samples.append((f'{{site="{_sanitize(site)}",'
                            f'kind="{_sanitize(kind)}"}}',
                            float(injected[name])))
        _metric(lines, "repro_faults_injected_total", "counter",
                "Deterministically injected faults fired, by site/kind.",
                samples)

    arena = snapshot.get("arena") or {}
    for key, help_text in (
            ("hits", "Scheduling-arena buffers served from the pool."),
            ("allocs", "Scheduling-arena buffers newly allocated."),
            ("resets", "Scheduling attempts begun.")):
        if key in arena:
            _metric(lines, f"repro_arena_{key}_total", "counter",
                    help_text, [("", float(arena.get(key, 0)))])
    if "pooled_mrts" in arena:
        _metric(lines, "repro_arena_pooled_mrts", "gauge",
                "Reservation tables held by the arena pool.",
                [("", float(arena.get("pooled_mrts", 0)))])

    trace = snapshot.get("trace") or {}
    stages = trace.get("stages") or {}
    if stages:
        lines.append("# HELP repro_stage_seconds Per-stage compile "
                     "latency (tracing spans).")
        lines.append("# TYPE repro_stage_seconds histogram")
        for name in sorted(stages):
            s = stages[name]
            stage = _sanitize(name)
            cumulative = 0
            buckets = s.get("buckets") or []
            for edge, count in zip(BUCKETS, buckets):
                cumulative += count
                lines.append(
                    f'repro_stage_seconds_bucket{{stage="{stage}",'
                    f'le="{edge}"}} {cumulative}')
            lines.append(
                f'repro_stage_seconds_bucket{{stage="{stage}",'
                f'le="+Inf"}} {s["count"]}')
            lines.append(f'repro_stage_seconds_sum{{stage="{stage}"}} '
                         f'{s["total_s"]}')
            lines.append(f'repro_stage_seconds_count{{stage="{stage}"}} '
                         f'{s["count"]}')
    counters = trace.get("counters") or {}
    for name in sorted(counters):
        _metric(lines, f"repro_trace_{_sanitize(name)}_total", "counter",
                "Tracing event counter.", [("", float(counters[name]))])
    return "\n".join(lines) + "\n"
