"""The Prometheus text exposition behind ``GET /metrics``."""

import re

from repro.obs.report import prometheus_text
from repro.obs.trace import BUCKETS


def test_prometheus_text_is_valid_exposition():
    snapshot = {
        "uptime_s": 12.5,
        "service": {"requests": 3, "jobs": 5, "dedup_inflight": 1,
                    "served_from_cache": 2, "compiled": 3, "batches": 2,
                    "batch_jobs": 3, "inflight": 0, "queue_depth": 0,
                    "submit_s": 0.25, "n_workers": 2},
        "cache": {"backend": "sharded", "hits": 2, "misses": 3,
                  "stores": 3, "evictions": 0, "compactions": 1,
                  "entries": 3, "bytes": 4096},
        "pool": {2: {"spawns": 1, "reuses": 4}},
        "arena": {"hits": 10, "allocs": 2, "resets": 12,
                  "pooled_mrts": 2, "generation": 12},
        "trace": {"stages": {"pipeline.schedule": {
            "count": 3, "total_s": 0.5, "min_s": 0.1, "max_s": 0.3,
            "buckets": [0, 0, 0, 0, 0, 1, 2] + [0] * 5}},
            "counters": {"sched.ii_accepted": 3}},
    }
    text = prometheus_text(snapshot)
    lines = text.splitlines()
    assert text.endswith("\n")

    # every sample line belongs to a family with HELP and TYPE
    families = {m.group(1) for line in lines
                if (m := re.match(r"# TYPE (\S+) ", line))}
    helped = {m.group(1) for line in lines
              if (m := re.match(r"# HELP (\S+) ", line))}
    assert families == helped
    sample = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)(\{[^}]*\})? \S+$")
    for line in lines:
        if line.startswith("#"):
            continue
        m = sample.match(line)
        assert m, line
        name = m.group(1)
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in families or base in families, line

    # counters carry the _total suffix
    assert "repro_service_jobs_total 5" in text
    assert "repro_cache_hits_total 2" in text
    assert "repro_arena_hits_total 10" in text
    assert "repro_trace_sched_ii_accepted_total 3" in text
    assert 'repro_pool_spawns_total{workers="2"} 1' in text

    # histogram: cumulative buckets ending at +Inf == count
    buckets = [line for line in lines
               if line.startswith("repro_stage_seconds_bucket")]
    counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
    assert counts == sorted(counts)          # cumulative
    assert len(buckets) == len(BUCKETS) + 1  # every edge + +Inf
    assert buckets[-1].startswith(
        'repro_stage_seconds_bucket{stage="pipeline_schedule",le="+Inf"}')
    assert counts[-1] == 3
    assert 'repro_stage_seconds_count{stage="pipeline_schedule"} 3' in text


def test_prometheus_text_minimal_snapshot():
    text = prometheus_text({"uptime_s": 0.0, "service": {},
                            "cache": None, "pool": {}, "arena": {},
                            "trace": {}})
    assert "repro_uptime_seconds 0" in text
    assert "repro_cache_info" not in text
