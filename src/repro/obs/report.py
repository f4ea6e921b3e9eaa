"""Observatory rendering: trend tables, the HTML dashboard, /metrics.

Three consumers of the same history data:

* :func:`trend_table` -- the terminal view (``repro-vliw report``): one
  row per gated metric with a unicode sparkline of its trailing window.
* :func:`render_dashboard` -- a self-contained static HTML page (no
  external assets) with one SVG sparkline per benchmark, stat tiles and
  a regression-callout section; CI uploads it as the perf-smoke
  dashboard artifact.
* :func:`prometheus_text` -- the service's ``GET /metrics`` exposition:
  valid Prometheus text format (``# HELP``/``# TYPE`` lines, ``_total``
  counter suffixes, cumulative histogram buckets) over the service,
  cache, pool, arena and per-stage tracing counters.
"""

from __future__ import annotations

import html
import json
from typing import Iterable, Optional, Sequence

from .history import BenchHistory, TrendStat
from .trace import BUCKETS

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 16) -> str:
    """Unicode sparkline of the trailing *width* values."""
    tail = list(values)[-width:]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return _SPARK_GLYPHS[0] * len(tail)
    scale = (len(_SPARK_GLYPHS) - 1) / (hi - lo)
    return "".join(_SPARK_GLYPHS[int((v - lo) * scale)] for v in tail)


def trend_table(stats: Sequence[TrendStat]) -> str:
    """Render per-metric trend rows (the ``repro-vliw report`` body)."""
    if not stats:
        return "no benchmark records to report on"
    lines = [f"{'benchmark':<28} {'metric':<10} "
             f"{'runs':>4} {'latest':>9} {'median':>9} {'trend':<16} "
             f"verdict"]
    for s in stats:
        latest = "missing" if s.latest is None else f"{s.latest:9.4g}"
        median = "" if s.median is None else f"{s.median:9.4g}"
        verdict = s.verdict.upper() if s.regressed else s.verdict
        if s.test == "mad-z" and s.z is not None:
            verdict += f" (z={s.z:.2f})"
        elif s.test == "ratio" and s.ratio is not None:
            verdict += f" ({s.ratio:.2f}x)"
        lines.append(f"{s.bench:<28} {s.metric:<10} "
                     f"{s.n_history:>4d} "
                     f"{latest:>9} {median:>9} "
                     f"{sparkline(s.history + ([s.latest] if s.latest is not None else [])):<16} "
                     f"{verdict}")
    flagged = [s for s in stats if s.verdict in ("regression", "missing")]
    lines.append("")
    if flagged:
        lines.append(f"{len(flagged)} metric(s) flagged:")
        lines.extend(f"  {s.describe()}" for s in flagged)
    else:
        lines.append("no regressions flagged")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# HTML dashboard
# ---------------------------------------------------------------------------

def _svg_sparkline(values: Sequence[float], labels: Sequence[str], *,
                   width: int = 220, height: int = 48,
                   flagged: bool = False) -> str:
    """One benchmark's wall-time sparkline as inline SVG.

    Points carry native ``<title>`` tooltips (value + run label); the
    newest point is emphasised, red + ring when flagged.
    """
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or max(hi, 1e-9)
    pad = 6
    n = len(values)
    xs = [pad + (width - 2 * pad) * (i / max(1, n - 1)) for i in range(n)]
    ys = [height - pad - (height - 2 * pad) * ((v - lo) / span)
          for v in values]
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    dots = []
    for i, (x, y, v) in enumerate(zip(xs, ys, values)):
        last = i == n - 1
        cls = "pt-last-bad" if (last and flagged) else (
            "pt-last" if last else "pt")
        r = 4 if last else 2.5
        label = html.escape(labels[i] if i < len(labels) else "")
        dots.append(
            f'<circle class="{cls}" cx="{x:.1f}" cy="{y:.1f}" r="{r}">'
            f"<title>{v:.4g}s {label}</title></circle>")
    line = (f'<polyline class="line" fill="none" points="{points}"/>'
            if n > 1 else "")
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" role="img" '
            f'aria-label="wall-time trend">{line}{"".join(dots)}</svg>')


_DASHBOARD_CSS = """
  .viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb; --surface-2: #f1f0ee;
    --text-primary: #0b0b0b; --text-secondary: #52514e;
    --series-1: #2a78d6; --status-serious: #e34948;
    --grid: #e3e2df;
    font: 14px/1.45 system-ui, sans-serif;
    background: var(--surface-1); color: var(--text-primary);
    margin: 0; padding: 24px;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19; --surface-2: #242422;
      --text-primary: #ffffff; --text-secondary: #c3c2b7;
      --series-1: #3987e5; --status-serious: #e66767;
      --grid: #3a3a38;
    }
  }
  .viz-root h1 { font-size: 20px; margin: 0 0 4px; }
  .viz-root .sub { color: var(--text-secondary); margin: 0 0 20px; }
  .tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 0 0 20px; }
  .tile { background: var(--surface-2); border-radius: 8px;
          padding: 10px 16px; min-width: 120px; }
  .tile .v { font-size: 22px; font-weight: 600; }
  .tile .k { color: var(--text-secondary); font-size: 12px; }
  .callouts { border-left: 3px solid var(--status-serious);
              background: var(--surface-2); padding: 10px 14px;
              border-radius: 0 8px 8px 0; margin: 0 0 20px; }
  .callouts .flag { color: var(--status-serious); font-weight: 600; }
  .grid { display: grid; gap: 12px;
          grid-template-columns: repeat(auto-fill, minmax(280px, 1fr)); }
  .card { background: var(--surface-2); border-radius: 8px;
          padding: 12px 14px; }
  .card .name { font-weight: 600; margin-bottom: 2px;
                overflow-wrap: anywhere; }
  .card .meta { color: var(--text-secondary); font-size: 12px;
                margin-bottom: 6px; }
  .card .flag { color: var(--status-serious); font-weight: 600; }
  svg .line { stroke: var(--series-1); stroke-width: 2; }
  svg .pt { fill: var(--series-1); }
  svg .pt-last { fill: var(--series-1); stroke: var(--surface-2);
                 stroke-width: 2; }
  svg .pt-last-bad { fill: var(--status-serious);
                     stroke: var(--surface-2); stroke-width: 2; }
  table { border-collapse: collapse; margin-top: 24px; width: 100%; }
  th, td { text-align: left; padding: 4px 10px;
           border-bottom: 1px solid var(--grid); font-size: 13px; }
  th { color: var(--text-secondary); font-weight: 600; }
  td.num { font-variant-numeric: tabular-nums; }
"""


def render_dashboard(history: BenchHistory, stats: Sequence[TrendStat], *,
                     title: str = "repro-vliw perf observatory") -> str:
    """The static HTML dashboard: tiles, callouts, sparkline cards and a
    full table view of every gated metric."""
    series = history.series()
    by_bench = {s.bench: s for s in stats if s.metric == "wall_s"}
    flagged = [s for s in stats if s.verdict in ("regression", "missing")]

    tiles = [
        ("benchmarks", str(len(by_bench))),
        ("history rows", str(sum(len(v) for v in series.values()))),
        ("flagged", str(len(flagged))),
    ]
    tile_html = "".join(
        f'<div class="tile"><div class="v">{html.escape(v)}</div>'
        f'<div class="k">{html.escape(k)}</div></div>'
        for k, v in tiles)

    if flagged:
        items = "".join(f"<li>{html.escape(s.describe())}</li>"
                        for s in flagged)
        callouts = (f'<div class="callouts"><span class="flag">'
                    f'&#9650; {len(flagged)} flagged</span>'
                    f"<ul>{items}</ul></div>")
    else:
        callouts = ('<div class="callouts" style="border-color:'
                    'var(--grid)">no regressions flagged</div>')

    cards = []
    for bench in sorted(by_bench):
        s = by_bench[bench]
        rows = series.get((bench, "wall_s"), [])
        values = [r["value"] for r in rows]
        labels = [f'{r.get("git_sha", "")} {r.get("timestamp", "")}'
                  for r in rows]
        if s.latest is not None:
            values = values + [s.latest]
            labels = labels + ["latest"]
        meta = ("missing" if s.latest is None
                else f"{s.latest:.4g}s latest")
        if s.median is not None:
            meta += f" &middot; median {s.median:.4g}s"
        flag = ('<span class="flag"> &#9650; regression</span>'
                if s.regressed else
                ('<span class="flag"> &#9650; missing</span>'
                 if s.verdict == "missing" else ""))
        cards.append(
            f'<div class="card"><div class="name">{html.escape(bench)}'
            f'{flag}</div><div class="meta">{meta}</div>'
            f'{_svg_sparkline(values, labels, flagged=s.regressed)}</div>')

    rows_html = []
    for s in stats:
        verdict = s.verdict
        if s.regressed or s.verdict == "missing":
            verdict = f'<span class="flag">&#9650; {s.verdict}</span>'
        rows_html.append(
            "<tr>"
            f"<td>{html.escape(s.bench)}</td>"
            f"<td>{html.escape(s.metric)}</td>"
            f'<td class="num">{s.n_history}</td>'
            f'<td class="num">'
            f'{"" if s.latest is None else f"{s.latest:.4g}"}</td>'
            f'<td class="num">'
            f'{"" if s.median is None else f"{s.median:.4g}"}</td>'
            f"<td>{html.escape(s.test)}</td>"
            f"<td>{verdict}</td></tr>")

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_DASHBOARD_CSS}</style>
</head>
<body class="viz-root">
<h1>{html.escape(title)}</h1>
<p class="sub">wall-time trajectory per benchmark; robust median+MAD
gate with fixed-ratio fallback on short history</p>
<div class="tiles">{tile_html}</div>
{callouts}
<div class="grid">{"".join(cards)}</div>
<table>
<thead><tr><th>benchmark</th><th>metric</th><th>runs</th><th>latest</th>
<th>median</th><th>test</th><th>verdict</th></tr></thead>
<tbody>{"".join(rows_html)}</tbody>
</table>
</body>
</html>
"""


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

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


def write_json(path, payload: dict) -> None:
    """Small helper: pretty, sorted, trailing newline (repo convention)."""
    import pathlib

    pathlib.Path(path).write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")
