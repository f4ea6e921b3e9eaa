"""The perf observatory's data layer: bench history + regression tests.

``BENCH_<name>.json`` records (one per benchmark per run, schema 1 or 2)
are flattened into rows keyed by ``(bench, metric, git_sha, timestamp)``
and appended to a JSONL history file -- CI appends its fresh perf-smoke
records every run, so the file accumulates the repo's performance
trajectory across commits.

On top of the rows sit per-metric trend statistics
(:func:`trend_stats`) and the statistical regression gate
(:func:`detect_regressions`): the newest value of each gated metric is
compared against the trailing window of its history with a robust
median + MAD z-score.  Short history and zero-variance series fall back
to the fixed-ratio test the 1.3x baseline gate already uses, so the
statistical gate is never *weaker* than the historical one -- it only
gets sharper as history accumulates.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: Default trailing-window length for the robust test.
DEFAULT_WINDOW = 10

#: Minimum prior observations before MAD statistics apply; below this the
#: fixed-ratio fallback gates instead.
MIN_HISTORY = 4

#: Robust z-score threshold (0.6745 * (x - median) / MAD ~ N(0,1)).
DEFAULT_Z_THRESHOLD = 3.5

#: Fixed-ratio fallback (and the floor under the z-test: a statistically
#: significant but sub-5% drift is reported, never failed).
DEFAULT_RATIO = 1.3
SLOWDOWN_FLOOR = 1.05

#: Metrics gated for regressions: wall time plus anything that is
#: explicitly a duration.  Other metrics get trend statistics only --
#: their "good" direction is not knowable here.
GATED_METRICS = ("wall_s",)


def _flatten(metrics: dict, prefix: str = "") -> Iterable[tuple[str, float]]:
    for key, value in metrics.items():
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and math.isfinite(value):
            yield name, float(value)
        elif isinstance(value, dict):
            yield from _flatten(value, f"{name}.")


def rows_from_record(record: dict, *,
                     git_sha: Optional[str] = None) -> list[dict]:
    """Flatten one telemetry record into history rows.

    Works on schema-1 records (no provenance block) and schema-2 ones
    (``git_sha`` comes from ``record["provenance"]``); the *git_sha*
    argument overrides both.
    """
    provenance = record.get("provenance") or {}
    sha = git_sha or provenance.get("git_sha") or "unknown"
    ts = record.get("timestamp") or ""
    bench = record.get("name") or "unknown"
    rows = []
    metrics = {"wall_s": record.get("wall_s")}
    metrics.update(record.get("metrics") or {})
    for metric, value in _flatten(metrics):
        rows.append({"bench": bench, "metric": metric, "value": value,
                     "git_sha": sha, "timestamp": ts})
    return rows


def rows_from_files(paths: Iterable["pathlib.Path | str"], *,
                    git_sha: Optional[str] = None) -> list[dict]:
    rows: list[dict] = []
    for path in sorted(map(str, paths)):
        try:
            record = json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError):
            continue
        rows.extend(rows_from_record(record, git_sha=git_sha))
    return rows


class BenchHistory:
    """Append-only JSONL history of benchmark metric rows."""

    def __init__(self, path: "pathlib.Path | str") -> None:
        self.path = pathlib.Path(path)

    def append(self, rows: Sequence[dict]) -> int:
        """Append *rows*, skipping exact (bench, metric, git_sha,
        timestamp) duplicates already present; returns rows written."""
        def _ident(r: dict) -> tuple:
            return (r["bench"], r["metric"], r["git_sha"],
                    r["timestamp"])

        seen = {_ident(r) for r in self.load()}
        fresh = [r for r in rows if _ident(r) not in seen]
        if fresh:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                for row in fresh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
        return len(fresh)

    def load(self) -> list[dict]:
        """Every well-formed row, in file order (corrupt lines skipped)."""
        if not self.path.exists():
            return []
        rows = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict) and "bench" in row and "metric" in row:
                rows.append(row)
        return rows

    def series(self) -> dict[tuple[str, str], list[dict]]:
        """Rows grouped by ``(bench, metric)``, ordered by timestamp."""
        out: dict[tuple[str, str], list[dict]] = {}
        for row in self.load():
            out.setdefault((row["bench"], row["metric"]), []).append(row)
        for rows in out.values():
            rows.sort(key=lambda r: r.get("timestamp") or "")
        return out


# ---------------------------------------------------------------------------
# trend statistics + the regression gate
# ---------------------------------------------------------------------------

@dataclass
class TrendStat:
    """Trend verdict for one (bench, metric) against its history."""

    bench: str
    metric: str
    latest: Optional[float]
    n_history: int
    median: Optional[float] = None
    mad: Optional[float] = None
    z: Optional[float] = None
    ratio: Optional[float] = None
    verdict: str = "ok"          # ok | regression | missing | no-history
    test: str = "none"           # mad-z | ratio | none
    history: list[float] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return self.verdict == "regression"

    def describe(self) -> str:
        if self.verdict == "missing":
            return (f"{self.bench}/{self.metric}: MISSING from the newest "
                    f"record ({self.n_history} historical runs have it)")
        if self.verdict == "no-history":
            return (f"{self.bench}/{self.metric}: {self.latest:.4g} "
                    f"(no history yet)")
        detail = f"latest {self.latest:.4g} vs median {self.median:.4g}"
        if self.test == "mad-z":
            detail += f", robust z {self.z:.2f}"
        elif self.ratio is not None:
            detail += f", ratio {self.ratio:.2f}x"
        tag = "REGRESSION" if self.regressed else "ok"
        return (f"{self.bench}/{self.metric}: {detail} "
                f"[{self.test}, n={self.n_history}] -- {tag}")


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def robust_stats(values: Sequence[float]) -> tuple[float, float]:
    """``(median, MAD)`` of *values* (MAD = median absolute deviation)."""
    med = _median(values)
    mad = _median([abs(v - med) for v in values])
    return med, mad


def evaluate_metric(history: Sequence[float], latest: Optional[float], *,
                    bench: str, metric: str,
                    window: int = DEFAULT_WINDOW,
                    z_threshold: float = DEFAULT_Z_THRESHOLD,
                    ratio: float = DEFAULT_RATIO) -> TrendStat:
    """Gate one metric's newest value against its trailing history.

    Decision ladder (higher value = worse, callers only gate durations):

    1. *latest* is ``None`` -> ``missing`` (flagged, but distinct from a
       measured regression).
    2. no history -> ``no-history`` (never fails: a brand-new benchmark
       must not need same-change history edits, mirroring the baseline
       gate's behaviour for unknown records).
    3. fewer than :data:`MIN_HISTORY` points, or MAD == 0 (zero-variance
       series) -> fixed-ratio test against the median.
    4. otherwise -> robust z-score over the trailing *window*, with the
       :data:`SLOWDOWN_FLOOR` guard so microsecond-tight series cannot
       fail on drift too small to matter.
    """
    tail = list(history)[-window:]
    stat = TrendStat(bench=bench, metric=metric, latest=latest,
                     n_history=len(tail), history=tail)
    if latest is None:
        stat.verdict = "missing"
        return stat
    if not tail:
        stat.verdict = "no-history"
        return stat
    med, mad = robust_stats(tail)
    stat.median, stat.mad = med, mad
    stat.ratio = (latest / med) if med > 0 else None
    if len(tail) < MIN_HISTORY or mad == 0.0:
        stat.test = "ratio"
        if med > 0 and latest > med * ratio:
            stat.verdict = "regression"
        return stat
    stat.test = "mad-z"
    stat.z = 0.6745 * (latest - med) / mad
    if stat.z > z_threshold and med > 0 \
            and latest > med * SLOWDOWN_FLOOR:
        stat.verdict = "regression"
    return stat


def trend_stats(history: BenchHistory, records: Sequence[dict], *,
                window: int = DEFAULT_WINDOW,
                z_threshold: float = DEFAULT_Z_THRESHOLD,
                ratio: float = DEFAULT_RATIO) -> list[TrendStat]:
    """One :class:`TrendStat` per gated metric per newest record.

    *records* are the freshly produced telemetry records (the run under
    test); rows already in *history* with the same (bench, git_sha,
    timestamp) identity are excluded from the comparison window, so
    appending before gating does not let a run vouch for itself.
    """
    series = history.series()
    stats: list[TrendStat] = []
    for record in sorted(records, key=lambda r: r.get("name") or ""):
        bench = record.get("name") or "unknown"
        newest = rows_from_record(record)
        newest_ids = {(r["git_sha"], r["timestamp"]) for r in newest}
        latest_by_metric = {r["metric"]: r["value"] for r in newest}
        gated = [m for m in GATED_METRICS]
        # historical gated metrics missing from the newest record are a
        # telemetry break worth surfacing -- but only ones ever recorded
        for (b, metric), rows in series.items():
            if b == bench and metric in GATED_METRICS \
                    and metric not in latest_by_metric \
                    and metric not in gated:
                gated.append(metric)
        for metric in gated:
            prior = [r["value"]
                     for r in series.get((bench, metric), [])
                     if (r["git_sha"], r["timestamp"]) not in newest_ids]
            latest = latest_by_metric.get(metric)
            if latest is None and not prior:
                continue
            stat = evaluate_metric(
                prior, latest, bench=bench, metric=metric, window=window,
                z_threshold=z_threshold, ratio=ratio)
            stats.append(stat)
    return stats


def detect_regressions(history: BenchHistory, records: Sequence[dict],
                       **kwargs) -> list[TrendStat]:
    """The flagged subset of :func:`trend_stats` (regressions and
    missing-metric breaks)."""
    return [s for s in trend_stats(history, records, **kwargs)
            if s.verdict in ("regression", "missing")]
