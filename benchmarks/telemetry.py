"""Perf telemetry: ``BENCH_<name>.json`` records and baseline gating.

Every benchmark emits one JSON record at the repo root (override the
directory with ``REPRO_BENCH_DIR``) carrying its wall time, corpus size
and a few headline metrics.  The records are the repo's performance
trajectory: CI uploads them as artifacts, EXPERIMENTS.md quotes them, and
the ``perf-smoke`` job gates merges by comparing them against the
checked-in ``benchmarks/baseline.json``.

Command line::

    python benchmarks/telemetry.py check  --baseline benchmarks/baseline.json BENCH_*.json
    python benchmarks/telemetry.py update --baseline benchmarks/baseline.json BENCH_*.json

``check`` exits non-zero when any record's wall time exceeds its baseline
by more than the tolerance factor (default 1.3x; override per call with
``--tolerance`` or per entry with a ``"tolerance"`` key in the baseline).
Records without a baseline entry are reported but never fail the check,
so adding a benchmark does not require touching the baseline in the same
change.  ``update`` rewrites the baseline entries from the given records
(keeping unknown entries), for refreshing after an intentional change.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import platform
import socket
import subprocess
import sys
from typing import Iterable, Optional

#: Schema 2 adds the ``provenance`` block (git sha, hostname
#: fingerprint, python version); schema-1 records stay readable --
#: every consumer treats provenance as optional.
SCHEMA_VERSION = 2
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = pathlib.Path(__file__).resolve().parent / "baseline.json"
DEFAULT_TOLERANCE = 1.3


def bench_dir() -> pathlib.Path:
    """Where ``BENCH_<name>.json`` records land (repo root by default)."""
    return pathlib.Path(os.environ.get("REPRO_BENCH_DIR", REPO_ROOT))


_PROVENANCE: Optional[dict] = None


def _git_sha() -> str:
    sha = os.environ.get("REPRO_GIT_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def provenance() -> dict:
    """Where a record came from: git sha, host fingerprint, python.

    The hostname is fingerprinted (truncated SHA-256), not recorded
    raw -- records are committed and uploaded as CI artifacts, and the
    trajectory only needs to distinguish machines, not name them.
    Memoised per process (the git subprocess is not free).
    """
    global _PROVENANCE
    if _PROVENANCE is None:
        host = hashlib.sha256(
            socket.gethostname().encode("utf-8", "replace")).hexdigest()
        _PROVENANCE = {
            "git_sha": _git_sha(),
            "host": host[:12],
            "python": platform.python_version(),
        }
    return dict(_PROVENANCE)


def write_bench_json(name: str, wall_s: float, *,
                     corpus_size: Optional[int] = None,
                     metrics: Optional[dict] = None) -> pathlib.Path:
    """Persist one benchmark's telemetry record; returns the path."""
    record = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "wall_s": round(float(wall_s), 4),
        "corpus_size": corpus_size,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "provenance": provenance(),
        "metrics": metrics or {},
    }
    out = bench_dir() / f"BENCH_{name}.json"
    tmp = out.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    tmp.replace(out)
    return out


def read_bench(path: "pathlib.Path | str") -> dict:
    return json.loads(pathlib.Path(path).read_text())


def load_baseline(path: "pathlib.Path | str") -> dict:
    data = json.loads(pathlib.Path(path).read_text())
    if "benches" not in data:
        raise ValueError(f"{path}: baseline must carry a 'benches' map")
    return data


def check_against_baseline(
        record_paths: Iterable["pathlib.Path | str"],
        baseline: dict, *,
        tolerance: float = DEFAULT_TOLERANCE,
        total_budget_ratio: Optional[float] = None,
        ) -> tuple[list[str], list[str]]:
    """Compare records to the baseline; returns ``(report, failures)``.

    A record fails when ``wall_s > baseline_wall * tolerance``; the
    per-entry ``"tolerance"`` key overrides the global factor.  With
    *total_budget_ratio* set, the *combined* wall clock of every record
    that has a baseline entry is additionally held to
    ``sum(baselines) * ratio`` -- the CI wall-clock budget: individually
    tolerable creep across several benchmarks still fails the job.
    """
    report: list[str] = []
    failures: list[str] = []
    benches = baseline["benches"]
    total_wall = total_base = 0.0
    for path in sorted(map(str, record_paths)):
        rec = read_bench(path)
        name, wall = rec["name"], rec["wall_s"]
        entry = benches.get(name)
        if entry is None:
            report.append(f"  {name}: {wall:.2f}s (no baseline entry)")
            continue
        base = float(entry["wall_s"])
        total_wall += wall
        total_base += base
        tol = float(entry.get("tolerance", tolerance))
        limit = base * tol
        verdict = "ok" if wall <= limit else "REGRESSION"
        line = (f"  {name}: {wall:.2f}s vs baseline {base:.2f}s "
                f"(limit {limit:.2f}s = {tol:.2f}x) -- {verdict}")
        report.append(line)
        if wall > limit:
            failures.append(line.strip())
    if total_budget_ratio is not None and total_base > 0.0:
        budget = total_base * total_budget_ratio
        verdict = "ok" if total_wall <= budget else "REGRESSION"
        line = (f"  TOTAL: {total_wall:.2f}s vs budget {budget:.2f}s "
                f"({total_budget_ratio:.2f}x of {total_base:.2f}s "
                f"combined baseline) -- {verdict}")
        report.append(line)
        if total_wall > budget:
            failures.append(line.strip())
    return report, failures


def update_baseline(record_paths: Iterable["pathlib.Path | str"],
                    baseline_path: "pathlib.Path | str") -> dict:
    """Fold the given records' wall times into the baseline file."""
    path = pathlib.Path(baseline_path)
    data = (load_baseline(path) if path.exists()
            else {"schema": SCHEMA_VERSION, "benches": {}})
    for rp in record_paths:
        rec = read_bench(rp)
        entry = data["benches"].setdefault(rec["name"], {})
        entry["wall_s"] = rec["wall_s"]
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd in ("check", "update"):
        p = sub.add_parser(cmd)
        p.add_argument("records", nargs="+",
                       help="BENCH_<name>.json files to process")
        p.add_argument("--baseline", default=str(DEFAULT_BASELINE))
        if cmd == "check":
            p.add_argument("--tolerance", type=float,
                           default=DEFAULT_TOLERANCE)
            p.add_argument("--total-budget-ratio", type=float,
                           default=None,
                           help="also fail when the combined wall clock "
                                "of all baselined records exceeds this "
                                "factor of the combined baseline")
    args = parser.parse_args(argv)

    if args.cmd == "update":
        update_baseline(args.records, args.baseline)
        print(f"baseline {args.baseline} updated from "
              f"{len(args.records)} record(s)")
        return 0

    baseline = load_baseline(args.baseline)
    report, failures = check_against_baseline(
        args.records, baseline, tolerance=args.tolerance,
        total_budget_ratio=args.total_budget_ratio)
    print("perf-smoke comparison:")
    for line in report:
        print(line)
    if failures:
        print(f"\n{len(failures)} perf regression(s) beyond tolerance:",
              file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
