"""The CI timing gate: the repository benchmark, paired against a base.

::

    python3 tools/perf_gate.py BASE_DIR

``BASE_DIR`` is a checkout of the commit to compare against (CI makes
it with ``git worktree add``); the head side is the checkout holding
this script.  For every workload in head's ``BENCHMARK.json`` the gate
runs the benchmark command with ``--workload W --seed 1 --seconds
<run_seconds> --trace 0`` ``PAIRS`` times on each side, alternating
which side goes first, each side from its own checkout.  Every metric,
its ``better`` direction and its bound come from ``BENCHMARK.json``.

The gate fails (exit 1) when

* a head run exits non-zero or reports ``correct: false``;
* a base run cannot be measured (a silent pass would hide a broken
  base, so it is reported and fails);
* head's failed share of attempted jobs exceeds base's;
* an end-to-end metric's head median is worse than base's by more than
  its bound *and* every head run reads worse than every base run.

A median past its bound while the runs overlap is printed as
``unresolved`` and does not fail: the run-to-run spread is wider than
the bound, so the pairs cannot tell the two sides apart.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Optional

HEAD = pathlib.Path(__file__).resolve().parent.parent

#: Alternating base/head pairs per workload.  Five pairs put a chance
#: full separation of two equal sides at 1 in 252 per metric.
PAIRS = 5
SEED = 1

#: One benchmark run takes about a minute; this bounds a hung one.
RUN_TIMEOUT_S = 900.0


def run_once(command: list[str], cwd: pathlib.Path, workload: str,
             seconds: float, pycache: pathlib.Path) -> dict:
    """One benchmark run: ``{"exit": status, "result": last-line JSON
    or None}``.

    Each side keeps its bytecode under its own ``pycache`` prefix, so
    both start cold whatever ``__pycache__`` directories a checkout
    already holds.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    argv = [*command, "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "result": None}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        result = None
    return {"exit": proc.returncode, "result": result}


def _bad_runs(runs: list[dict]) -> list[int]:
    """Indices of the runs that crashed, hung or were not correct."""
    return [i for i, r in enumerate(runs)
            if r["exit"] != 0 or r["result"] is None
            or r["result"].get("correct") is not True]


def _missing_field(run: dict, metrics: list[str]) -> Optional[str]:
    """The first field the verdict reads that a correct *run* lacks."""
    r = run["result"]
    for field in ("attempted", "failed"):
        if field not in r:
            return field
    for name in metrics:
        if "value" not in r.get("metrics", {}).get(name, {}):
            return f"metrics.{name}"
    return None


def _failed_share(run: dict) -> float:
    r = run["result"]
    return r["failed"] / r["attempted"] if r["attempted"] else 0.0


def _worse(better: str, a: float, b: float) -> bool:
    """Whether value *a* reads worse than value *b*."""
    return a > b if better == "lower" else a < b


def workload_verdict(workload: str, end_to_end: list[dict],
                     base: list[dict], head: list[dict]
                     ) -> tuple[list[str], bool]:
    """Judge one workload's paired runs: ``(report lines, failed)``.

    ``end_to_end`` is ``BENCHMARK.json``'s metric list; ``base`` and
    ``head`` are :func:`run_once` records.
    """
    lines: list[str] = []
    bad_head, bad_base = _bad_runs(head), _bad_runs(base)
    if bad_head:
        lines.append(f"{workload}: FAIL head run(s) {bad_head} exited "
                     f"non-zero or were not correct")
    if bad_base:
        lines.append(f"{workload}: FAIL base run(s) {bad_base} could not "
                     f"be measured")
    if lines:
        return lines, True
    names = [metric["name"] for metric in end_to_end]
    for side, runs in (("head", head), ("base", base)):
        for i, run in enumerate(runs):
            field = _missing_field(run, names)
            if field is not None:
                lines.append(f"{workload}: FAIL {side} run {i} missing "
                             f"{field}")
    if lines:
        return lines, True

    failed = False

    base_share = max(_failed_share(r) for r in base)
    head_share = max(_failed_share(r) for r in head)
    if head_share > base_share:
        lines.append(f"{workload}: FAIL failed/attempted rose "
                     f"{base_share:.5f} -> {head_share:.5f}")
        failed = True

    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], \
            metric["bound"]
        b = [r["result"]["metrics"][name]["value"] for r in base]
        h = [r["result"]["metrics"][name]["value"] for r in head]
        b_med, h_med = statistics.median(b), statistics.median(h)
        change = (h_med - b_med) / abs(b_med) if b_med else h_med - b_med
        loss = change if better == "lower" else -change
        separated = all(_worse(better, x, y) for x in h for y in b)
        if loss <= bound:
            verdict = "ok"
        elif separated:
            verdict = "FAIL"
            failed = True
        else:
            verdict = "unresolved"
        lines.append(f"{workload}: {name} base {b_med:.6g} head "
                     f"{h_med:.6g} ({change:+.1%}, bound {bound:.0%}, "
                     f"{better} is better) {verdict}")
    return lines, failed


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not pathlib.Path(args[0]).is_dir():
        print("usage: perf_gate.py BASE_DIR", file=sys.stderr)
        return 2
    base_dir = pathlib.Path(args[0]).resolve()
    bench = json.loads((HEAD / "BENCHMARK.json").read_text())
    started = time.monotonic()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": (base_dir, pathlib.Path(tmp) / "base"),
                 "head": (HEAD, pathlib.Path(tmp) / "head")}
        for workload in (w["name"] for w in bench["workloads"]):
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            for i in range(PAIRS):
                for side in (("base", "head") if i % 2 == 0
                             else ("head", "base")):
                    cwd, pycache = sides[side]
                    runs[side].append(run_once(
                        bench["command"], cwd, workload,
                        bench["run_seconds"], pycache))
            lines, bad = workload_verdict(workload, bench["end_to_end"],
                                          runs["base"], runs["head"])
            print("\n".join(lines), flush=True)
            failed |= bad
    print(f"perf gate: {'FAIL' if failed else 'pass'} "
          f"({PAIRS} pairs per workload, "
          f"{time.monotonic() - started:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
