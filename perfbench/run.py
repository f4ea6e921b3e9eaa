"""The repository benchmark: one command per workload, every metric checked.

::

    python3 perfbench/run.py --workload ring-sweep --seed 1 --seconds 20 \\
        --trace 0

runs the workload's fixed, seeded job list in several rounds, each in a
fresh process with a fresh result cache, checks the outputs, and prints
provenance, any failed jobs and, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (BENCHMARK.json
``end_to_end``); with ``--trace 1`` untraced and traced rounds alternate,
and the metrics are the per-layer ones, including the tracing overhead.
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Expected timed seconds of one round at scale 1 on a 2-CPU box; the
#: round count is ``--seconds`` divided by this (at least two rounds, so
#: every run can compare its rounds).  A constant, never a measurement:
#: the same arguments always run the same rounds.
ROUND_SECONDS = {"ring-sweep": 7.5, "unroll-sweep": 18.0,
                 "service-replay": 6.5}
MIN_ROUNDS = 2

#: Set-up is timed this many times per run (rounds plus set-up-only
#: launches) and reported as the median.
SETUP_SAMPLES = 5

#: Client connections of service-replay (closed loop, keep-alive).
SERVICE_CONNECTIONS = 2

#: Every wait on a child process is bounded by this.
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "proved_frac": "ratio",
    "ii_over_mii": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run the workload to completion."""


def child_env() -> dict:
    """The environment of every child: the program's defaults.

    ``REPRO_*`` settings other than the kernel backend (tracing, fault
    plans, cache and worker overrides) are dropped, and the hash seed is
    fixed so dict and set layouts repeat from run to run.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") or k == "REPRO_KERNELS"}
    env["PYTHONHASHSEED"] = "0"
    return env


def _wait(proc: subprocess.Popen, what: str) -> None:
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{what} did not finish in {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with status {proc.returncode}")


def _read_json(path: pathlib.Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- sweeps

def sweep_round(workload: str, seed: int, scale: float,
                work: pathlib.Path, *, trace: bool = False,
                setup_only: bool = False) -> dict:
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
           "--seed", str(seed), "--scale", str(scale),
           "--cache-dir", str(work / "cache"), "--out", str(out)]
    if trace:
        cmd += ["--trace", str(work / "spans.json")]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    _wait(proc, f"{workload} round")
    res = _read_json(out)
    res["setup_s"] = res.pop("t_ready") - t_spawn
    res["n_jobs"] = len(res.get("outcomes", ()))
    if trace:
        res["dumps"] = [_read_json(work / "spans.json")]
    return res


# --------------------------------------------------------------- service

def _daemon_port(log: pathlib.Path, proc: subprocess.Popen) -> int:
    marker = "listening on http://127.0.0.1:"
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"daemon exited early ({proc.returncode}): "
                             f"{log.read_text()[-500:]}")
        text = log.read_text() if log.exists() else ""
        if marker in text:
            return int(text.split(marker, 1)[1].split()[0])
        time.sleep(0.005)
    raise BenchError("daemon did not start listening within 60s")


def _healthz(port: int) -> dict:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        try:
            status, body = _get(port, "/healthz")
            if status == 200:
                return json.loads(body)
        except OSError:
            pass
        time.sleep(0.005)
    raise BenchError("daemon /healthz did not answer within 60s")


def _post(body: bytes) -> bytes:
    return (b"POST /jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


def _read_response(sock: socket.socket,
                   buf: bytearray) -> tuple[int, bytes]:
    """``(status, body)`` of one HTTP/1.1 response with a
    Content-Length; *buf* holds bytes already read from *sock*."""
    while (end := buf.find(b"\r\n\r\n")) < 0:
        chunk = sock.recv(65536)
        if not chunk:
            raise BenchError("daemon closed the connection")
        buf += chunk
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = next(int(line.split(":", 1)[1]) for line in head[1:]
                  if line.lower().startswith("content-length:"))
    del buf[:end + 4]
    while len(buf) < length:
        chunk = sock.recv(max(65536, length - len(buf)))
        if not chunk:
            raise BenchError("daemon closed the connection")
        buf += chunk
    body = bytes(buf[:length])
    del buf[:length]
    return status, body


def _get(port: int, path: str) -> tuple[int, bytes]:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b"GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Connection: close\r\n\r\n" % path.encode())
        return _read_response(sock, bytearray())


def drive(port: int, bodies: list[bytes]) -> dict:
    """Closed loop: each connection sends its next request only after
    the previous response arrived.  Latency is per request, from send
    to the last byte of the response.

    The client speaks just enough HTTP/1.1 over plain sockets to keep
    its own CPU use small: it shares the box with the daemon it drives.
    """
    n = len(bodies)
    requests = [_post(body) for body in bodies]
    latencies = [0.0] * n
    statuses = [0] * n
    raw: list[bytes] = [b""] * n
    errors: list[Exception] = []
    next_request = itertools.count()
    clock = time.perf_counter

    def client() -> None:
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=120) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                buf = bytearray()
                for i in next_request:
                    if i >= n:
                        return
                    t = clock()
                    sock.sendall(requests[i])
                    statuses[i], raw[i] = _read_response(sock, buf)
                    latencies[i] = clock() - t
        except Exception as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client)
               for _ in range(SERVICE_CONNECTIONS)]
    t0 = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join(CHILD_TIMEOUT_S)
    wall_s = clock() - t0
    if any(t.is_alive() for t in threads):
        raise BenchError("service client did not finish")
    if errors:
        raise BenchError(f"service client failed: {errors[0]!r}")
    return {"wall_s": wall_s, "latencies": latencies, "statuses": statuses,
            "raw": raw}


def _stop_daemon(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    _wait(proc, "daemon")


def service_round(plan: "workloads.ServicePlan", bodies: list[bytes],
                  work: pathlib.Path, *, trace: bool = False,
                  setup_only: bool = False) -> dict:
    log = work / "daemon.log"
    cmd = [sys.executable, str(HERE / "serve.py"),
           "--out", str(work / "stats.json")]
    if trace:
        cmd += ["--trace", str(work / "spans.json")]
    cmd += ["--", "--cache-dir", str(work / "cache"), "serve",
            "--port", "0"]
    t_spawn = time.monotonic()
    with open(log, "w") as log_fh:
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log_fh)
    try:
        port = _daemon_port(log, proc)
        health = _healthz(port)
        setup_s = time.monotonic() - t_spawn
        if setup_only:
            return {"setup_s": setup_s}
        run = drive(port, bodies)
        status, body = _get(port, "/metrics.json")
        if status != 200:
            raise BenchError(f"/metrics.json answered {status}")
        counters = json.loads(body)["service"]
    finally:
        _stop_daemon(proc)
    res = {"setup_s": setup_s, "wall_s": run["wall_s"],
           "latencies": run["latencies"], "kernels": health["kernels"],
           "peak_rss_mb": _read_json(work / "stats.json")["peak_rss_mb"],
           "service": counters}
    res.update(decode_answers(plan, run["statuses"], run["raw"]))
    if trace:
        res["dumps"] = [_read_json(work / "spans.json")]
    return res


def decode_answers(plan: "workloads.ServicePlan", statuses: list[int],
                   raw: list[bytes]) -> dict:
    """Outcome rows in request order, plus one answer per population
    spec; a request that failed marks every job it carried failed."""
    rows: list[list] = []
    answers: dict[int, dict] = {}
    problems: list[str] = []
    for i, req in enumerate(plan.requests):
        if statuses[i] != 200:
            problems.append(f"request {i} answered HTTP {statuses[i]}")
            rows.extend([f"request-{i}", "-", 0, 0, True,
                         f"HTTP {statuses[i]}"] for _ in req)
            continue
        results = json.loads(raw[i])["results"]
        for p, rec in zip(req, results):
            o = rec["outcome"]
            rows.append([o["loop"], o["machine"], o["ii"], o["mii"],
                         bool(o["failed"]), o.get("error")])
            answer = _comparable(rec)
            if answers.setdefault(p, answer) != answer:
                problems.append(f"population spec {p} answered two "
                                f"different results")
    return {"outcomes": rows, "answers": answers, "problems": problems,
            "n_jobs": len(rows)}


def _comparable(record: dict) -> dict:
    """A result record without its timing fields."""
    extras = {k: v for k, v in record.get("extras", {}).items()
              if k != "trace"}
    return {"key": record["key"], "outcome": record["outcome"],
            "extras": extras}


def reference_check(plan: "workloads.ServicePlan", answers: dict,
                    work: pathlib.Path) -> list[str]:
    """Compile the check sample serially with ``run_jobs`` (no cache)
    and compare with what the daemon answered."""
    specs = work / "specs.json"
    out = work / "reference.json"
    with open(specs, "w") as fh:
        json.dump([plan.population[p] for p in plan.check], fh)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sweep.py"), "--specs", str(specs),
         "--out", str(out)], env=child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL)
    _wait(proc, "reference run")
    problems = []
    for p, rec in zip(plan.check, _read_json(out)["results"]):
        if _comparable(rec) != answers.get(p):
            problems.append(f"daemon answer for population spec {p} "
                            f"differs from the serial run_jobs result")
    return problems


# ------------------------------------------------------------- summaries

def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def quality(rows: list[list]) -> dict:
    """Attempted/failed counts, proved share, II/MII and a digest.

    ``proved_frac`` and ``ii_over_mii`` count each distinct (loop,
    machine) job once: service-replay repeats jobs by popularity, and
    schedule quality must not depend on which jobs the seed made
    popular.  In the sweeps every job is distinct anyway.
    """
    distinct = list({(r[0], r[1]): r for r in rows}.values())
    proved = [r for r in distinct if not r[4]]
    log_sum = sum(math.log(r[2] / r[3]) for r in proved)
    digest = hashlib.sha256(json.dumps(
        [r[:5] for r in rows]).encode()).hexdigest()
    return {"attempted": len(rows),
            "failed": sum(1 for r in rows if r[4]),
            "proved_frac": len(proved) / len(distinct) if rows else 0.0,
            "ii_over_mii": math.exp(log_sum / len(proved))
            if proved else 0.0,
            "digest": digest}


def output_problems(rounds: list[dict]) -> list[str]:
    problems = []
    for n, res in enumerate(rounds):
        problems.extend(res.get("problems", ()))
        for r in res["outcomes"]:
            if not r[4] and r[2] < r[3]:
                problems.append(f"round {n}: {r[0]} on {r[1]} proved "
                                f"with II {r[2]} < MII {r[3]}")
    first = quality(rounds[0]["outcomes"])
    for n, res in enumerate(rounds[1:], 1):
        if quality(res["outcomes"]) != first:
            problems.append(f"round {n} outcomes differ from round 0 "
                            f"(attempted/failed/proved_frac/ii_over_mii/"
                            f"digest)")
    return problems


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ------------------------------------------------------------------- runs

def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 scale: float = 1.0, setup_samples: int = SETUP_SAMPLES,
                 work_root: Optional[pathlib.Path] = None) -> dict:
    """Run one invocation; returns the result line plus a report.

    *scale* shrinks the job lists and *setup_samples* the set-up
    launches, for the benchmark's own tests; the command line always
    runs the full size."""
    work_root = work_root or ROOT / ".perfbench_work"
    work = work_root / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, scale, setup_samples,
                    work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: str, seed: int, seconds: float, trace: bool,
         scale: float, setup_samples: int, work: pathlib.Path) -> dict:
    service = workload == "service-replay"
    if service:
        from repro.workloads.kernels import KERNELS
        plan = workloads.service_plan(seed, list(KERNELS), scale=scale)
        bodies = plan.bodies()

    def one(n: int, **kw) -> dict:
        d = work / f"round{n}"
        d.mkdir()
        if service:
            return service_round(plan, bodies, d, **kw)
        return sweep_round(workload, seed, scale, d, **kw)

    # traced runs alternate untraced and traced rounds, so a slow spell
    # on the box does not land on one side of the overhead comparison
    traced_flags = [False, True] * MIN_ROUNDS if trace else [False] * max(
        MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))
    rounds = [one(n, trace=t) for n, t in enumerate(traced_flags)]
    setups = [r["setup_s"] for r in rounds]
    for n in range(len(rounds), setup_samples):
        setups.append(one(n, setup_only=True)["setup_s"])

    problems = output_problems(rounds)
    if service:
        problems += reference_check(plan, rounds[-1]["answers"], work)
    q = quality(rounds[0]["outcomes"])
    failures = sorted({(r[0], r[1], (r[5] or "no schedule found")
                        .splitlines()[0])
                       for r in rounds[0]["outcomes"] if r[4]})
    plain = [r for r, t in zip(rounds, traced_flags) if not t]
    rates = [r["n_jobs"] / r["wall_s"] for r in plain]
    latencies = [sorted(r["latencies"]) for r in plain]
    report = {
        "provenance": {
            "workload": workload, "seed": seed, "scale": scale,
            "git_sha": git_sha(), "src_sha256": src_digest(),
            "kernels": rounds[0]["kernels"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "rounds": len(rounds),
            "traced_rounds": sum(traced_flags),
            "jobs_per_round": q["attempted"],
            "latency_samples_per_round": len(latencies[0]),
            "setup_samples": len(setups),
            "round_jobs_per_s": rates,
            "round_setup_s": setups,
            "outcome_digest": q["digest"],
        },
        "failures": failures,
        "problems": problems,
    }
    if trace:
        import tracer
        traced = [r for r, t in zip(rounds, traced_flags) if t]
        traced_rate = statistics.median(r["n_jobs"] / r["wall_s"]
                                        for r in traced)
        overhead = statistics.median(rates) / traced_rate - 1.0
        values = tracer.layer_metrics(traced[0]["dumps"],
                                      traced[0].get("service"), overhead)
        units = {k: u for k, (u, _b) in tracer.LAYER_METRICS.items()}
        report["tracing"] = {
            "untraced_jobs_per_s": statistics.median(rates),
            "traced_jobs_per_s": traced_rate,
            "overhead_ratio": overhead}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": statistics.median(rates),
            "latency_p50_ms": 1e3 * statistics.median(
                statistics.median(lat) for lat in latencies),
            "latency_p99_ms": 1e3 * statistics.median(
                nearest_rank(lat, 0.99) for lat in latencies),
            "proved_frac": q["proved_frac"],
            "ii_over_mii": q["ii_over_mii"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in plain),
        }
        units = END_TO_END
    result = {"correct": not problems, "attempted": q["attempted"],
              "failed": q["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    return {"result": result, "report": report}


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    report = out["report"]
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    if "tracing" in report:
        print("tracing " + json.dumps(report["tracing"], sort_keys=True))
    for loop, machine, reason in report["failures"]:
        print(f"failed job: {loop} on {machine}: {reason}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
