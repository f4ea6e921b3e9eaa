"""The ``serve`` command as a real process with a worker pool.

In-process daemons (``start_in_thread``) install no signal handlers, so
only a daemon started from the CLI shows what its forked workers do
with the signal set-up they inherit.  A batch that brings a new loop
re-forks the pool, and ``Pool.terminate`` sends SIGTERM to each old
worker that has not yet exited; the daemon must keep serving through
that, and still drain on a SIGTERM of its own, or on the Ctrl-C a
terminal sends to its whole process group, workers included.  Whether
a worker is still alive when ``terminate`` reaches it is a race, so
the test also reads each worker's caught-signal mask: a worker that
runs a SIGTERM handler is one the daemon's wakeup fd can hear.
"""

import http.client
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.runner import pool

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

needs_proc = pytest.mark.skipif(not pathlib.Path("/proc/self/task").is_dir(),
                                reason="needs POSIX signals and /proc")


def _children(pid: int) -> set:
    """The pids of *pid*'s child processes, from every thread."""
    found = set()
    for children in pathlib.Path(f"/proc/{pid}/task").glob("*/children"):
        found.update(int(child) for child in children.read_text().split())
    return found


def _catches(pid: int, signum: int) -> bool:
    """Whether process *pid* runs a handler for *signum*."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("SigCgt:"):
            return bool(int(line.split()[1], 16) >> (signum - 1) & 1)
    raise AssertionError(f"no SigCgt line for {pid}")


def _port(log: pathlib.Path, proc: subprocess.Popen) -> int:
    marker = "listening on http://127.0.0.1:"
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        assert proc.poll() is None, log.read_text()
        text = log.read_text()
        if marker in text:
            return int(text.split(marker, 1)[1].split()[0])
        time.sleep(0.02)
    raise AssertionError(f"daemon did not listen: {log.read_text()}")


def _request(port: int, method: str, path: str, body=None) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path,
                     None if body is None else json.dumps(body),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _batch(kernel: str) -> dict:
    return {"jobs": [{"loop": {"kernel": kernel},
                      "machine": {"kind": "qrf", "n_fus": n}}
                     for n in (4, 8)]}


def test_a_worker_drops_the_signal_set_up_it_inherits(monkeypatch):
    monkeypatch.setattr(pool, "_WORKER_DDGS", ())
    monkeypatch.setattr(pool, "_WORKER_MACHINES", ())
    reader, writer = socket.socketpair()
    writer.setblocking(False)
    saved = {sig: signal.signal(sig, lambda *_: None)
             for sig in (signal.SIGTERM, signal.SIGINT)}
    saved_fd = signal.set_wakeup_fd(writer.fileno())
    try:
        pool._init_worker((), ())
        assert signal.set_wakeup_fd(-1) == -1
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        signal.set_wakeup_fd(saved_fd)
        for sig, handler in saved.items():
            signal.signal(sig, handler)
        reader.close()
        writer.close()


def _sigterm_the_daemon(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)


def _ctrl_c_the_group(proc: subprocess.Popen) -> None:
    # a terminal's Ctrl-C reaches the daemon and its workers alike
    os.killpg(proc.pid, signal.SIGINT)


@needs_proc
@pytest.mark.parametrize("stop", [_sigterm_the_daemon, _ctrl_c_the_group])
def test_a_two_worker_daemon_survives_a_pool_refork(tmp_path, stop):
    log = tmp_path / "serve.log"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_FAULTS", None)
    with open(log, "w") as err:
        # a session of its own, so the group's Ctrl-C reaches no one else
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--cache-dir",
             str(tmp_path / "cache"), "--jobs", "2", "serve", "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=err, env=env,
            start_new_session=True)
    workers: set = set()
    try:
        port = _port(log, proc)
        assert _request(port, "POST", "/jobs", _batch("daxpy")) == 200
        workers = _children(proc.pid)
        assert len(workers) == 2
        # the SIGTERM of Pool.terminate ends a worker and nothing else
        assert not any(_catches(w, signal.SIGTERM) for w in workers)
        # the next batch brings a new loop: the pool is re-forked
        assert _request(port, "POST", "/jobs", _batch("dot")) == 200
        time.sleep(0.5)
        assert proc.poll() is None, log.read_text()
        assert "drained and stopped" not in log.read_text()
        assert _request(port, "GET", "/healthz") == 200
        assert _request(port, "POST", "/jobs", _batch("dot")) == 200
        stop(proc)
        assert proc.wait(timeout=60) == 0
    finally:
        # a failed run must leave no daemon or worker behind
        for pid in workers | _children(proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    text = log.read_text()
    assert "drained and stopped" in text
    # the workers finished the drain: none was interrupted mid-wait
    assert "Traceback" not in text, text
