"""Asyncio HTTP/1.1 front door for the sweep service.

A deliberately minimal server on ``asyncio.start_server`` -- stdlib
only, no frameworks -- speaking just enough HTTP/1.1 (request line,
headers, ``Content-Length`` bodies, keep-alive) for the four routes:

* ``POST /jobs``        -- compile job specs (see :mod:`.jobspec`);
  responds with the JSON results once every job in the request settles
* ``GET /jobs/<key>``   -- poll one fingerprint: 200 done / 202 pending
  / 404 unknown (the done record carries the per-stage trace summary on
  ``extras["trace"]`` when tracing is enabled)
* ``GET /healthz``      -- liveness probe: version, uptime, worker count
* ``GET /metrics``      -- Prometheus text exposition (HELP/TYPE lines,
  ``_total`` counters, per-stage latency histograms) over service +
  cache + pool + arena + tracing counters
* ``GET /metrics.json`` -- the same snapshot, JSON-shaped

:func:`serve` is the blocking daemon entry point (the CLI's ``serve``
subcommand): it installs SIGTERM/SIGINT handlers that stop accepting,
drain in-flight jobs, flush the cache shards and retire the worker pools
before exiting.  :class:`ServerHandle`/:func:`start_in_thread` run the
same server on a background thread for tests, benchmarks and the CI
smoke job.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import math
import signal
import sys
import threading
from typing import Optional, TextIO

from repro import faults as _faults

from .engine import DeadlineExceeded, ServiceOverloaded, SweepService
from .jobspec import JobSpecError, parse_jobs

logger = logging.getLogger("repro.service.daemon")

#: request body cap -- a sweep of thousands of specs fits comfortably;
#: anything bigger is a client bug, not a workload
MAX_BODY_BYTES = 16 * 1024 * 1024

#: after an error reply to a request it did not read to the end, the
#: server reads and drops at most this many bytes for at most this long
#: before it closes: closing on unread input makes the kernel reset the
#: connection, which can destroy the reply before the client reads it
DISCARD_BYTES = 1 << 20
DISCARD_S = 1.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


def _response(status: int, payload: object, *, keep_alive: bool = True,
              headers: Optional[dict] = None) -> bytes:
    """Serialise one response; a ``str`` payload goes out as Prometheus
    text exposition, ``bytes`` as an already encoded JSON body, anything
    else as JSON."""
    if isinstance(payload, bytes):
        body = payload
        content_type = "application/json"
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        content_type = "application/json"
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (headers or {}).items())
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n").encode("ascii")
    return head + body


class _RequestError(Exception):
    """A request the server will not read to the end: answered with
    ``status`` and the connection closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader
                        ) -> "Optional[tuple[str, str, dict, bytes]]":
    """``(method, path, headers, body)`` or None on a closed socket.

    The head (request line and headers) is read in one call; a client
    that closes its side right after a head missing the blank line
    still gets an answer.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        head = exc.partial
        if not head.strip():
            return None
    except asyncio.LimitOverrunError:   # a head over the buffer limit
        raise _RequestError(400, "request head too long")
    request_line, *lines = head.rstrip(b"\r\n").split(b"\r\n")
    try:
        method, target, _version = request_line.decode("ascii").split()
    except ValueError:
        raise _RequestError(400, "malformed request line")
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise _RequestError(400, f"bad Content-Length {raw[:40]!r}")
    # int() refuses very long digit strings: past 64 digits, call it over
    length = int(raw) if len(raw) <= 64 else MAX_BODY_BYTES + 1
    if length > MAX_BODY_BYTES:
        raise _RequestError(413, f"request body over the "
                                 f"{MAX_BODY_BYTES}-byte cap")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def _discard_input(reader: asyncio.StreamReader) -> None:
    """Read and drop the client's input until EOF or ``DISCARD_BYTES``."""
    left = DISCARD_BYTES
    while left > 0:
        chunk = await reader.read(min(left, 65536))
        if not chunk:
            return
        left -= len(chunk)


class _Http:
    """Connection handler bound to one :class:`SweepService`."""

    def __init__(self, service: SweepService) -> None:
        self.service = service
        #: live connection-handler tasks, cancelled at shutdown so idle
        #: keep-alive clients cannot pin the drained loop open
        self.connections: "set[asyncio.Task]" = set()
        #: the subset mid-request (read done, response not yet flushed);
        #: shutdown waits these out instead of cancelling them
        self.busy: "set[asyncio.Task]" = set()

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self.connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _RequestError as exc:
                    writer.write(_response(exc.status,
                                           {"error": str(exc)},
                                           keep_alive=False))
                    await writer.drain()
                    writer.write_eof()
                    try:
                        await asyncio.wait_for(_discard_input(reader),
                                               DISCARD_S)
                    except asyncio.TimeoutError:
                        pass
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                method, target, headers, body = request
                self.busy.add(task)
                try:
                    status, payload, extra = await self._route(
                        method, target, body)
                    keep = headers.get("connection", "").lower() != "close"
                    writer.write(_response(status, payload,
                                           keep_alive=keep,
                                           headers=extra))
                    await writer.drain()
                finally:
                    self.busy.discard(task)
                # a request may complete without suspending (all cache
                # hits); yield so a pipelining client cannot starve the
                # other connections
                await asyncio.sleep(0)
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _route(self, method: str, target: str, body: bytes
                     ) -> "tuple[int, dict | str | bytes, Optional[dict]]":
        """``(status, payload, extra_headers)`` for one request."""
        service = self.service
        if target == "/healthz" and method == "GET":
            import repro
            from repro.kernels import active_name
            return 200, {"status": "ok",
                         "version": repro.__version__,
                         "uptime_s": service.metrics()["uptime_s"],
                         "n_workers": service.n_workers,
                         "kernels": active_name(),
                         "breaker": service.breaker_state()}, None
        if target == "/metrics" and method == "GET":
            from repro.obs.report import prometheus_text
            return 200, prometheus_text(service.metrics()), None
        if target == "/metrics.json" and method == "GET":
            return 200, service.metrics(), None
        if target == "/jobs" and method == "POST":
            try:
                jobs = parse_jobs(body)
            except JobSpecError as exc:
                return 400, {"error": str(exc)}, None
            try:
                # request-handling injection seam, keyed by the body
                # digest so a replay storms the same requests
                if _faults.faults_enabled():
                    _faults.fault_point(
                        "daemon.request", hashlib.sha256(body).hexdigest())
                results = await service.submit(jobs)
            except ServiceOverloaded as exc:
                retry_after = max(1, math.ceil(exc.retry_after_s))
                return 503, {"error": str(exc),
                             "retry_after_s": exc.retry_after_s}, \
                    {"Retry-After": str(retry_after)}
            except DeadlineExceeded as exc:
                # the jobs keep compiling: hand back the keys so the
                # client polls GET /jobs/<key> instead of resubmitting
                return 504, {"error": str(exc), "status": "pending",
                             "keys": exc.keys}, None
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                return 500, {"error": f"{type(exc).__name__}: "
                                      f"{exc}"}, None
            # byte-identical to json.dumps({"results": [result_to_wire(r)
            # ...]}, sort_keys=True) + "\n", from per-record bytes
            parts = [service.wire_bytes(r) for r in results]
            return 200, b'{"results": [' + b", ".join(parts) + b"]}\n", \
                None
        if target.startswith("/jobs/") and method == "GET":
            key = target[len("/jobs/"):]
            state, record = service.status(key)
            status = {"done": 200, "pending": 202}.get(state, 404)
            return status, {"key": key, "status": state,
                            "result": record}, None
        if target in ("/jobs", "/healthz", "/metrics",
                      "/metrics.json") or \
                target.startswith("/jobs/"):
            return 405, {"error": f"{method} not allowed on "
                                  f"{target}"}, None
        return 404, {"error": f"no route {target}"}, None


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

async def _serve(service: SweepService, host: str, port: int, *,
                 stop: asyncio.Event,
                 ready: "Optional[threading.Event]" = None,
                 bound: Optional[list] = None,
                 install_signals: bool = True,
                 log: TextIO = sys.stderr,
                 stage: Optional[dict] = None) -> None:
    # *stage* is a shared progress marker for the shutdown sequence:
    # ServerHandle.stop reads it to name where a stuck drain is wedged
    if stage is None:
        stage = {}
    stage["shutdown"] = "serving"
    await service.start()
    http = _Http(service)
    server = await asyncio.start_server(http.handle, host, port)
    actual_port = server.sockets[0].getsockname()[1]
    if bound is not None:
        bound.append(actual_port)
    if install_signals:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass  # non-main thread / non-POSIX: rely on stop()
    print(f"repro-vliw service listening on http://{host}:{actual_port} "
          f"(workers={service.n_workers})", file=log, flush=True)
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        # stop accepting first, then drain what was already admitted
        stage["shutdown"] = "closing listener"
        server.close()
        await server.wait_closed()
        stage["shutdown"] = "draining service"
        await service.stop(drain=True)
        # let mid-request handlers flush their responses, then drop the
        # idle keep-alive connections that would otherwise pin the loop
        stage["shutdown"] = "flushing busy handlers"
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while http.busy and loop.time() < deadline:
            await asyncio.sleep(0.02)
        stage["shutdown"] = "cancelling idle connections"
        for task in list(http.connections):
            task.cancel()
        if http.connections:
            await asyncio.gather(*http.connections,
                                 return_exceptions=True)
        if service.cache is not None and hasattr(service.cache, "gc") \
                and getattr(service.cache, "max_bytes", None) is not None:
            # final flush: compact shards down to budget before exit
            stage["shutdown"] = "compacting cache shards"
            service.cache.gc()
        stage["shutdown"] = "stopped"
        print("repro-vliw service drained and stopped", file=log,
              flush=True)


def serve(service: SweepService, host: str = "127.0.0.1",
          port: int = 8123) -> None:
    """Run the daemon until SIGTERM/SIGINT (the CLI ``serve`` command)."""
    async def main() -> None:
        await _serve(service, host, port, stop=asyncio.Event())

    asyncio.run(main())


class ServerHandle:
    """A daemon running on a background thread (tests/benchmarks/CI)."""

    def __init__(self, service: SweepService, host: str,
                 thread: threading.Thread, port: int,
                 loop: asyncio.AbstractEventLoop,
                 stop_event: asyncio.Event,
                 stage: Optional[dict] = None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._thread = thread
        self._loop = loop
        self._stop_event = stop_event
        self._stage = stage if stage is not None else {}

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def stop(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: drain, flush, retire; join the thread.

        Returns True when the daemon thread actually stopped.  A join
        that times out is *not* silent success: the stuck shutdown
        stage (drain, handler flush, shard compaction...) is logged so
        a wedged daemon in a test run or CI job names its suspect.
        """
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout)
            if self._thread.is_alive():
                logger.warning(
                    "sweep-service thread still alive %.1fs after stop "
                    "(stuck at stage: %s); abandoning the join -- the "
                    "daemon thread may still hold its port", timeout,
                    self._stage.get("shutdown", "serving"))
                return False
        return True


def start_in_thread(service: SweepService, host: str = "127.0.0.1",
                    port: int = 0, log: TextIO = sys.stderr
                    ) -> ServerHandle:
    """Start the daemon on a fresh thread; returns once it is accepting.

    ``port=0`` binds an ephemeral port (read it off the handle).  The
    server thread owns its own event loop; ``handle.stop()`` performs
    the same graceful drain as SIGTERM on the blocking daemon.
    """
    ready = threading.Event()
    holder: dict = {}
    bound: list = []
    stage: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop = asyncio.Event()
        holder["loop"] = loop
        holder["stop"] = stop
        try:
            loop.run_until_complete(_serve(
                service, host, port, stop=stop, ready=ready, bound=bound,
                install_signals=False, log=log, stage=stage))
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-sweep-service",
                              daemon=True)
    thread.start()
    if not ready.wait(timeout=30.0):  # pragma: no cover - startup hang
        raise RuntimeError("sweep service failed to start within 30s")
    return ServerHandle(service, host, thread, bound[0],
                        holder["loop"], holder["stop"], stage)
