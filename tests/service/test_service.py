"""Sweep service: engine dedup/batching and the HTTP daemon end to end."""

import asyncio
import dataclasses
import json
import http.client
import socket
import threading

import pytest

from repro.cli import main
from repro.runner import ShardedResultCache, compile_loop
from repro.runner.job import CompileJob
from repro.machine.presets import qrf_machine
from repro.service import SweepService, parse_job, start_in_thread
from repro.service import daemon as daemon_mod
from repro.service import engine as engine_mod
from repro.service.engine import result_to_wire
from repro.workloads.kernels import kernel


def _spec(name="daxpy", n_fus=4):
    return {"loop": {"kernel": name},
            "machine": {"kind": "qrf", "n_fus": n_fus}}


# ---------------------------------------------------------------------------
# engine level
# ---------------------------------------------------------------------------

def test_submit_compiles_then_serves_from_cache(tmp_path):
    cache = ShardedResultCache(tmp_path / "cache")
    service = SweepService(cache, n_workers=1)

    async def scenario():
        await service.start()
        jobs = [parse_job(_spec("daxpy")), parse_job(_spec("dot"))]
        first = await service.submit(jobs)
        second = await service.submit(jobs)
        await service.stop()
        return first, second

    first, second = asyncio.run(scenario())
    assert [r.outcome.loop for r in first] == ["daxpy", "dot"]
    assert not any(r.cached for r in first)
    assert all(r.cached for r in second)
    assert service.c_compiled == 2
    assert service.metrics()["service"]["served_from_cache"] == 2
    # results persisted: a fresh cache instance can replay them
    replay = ShardedResultCache(tmp_path / "cache")
    assert replay.peek(first[0].key) is not None


def test_concurrent_identical_submissions_compile_once(tmp_path):
    """The acceptance invariant: N identical concurrent requests, one
    compile, N answers, all byte-identical to the direct library call."""
    cache = ShardedResultCache(tmp_path / "cache")
    service = SweepService(cache, n_workers=1)
    job_spec = _spec("fir4")

    async def scenario():
        await service.start()
        a, b = await asyncio.gather(
            service.submit([parse_job(job_spec)]),
            service.submit([parse_job(job_spec)]))
        await service.stop()
        return a[0], b[0]

    a, b = asyncio.run(scenario())
    assert service.c_dedup_inflight == 1
    assert service.c_compiled == 1
    assert a == b
    direct = compile_loop(kernel("fir4"), qrf_machine(4))
    assert dataclasses.asdict(a.outcome) == \
        dataclasses.asdict(direct.outcome)


def test_micro_batching_coalesces_queued_jobs(tmp_path):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)

    async def scenario():
        await service.start()
        submissions = [service.submit([parse_job(_spec(name))])
                       for name in ("daxpy", "dot", "vadd", "scale")]
        await asyncio.gather(*submissions)
        await service.stop()

    asyncio.run(scenario())
    # four independent submissions, far fewer dispatcher batches
    assert service.c_batches < 4
    assert service.c_batch_jobs == 4


def test_misses_queued_behind_a_running_batch_ride_the_next_one(
        tmp_path, monkeypatch):
    """Group commit: while batch 1 compiles, three more misses queue up;
    the dispatcher then takes all three as one batch."""
    release = threading.Event()
    batches = []
    real_run_jobs = engine_mod.run_jobs

    def held(jobs, config=None):
        batches.append([job.ddg.name for job in jobs])
        if len(batches) == 1:
            release.wait(60)
        return real_run_jobs(jobs, config)

    monkeypatch.setattr(engine_mod, "run_jobs", held)
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)

    async def scenario():
        await service.start()
        first = asyncio.ensure_future(
            service.submit([parse_job(_spec("daxpy"))]))
        while not batches:             # batch 1 is inside run_jobs
            await asyncio.sleep(0)
        rest = [asyncio.ensure_future(service.submit([parse_job(_spec(n))]))
                for n in ("dot", "vadd", "scale")]
        while service._queue.qsize() < 3:
            await asyncio.sleep(0)
        release.set()
        await asyncio.gather(first, *rest)
        await service.stop()

    asyncio.run(scenario())
    assert service.c_batches == 2
    assert batches == [["daxpy"], ["dot", "vadd", "scale"]]
    assert service.c_batch_jobs == 4


def test_lone_miss_is_dispatched_without_a_timer(tmp_path, monkeypatch):
    """No linger: an idle service dispatches a single miss at once.  Every
    timer the loop arms (``wait_for``, ``sleep``, ``call_later``) while
    the request is served is recorded, and there must be none."""
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)
    timers = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            timers.append(name)
            return fn(*args, **kwargs)
        return wrapper

    async def scenario():
        await service.start()
        loop = asyncio.get_running_loop()
        with monkeypatch.context() as m:
            for target, name in ((loop, "call_at"), (loop, "call_later"),
                                 (asyncio, "wait_for"), (asyncio, "sleep")):
                m.setattr(target, name,
                          recorded(name, getattr(target, name)))
            [result] = await service.submit([parse_job(_spec("iir1"))])
        await service.stop()
        return result

    result = asyncio.run(scenario())
    assert timers == []
    assert result.outcome.loop == "iir1" and not result.cached
    assert service.c_batches == 1


def test_batch_window_is_gone(tmp_path, capsys):
    with pytest.raises(TypeError):
        SweepService(None, batch_window_s=0.005)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--batch-window", "0.01"])
    assert exc.value.code == 2
    assert "--batch-window" in capsys.readouterr().err


def test_each_service_job_is_looked_up_once(tmp_path):
    """Cache counters agree with the service's: a compiled job is one
    cache miss (the front door's), a cache answer one hit."""
    cache = ShardedResultCache(tmp_path / "cache")
    service = SweepService(cache, n_workers=1)

    async def scenario():
        await service.start()
        await service.submit([parse_job(_spec(n))
                              for n in ("daxpy", "dot", "fir4")])
        await asyncio.gather(
            service.submit([parse_job(_spec("daxpy")),
                            parse_job(_spec("vadd"))]),
            service.submit([parse_job(_spec("vadd"))]),
            service.submit([parse_job(_spec("dot"))]))
        await service.stop()

    asyncio.run(scenario())
    assert service.c_compiled == 4
    assert service.c_cache_hits == 2
    assert service.c_dedup_inflight == 1
    assert cache.misses == service.c_compiled
    assert cache.hits == service.c_cache_hits


def test_stop_drains_inflight_work(tmp_path):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)

    async def scenario():
        await service.start()
        pending = asyncio.ensure_future(
            service.submit([parse_job(_spec("stencil3"))]))
        await asyncio.sleep(0)          # let it enqueue
        await service.stop(drain=True)
        return await pending

    [result] = asyncio.run(scenario())
    assert result.outcome.loop == "stencil3"
    assert not result.outcome.failed


# ---------------------------------------------------------------------------
# hit path: no future per hit, pre-encoded wire records
# ---------------------------------------------------------------------------

def test_all_hit_submit_makes_no_future_and_no_gather(tmp_path,
                                                      monkeypatch):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)
    calls = {"create_future": 0, "gather": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    async def scenario():
        await service.start()
        jobs = [parse_job(_spec(n)) for n in ("daxpy", "dot")]
        await service.submit(jobs)                 # compile both
        loop = asyncio.get_running_loop()
        with monkeypatch.context() as m:
            m.setattr(loop, "create_future",
                      counted("create_future", loop.create_future))
            m.setattr(engine_mod.asyncio, "gather",
                      counted("gather", engine_mod.asyncio.gather))
            results = await service.submit(jobs + jobs[:1])
        await service.stop()
        return results

    results = asyncio.run(scenario())
    assert calls == {"create_future": 0, "gather": 0}
    assert [r.outcome.loop for r in results] == ["daxpy", "dot", "daxpy"]
    assert all(r.cached for r in results)
    assert service.c_cache_hits == 3


def test_deadline_on_an_all_hit_request_still_returns(tmp_path):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)

    async def scenario():
        await service.start()
        jobs = [parse_job(_spec("vadd"))]
        await service.submit(jobs)
        results = await service.submit(jobs, deadline_s=0.0)
        await service.stop()
        return results

    [result] = asyncio.run(scenario())
    assert result.cached and result.outcome.loop == "vadd"
    assert service.c_deadline_exceeded == 0


def test_wire_memo_never_serves_stale_bytes(tmp_path):
    """A shard compaction can replace a key's record with another
    writer's (new ``wall_s``) with no miss and no store in this
    process; the next hit must carry the new record."""
    cache = ShardedResultCache(tmp_path / "cache")
    service = SweepService(cache, n_workers=1)
    job = parse_job(_spec("fir4"))

    async def hit():
        [result] = await service.submit([job])
        assert result.cached
        return service.wire_bytes(result)

    async def scenario():
        await service.start()
        await service.submit([job])                # compile
        first = await hit()
        second = await hit()
        assert second is first                     # served from the memo
        other = ShardedResultCache(tmp_path / "cache")
        stored = other.peek(job.key)
        other.put(dataclasses.replace(stored, wall_s=stored.wall_s + 1.5))
        misses, stores = cache.misses, cache.stores
        cache.gc()                                 # re-reads the shard
        assert (cache.misses, cache.stores) == (misses, stores)
        third = await hit()
        await service.stop()
        return stored, first, third

    stored, first, third = asyncio.run(scenario())
    assert json.loads(first)["wall_s"] == round(stored.wall_s, 6)
    assert json.loads(third)["wall_s"] == round(stored.wall_s + 1.5, 6)


def test_wire_memo_belongs_to_its_service(tmp_path):
    """Two services on different cache dirs hold the same key with
    different ``wall_s``; each answers with its own record, from its
    own memo."""
    job = parse_job(_spec("iir1"))
    caches = [ShardedResultCache(tmp_path / name) for name in "ab"]
    services = [SweepService(cache, n_workers=1) for cache in caches]

    async def scenario():
        for service in services:
            await service.start()
        [fresh] = await services[0].submit([job])
        for cache, wall_s in zip(caches, (1.25, 2.5)):
            cache.put(dataclasses.replace(fresh, wall_s=wall_s))
        answers = []
        for _ in range(2):
            for service in services:
                [result] = await service.submit([job])
                answers.append(service.wire_bytes(result))
        for service in services:
            await service.stop()
        return answers

    a1, b1, a2, b2 = asyncio.run(scenario())
    assert json.loads(a1)["wall_s"] == 1.25
    assert json.loads(b1)["wall_s"] == 2.5
    assert a2 is a1 and b2 is b1
    assert services[1].c_compiled == 0


def test_pipelined_requests_yield_to_the_loop(tmp_path):
    """Two buffered all-hit requests on one connection complete without
    the connection ever waiting; a callback queued before them must
    still run before the second response is written."""
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)
    events = []

    class Writer:
        def write(self, data):
            events.append(data.split(b"\r\n", 1)[0])

        async def drain(self):
            pass

        def close(self):
            pass

        async def wait_closed(self):
            pass

    async def scenario():
        await service.start()
        await service.submit([parse_job(_spec("daxpy"))])
        body = json.dumps(_spec("daxpy")).encode()
        request = (b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                   % len(body)) + body
        reader = asyncio.StreamReader()
        reader.feed_data(request * 2)
        reader.feed_eof()
        asyncio.get_running_loop().call_soon(events.append, "marker")
        await daemon_mod._Http(service).handle(reader, Writer())
        await service.stop()

    asyncio.run(scenario())
    responses = [i for i, event in enumerate(events)
                 if event == b"HTTP/1.1 200 OK"]
    assert len(responses) == 2 and service.c_cache_hits == 2
    assert events.index("marker") < responses[1]


# ---------------------------------------------------------------------------
# HTTP daemon
# ---------------------------------------------------------------------------

@pytest.fixture
def server(tmp_path):
    cache = ShardedResultCache(tmp_path / "svc-cache")
    handle = start_in_thread(SweepService(cache, n_workers=1))
    yield handle
    handle.stop()


def _request(handle, method, path, body=None):
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=120)
    try:
        conn.request(method, path,
                     json.dumps(body) if body is not None else None,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _request_text(handle, method, path):
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=120)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return (response.status, response.getheader("Content-Type"),
                response.read().decode("utf-8"))
    finally:
        conn.close()


def test_http_end_to_end(server):
    import repro

    status, health = _request(server, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"
    assert health["version"] == repro.__version__
    assert health["n_workers"] == 1
    assert health["uptime_s"] >= 0.0

    status, out = _request(server, "POST", "/jobs", _spec("daxpy"))
    assert status == 200
    [result] = out["results"]
    assert not result["cached"]
    direct = compile_loop(kernel("daxpy"), qrf_machine(4))
    assert result["outcome"] == dataclasses.asdict(direct.outcome)

    # duplicate submission: served from the cache, byte-identical
    status, again = _request(server, "POST", "/jobs", _spec("daxpy"))
    assert again["results"][0]["cached"]
    assert again["results"][0]["outcome"] == result["outcome"]

    # poll the fingerprint
    status, poll = _request(server, "GET", f"/jobs/{result['key']}")
    assert status == 200 and poll["status"] == "done"
    assert poll["result"]["outcome"] == result["outcome"]
    status, poll = _request(server, "GET", "/jobs/" + "0" * 64)
    assert status == 404 and poll["status"] == "unknown"

    status, metrics = _request(server, "GET", "/metrics.json")
    assert status == 200
    assert metrics["service"]["served_from_cache"] == 1
    assert metrics["cache"]["backend"] == "sharded"
    assert metrics["cache"]["hits"] >= 1

    # /metrics itself speaks Prometheus text exposition
    status, content_type, text = _request_text(server, "GET", "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    assert "# TYPE repro_service_jobs_total counter" in text
    assert "repro_service_served_from_cache_total 1" in text
    assert 'repro_cache_info{backend="sharded"} 1' in text


def test_http_concurrent_identical_posts_dedup(server):
    spec = {"jobs": [_spec("tridiag")]}
    clients = 6
    results = [None] * clients

    def post(i):
        results[i] = _request(server, "POST", "/jobs", spec)

    threads = [threading.Thread(target=post, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads)

    assert [status for status, _ in results] == [200] * clients
    outcomes = [out["results"][0]["outcome"] for _, out in results]
    assert all(o == outcomes[0] for o in outcomes)
    _, metrics = _request(server, "GET", "/metrics.json")
    service = metrics["service"]
    # every client but one either coalesced in-flight or replayed the
    # cache -- never a second compile
    assert service["compiled"] == 1
    assert service["dedup_inflight"] + service["served_from_cache"] \
        == clients - 1


def test_http_error_paths(server):
    status, out = _request(server, "POST", "/jobs",
                           {"loop": {"kernel": "nope"}})
    assert status == 400 and "unknown kernel" in out["error"]
    status, _ = _request(server, "GET", "/nothing-here")
    assert status == 404
    status, _ = _request(server, "DELETE", "/jobs")
    assert status == 405
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/jobs", "{not json",
                     {"Content-Type": "application/json"})
        assert conn.getresponse().status == 400
    finally:
        conn.close()


def _raw_exchange(handle, request: bytes) -> bytes:
    """Send *request* bytes as they are; everything the server answers
    before it closes the connection."""
    chunks = []
    with socket.create_connection((handle.host, handle.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


@pytest.mark.parametrize("length,status", [
    (b"abc", 400),
    (b"-5", 400),
    (b"1e3", 400),
    (b"+5", 400),
    (b"5_0", 400),
    (b"\xb2", 400),                     # a latin-1 digit, not ASCII
    (str(daemon_mod.MAX_BODY_BYTES + 1).encode(), 413),
    (b"9" * 5000, 413),                 # past int()'s digit limit
], ids=["letters", "negative", "exponent", "plus", "underscore",
        "latin1-digit", "cap+1", "5000-digits"])
def test_http_bad_content_length_is_answered(server, length, status):
    """A Content-Length the server cannot honour gets a status and a
    closed connection -- not a dead handler and an empty reply -- and
    the daemon keeps serving."""
    reply = _raw_exchange(server, b"POST /jobs HTTP/1.1\r\n"
                                  b"Host: test\r\n"
                                  b"Content-Length: " + length +
                                  b"\r\n\r\n")
    assert _status_of(reply) == status
    assert b"Connection: close" in reply
    assert "error" in json.loads(reply.split(b"\r\n\r\n", 1)[1])
    status, health = _request(server, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"


def test_http_zero_padded_content_length_reads_the_body(server):
    body = json.dumps(_spec("dot")).encode()
    reply = _raw_exchange(server, b"POST /jobs HTTP/1.1\r\n"
                                  b"Connection: close\r\n"
                                  b"Content-Length: 000" +
                                  str(len(body)).encode() +
                                  b"\r\n\r\n" + body)
    assert _status_of(reply) == 200


@pytest.mark.parametrize("head", [
    b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 200 + b"\r\n\r\n",
    b"GET /" + b"a" * 200 + b" HTTP/1.1\r\n\r\n",
], ids=["header", "request-line"])
def test_overlong_request_line_or_header_is_a_400(head):
    """A line past the stream's buffer limit is a request error (400),
    not an exception that kills the connection handler."""
    async def read():
        reader = asyncio.StreamReader(limit=64)
        reader.feed_data(head)
        reader.feed_eof()
        with pytest.raises(daemon_mod._RequestError) as exc:
            await daemon_mod._read_request(reader)
        return exc.value.status

    assert asyncio.run(read()) == 400


def _exchange_unread(handle, request: bytes) -> bytes:
    """Like :func:`_raw_exchange`, but *request* carries bytes the server
    answers before reading; the reply must still arrive whole."""
    with socket.create_connection((handle.host, handle.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        return b"".join(iter(lambda: sock.recv(65536), b""))


def test_http_overlong_header_reply_survives_unread_bytes(server):
    """A 128 KiB header line overruns the stream's buffer; the 400 goes
    out before the server has read the line, and closing on the unread
    rest must not reset the connection under the reply."""
    reply = _exchange_unread(server, b"GET /healthz HTTP/1.1\r\n"
                                     b"X-Pad: " + b"a" * (128 << 10) +
                                     b"\r\n\r\n")
    assert _status_of(reply) == 400
    assert b"too long" in reply
    status, health = _request(server, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"


def test_http_oversized_body_reply_survives_unread_body(server):
    """A Content-Length over the cap gets its 413 even though the body
    bytes that follow it are never read."""
    reply = _exchange_unread(
        server, b"POST /jobs HTTP/1.1\r\nContent-Length: " +
        str(daemon_mod.MAX_BODY_BYTES + 1).encode() +
        b"\r\n\r\n" + b"x" * (256 << 10))
    assert _status_of(reply) == 413
    assert b"Connection: close" in reply
    status, health = _request(server, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"


@pytest.mark.parametrize("synth,expect", [
    ({"index": 100_000_000}, "outside"),
    ({"n_loops": 1, "min_ops": 200_000, "max_ops": 200_000}, "max_ops"),
    ({"min_ops": 4.5, "max_ops": 4.5}, "must be an int"),
    ({"size_mu": 1000}, "bad synth config"),
])
def test_http_costly_synth_spec_is_a_fast_400(server, synth, expect):
    """Loop i of a synth corpus is reached by replaying loops 0..i-1 on
    the event loop, so a spec past the corpus or body-size caps -- or
    one the generator cannot follow -- must be refused before any
    replay, not after hours of it, and never drop the connection."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.request("POST", "/jobs", json.dumps(
            {"loop": {"synth": synth}}),
            {"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert expect in json.loads(response.read())["error"]
    finally:
        conn.close()
    status, health = _request(server, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"


def test_graceful_stop_flushes_cache(tmp_path):
    cache = ShardedResultCache(tmp_path / "flush-cache")
    handle = start_in_thread(SweepService(cache, n_workers=1))
    status, out = _request(handle, "POST", "/jobs", _spec("iir1"))
    assert status == 200
    handle.stop()
    # after the drain, a brand-new process-view of the cache has the job
    replay = ShardedResultCache(tmp_path / "flush-cache")
    assert replay.peek(out["results"][0]["key"]) is not None


def _post_raw(handle, body):
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=120)
    try:
        conn.request("POST", "/jobs", json.dumps(body),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_http_jobs_body_is_byte_identical_to_one_dumps(server):
    """Per-record bytes joined into the body equal one ``json.dumps`` of
    the whole response -- for a fresh compile, an in-flight dedup and a
    cache hit in one request, and for memo-served all-hit repeats."""
    service = server.service
    submitted = []
    real_submit = service.submit

    async def capture(jobs, deadline_s=None):
        results = await real_submit(jobs, deadline_s)
        submitted.append(results)
        return results

    service.submit = capture

    def expected(results):
        return (json.dumps({"results": [result_to_wire(r)
                                        for r in results]},
                           sort_keys=True) + "\n").encode()

    assert _post_raw(server, _spec("dot"))[0] == 200
    mixed = {"jobs": [_spec("daxpy"), _spec("daxpy"), _spec("dot")]}
    status, body = _post_raw(server, mixed)
    assert status == 200
    assert [r.cached for r in submitted[-1]] == [False, False, True]
    assert service.c_dedup_inflight == 1
    assert body == expected(submitted[-1])

    status, first_hit = _post_raw(server, mixed)
    assert status == 200 and all(r.cached for r in submitted[-1])
    assert first_hit == expected(submitted[-1])
    status, second_hit = _post_raw(server, mixed)
    assert status == 200 and second_hit == first_hit
