"""Service chaos: breaker, deadlines, load shedding -- engine and HTTP."""

import asyncio
import http.client
import json
import time

import pytest

from repro import faults
from repro.runner import ShardedResultCache
from repro.service import (DeadlineExceeded, ServiceOverloaded,
                           SweepService, parse_job, start_in_thread)
from repro.service import engine as engine_mod


def _spec(name="daxpy"):
    return {"loop": {"kernel": name},
            "machine": {"kind": "qrf", "n_fus": 4}}


def _request(handle, method, path, body=None):
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=120)
    try:
        conn.request(method, path,
                     json.dumps(body) if body is not None else None,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return (response.status, json.loads(response.read()),
                dict(response.getheaders()))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# engine level
# ---------------------------------------------------------------------------

def test_circuit_breaker_trips_half_opens_and_closes(tmp_path, monkeypatch):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1, breaker_threshold=2,
                           breaker_cooldown_s=60.0)
    real_run_jobs = engine_mod.run_jobs

    def broken(jobs, config=None):
        raise OSError("injected batch failure")

    async def scenario():
        await service.start()
        monkeypatch.setattr(engine_mod, "run_jobs", broken)
        # two consecutive batch failures trip the breaker open
        for name in ("daxpy", "dot"):
            with pytest.raises(OSError):
                await service.submit([parse_job(_spec(name))])
        assert service.breaker_state() == "open"
        assert service.c_breaker_trips == 1
        # open: fail fast at the front door, with a retry hint
        with pytest.raises(ServiceOverloaded) as shed:
            await service.submit([parse_job(_spec("vadd"))])
        assert shed.value.retry_after_s > 0
        assert service.c_breaker_rejected == 1
        # cooldown over: half-open admits one probe; a failing probe
        # re-trips immediately (no need for another full streak)
        service._breaker_open_until = time.monotonic() - 1.0
        assert service.breaker_state() == "half-open"
        with pytest.raises(OSError):
            await service.submit([parse_job(_spec("scale"))])
        assert service.breaker_state() == "open"
        assert service.c_breaker_trips == 2
        # a succeeding probe closes the breaker and resets the streak
        monkeypatch.setattr(engine_mod, "run_jobs", real_run_jobs)
        service._breaker_open_until = time.monotonic() - 1.0
        results = await service.submit([parse_job(_spec("fir4"))])
        assert service.breaker_state() == "closed"
        assert not results[0].outcome.failed
        await service.stop()

    asyncio.run(scenario())
    assert service.c_batch_failures == 3
    assert service.metrics()["service"]["breaker_trips"] == 2


def test_request_deadline_returns_keys_and_work_completes(tmp_path,
                                                          monkeypatch):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1, request_deadline_s=0.05)
    real_run_jobs = engine_mod.run_jobs

    def slow(jobs, config=None):
        time.sleep(0.3)
        return real_run_jobs(jobs, config)

    monkeypatch.setattr(engine_mod, "run_jobs", slow)
    job = parse_job(_spec("tridiag"))

    async def scenario():
        await service.start()
        with pytest.raises(DeadlineExceeded) as err:
            await service.submit([job])
        assert err.value.keys == [job.key]
        # the compile was not cancelled: drain and replay from cache
        await service.stop()
        return service.status(job.key)

    state, record = asyncio.run(scenario())
    assert service.c_deadline_exceeded == 1
    assert state == "done"
    assert record["outcome"]["loop"] == "tridiag"


def test_full_queue_sheds_load(tmp_path):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1, max_queue_depth=0)

    async def scenario():
        await service.start()
        with pytest.raises(ServiceOverloaded) as err:
            await service.submit([parse_job(_spec())])
        assert err.value.retry_after_s == 1.0
        await service.stop()

    asyncio.run(scenario())
    assert service.c_shed == 1
    assert service.metrics()["service"]["shed"] == 1


def test_stop_without_drain_cancels_queued_futures(tmp_path, monkeypatch):
    """Satellite: stop(drain=False) fails queued work fast while the
    in-flight batch still completes and answers its waiters."""
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1, batch_max=1)
    real_run_jobs = engine_mod.run_jobs

    def slow(jobs, config=None):
        time.sleep(0.3)
        return real_run_jobs(jobs, config)

    monkeypatch.setattr(engine_mod, "run_jobs", slow)
    job_a, job_b = parse_job(_spec("daxpy")), parse_job(_spec("dot"))

    async def scenario():
        await service.start()
        fut_a = asyncio.ensure_future(service.submit([job_a]))
        await asyncio.sleep(0.1)      # dispatcher is mid-batch on A
        fut_b = asyncio.ensure_future(service.submit([job_b]))
        await asyncio.sleep(0.05)     # B is queued behind the batch
        await service.stop(drain=False)
        results_a = await fut_a
        with pytest.raises(asyncio.CancelledError):
            await fut_b
        return results_a

    results_a = asyncio.run(scenario())
    assert results_a[0].outcome.loop == "daxpy"
    assert not results_a[0].outcome.failed
    assert job_b.key not in service._inflight


# ---------------------------------------------------------------------------
# HTTP level
# ---------------------------------------------------------------------------

def test_http_503_when_breaker_is_open(tmp_path):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1, breaker_cooldown_s=60.0)
    handle = start_in_thread(service)
    try:
        service._consec_batch_failures = 5
        service._breaker_open_until = time.monotonic() + 60.0
        status, out, headers = _request(handle, "POST", "/jobs", _spec())
        assert status == 503
        assert "circuit breaker open" in out["error"]
        assert out["retry_after_s"] > 0
        assert int(headers["Retry-After"]) >= 1
        status, health, _ = _request(handle, "GET", "/healthz")
        assert health["breaker"] == "open"
        status, _, _ = _request(handle, "GET", "/metrics.json")
        assert status == 200
    finally:
        service._breaker_open_until = None
        assert handle.stop()


def test_http_504_on_request_deadline(tmp_path, monkeypatch):
    real_run_jobs = engine_mod.run_jobs

    def slow(jobs, config=None):
        time.sleep(0.3)
        return real_run_jobs(jobs, config)

    monkeypatch.setattr(engine_mod, "run_jobs", slow)
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1, request_deadline_s=0.05)
    handle = start_in_thread(service)
    try:
        status, out, _ = _request(handle, "POST", "/jobs", _spec("iir1"))
        assert status == 504
        assert out["status"] == "pending"
        [key] = out["keys"]
        # the 504 told us where to poll; the work lands soon after
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, poll, _ = _request(handle, "GET", f"/jobs/{key}")
            if status == 200:
                break
            time.sleep(0.05)
        assert status == 200 and poll["status"] == "done"
        assert poll["result"]["outcome"]["loop"] == "iir1"
    finally:
        assert handle.stop()


def test_http_faulted_request_handling_is_a_500(tmp_path):
    service = SweepService(ShardedResultCache(tmp_path / "cache"),
                           n_workers=1)
    handle = start_in_thread(service)
    try:
        faults.enable_faults("seed=0;daemon.request=raise:1")
        status, out, _ = _request(handle, "POST", "/jobs", _spec())
        assert status == 500
        assert "injected fault at daemon.request" in out["error"]
        faults.disable_faults()
        status, out, _ = _request(handle, "POST", "/jobs", _spec())
        assert status == 200
        # the metrics exposition reports what was injected
        status, metrics, _ = _request(handle, "GET", "/metrics.json")
        assert metrics["faults"]["enabled"] is False
        conn = http.client.HTTPConnection(handle.host, handle.port,
                                          timeout=120)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        assert response.status == 200
        assert "repro_faults_enabled 0" in text
    finally:
        assert handle.stop()
