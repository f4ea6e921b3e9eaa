"""Sharded result cache: concurrency, eviction, layout."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil

import pytest

from repro.machine.presets import qrf_machine
from repro.runner import (CompileJob, ShardedResultCache, execute_job,
                          open_cache)
from repro.runner.cache import SHARD_DIR
from repro.runner.fingerprint import SCHEMA_VERSION
from repro.runner.job import JobResult
from repro.workloads.kernels import kernel


@pytest.fixture
def cache(tmp_path):
    return ShardedResultCache(tmp_path / "cache")


def _job(name="daxpy", n_fus=4):
    return CompileJob(kernel(name), qrf_machine(n_fus))


def _fake_result(tag: str) -> JobResult:
    """A schema-valid record without the cost of a real compile."""
    from repro.analysis.metrics import LoopOutcome

    key = hashlib.sha256(tag.encode()).hexdigest()
    outcome = LoopOutcome(
        loop=f"loop-{tag}", machine="m", n_source_ops=4, n_body_ops=4,
        unroll_factor=1, n_copies=0, ii=2, mii=2, res_mii=2, rec_mii=1,
        stage_count=2, trip_count=100)
    return JobResult(key=key, outcome=outcome)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_miss_then_hit_and_persistence(cache, tmp_path):
    job = _job()
    assert cache.get(job.key) is None
    result = execute_job(job)
    cache.put(result)
    assert cache.get(job.key) == result
    assert cache.stats()["hits"] == 1
    reopened = ShardedResultCache(tmp_path / "cache")
    assert reopened.get(job.key) == result
    assert reopened.get(job.key).cached


def test_records_land_on_fingerprint_shards(cache):
    results = [_fake_result(f"r{i}") for i in range(32)]
    cache.put_many(results)
    for result in results:
        shard = int(result.key[:2], 16) % cache.n_shards
        raw = cache._shard_path(shard).read_text()
        assert result.key in raw
    occupancy = cache.shard_occupancy()
    assert sum(occupancy) == 32


def test_peek_does_not_count(cache):
    result = _fake_result("peek")
    cache.put(result)
    assert cache.peek(result.key) == result
    assert cache.peek("0" * 64) is None
    stats = cache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 0


def test_torn_shard_tail_is_isolated_and_healed(cache):
    result = _fake_result("torn")
    cache.put(result)
    shard = cache._shard(result.key)
    with cache._shard_path(shard).open("a") as fh:
        fh.write('{"v": %d, "key": "dead' % SCHEMA_VERSION)
    reopened = ShardedResultCache(cache.directory)
    assert reopened.get(result.key) == result
    assert reopened.n_corrupt == 1
    second = _fake_result("torn2-xyz")
    # force it onto the torn shard so the append crosses the tear
    second = JobResult(key=result.key[:2] + second.key[2:],
                       outcome=second.outcome)
    reopened.put(second)
    healed = ShardedResultCache(cache.directory)
    assert healed.get(result.key) == result
    assert healed.get(second.key).outcome == second.outcome
    assert healed.n_corrupt == 1


def test_clear_drops_both_layouts(tmp_path):
    # one layout: clear() drops the shards and leaves a file of the
    # retired single-file layout alone
    old_file = _old_single_file(tmp_path / "cache", [_fake_result("old")])
    sharded = ShardedResultCache(tmp_path / "cache")
    sharded.put(_fake_result("sharded"))
    assert len(sharded) == 1
    sharded.clear()
    assert len(ShardedResultCache(tmp_path / "cache")) == 0
    assert old_file.exists()


def test_bad_shard_count_rejected(tmp_path):
    with pytest.raises(ValueError):
        ShardedResultCache(tmp_path, n_shards=12)


# ---------------------------------------------------------------------------
# the retired single-file layout
# ---------------------------------------------------------------------------

def _old_single_file(directory, results):
    """Write *results* the way the retired single-file store did:
    ``results.jsonl`` directly in the cache directory."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "results.jsonl"
    lines = []
    for result in results:
        record = result.to_record()
        record["v"] = SCHEMA_VERSION
        lines.append(json.dumps(record, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_legacy_records_read_through(tmp_path):
    # no read-through: an old single-file record is a miss (one
    # recompile), and the file is left where it was
    result = execute_job(_job())
    old_file = _old_single_file(tmp_path / "cache", [result])
    sharded = ShardedResultCache(tmp_path / "cache")
    assert sharded.get(result.key) is None
    assert len(sharded) == 0 and sharded.n_corrupt == 0
    sharded.put(result)
    assert ShardedResultCache(tmp_path / "cache").get(result.key) == result
    assert old_file.exists()


def test_migrate_moves_and_removes_legacy(tmp_path):
    # nothing migrates: gc compacts the shards only, and the old file
    # neither counts toward the store's bytes nor gets deleted
    results = [_fake_result(f"m{i}") for i in range(10)]
    old_file = _old_single_file(tmp_path / "cache", results)
    before = old_file.read_bytes()
    sharded = ShardedResultCache(tmp_path / "cache")
    assert not hasattr(sharded, "migrate")
    report = sharded.gc()
    assert report == {"before_bytes": 0, "after_bytes": 0, "evicted": 0,
                      "compacted_shards": 0}
    assert len(ShardedResultCache(tmp_path / "cache")) == 0
    assert old_file.read_bytes() == before


def test_migrate_prefers_newer_shard_records(tmp_path):
    # the single-file backend itself is gone from the package
    import repro.runner

    with pytest.raises(ImportError):
        from repro.runner import ResultCache  # noqa: F401
    assert not hasattr(repro.runner, "ResultCache")
    assert "ResultCache" not in repro.runner.__all__


def test_open_cache_autodetects_layout(tmp_path):
    # brand-new directory -> sharded
    assert isinstance(open_cache(tmp_path / "new"), ShardedResultCache)
    # a directory holding an old single file -> sharded all the same
    old_dir = tmp_path / "old"
    _old_single_file(old_dir, [_fake_result("x")])
    cache = open_cache(old_dir, backend="sharded")
    assert isinstance(cache, ShardedResultCache)
    assert isinstance(open_cache(old_dir), ShardedResultCache)
    assert cache.stats()["backend"] == "sharded"
    # "sharded" is the only backend
    for backend in ("legacy", "nope"):
        with pytest.raises(ValueError):
            open_cache(old_dir, backend=backend)


# ---------------------------------------------------------------------------
# gc / eviction
# ---------------------------------------------------------------------------

def test_gc_compacts_superseded_records(cache):
    result = _fake_result("dup-gc")
    cache.put(result)
    cache.put(result)
    shard = cache._shard(result.key)
    raw = cache._shard_path(shard).read_text()
    assert raw.count(result.key) == 2
    report = cache.gc()
    assert report["after_bytes"] < report["before_bytes"]
    raw = cache._shard_path(shard).read_text()
    assert raw.count(result.key) == 1
    assert cache.get(result.key).outcome == result.outcome


def test_gc_evicts_oldest_to_budget(cache):
    results = [_fake_result(f"e{i}") for i in range(64)]
    cache.put_many(results)
    before = cache.total_bytes()
    report = cache.gc(max_bytes=before // 2)
    assert report["evicted"] > 0
    assert cache.total_bytes() <= before // 2 + before // 8
    assert cache.stats()["evictions"] == report["evicted"]
    # everything still present is readable; everything evicted misses
    reopened = ShardedResultCache(cache.directory)
    survivors = sum(1 for r in results if reopened.peek(r.key))
    assert survivors == 64 - report["evicted"]


def test_max_bytes_budget_evicts_during_put(tmp_path):
    cache = ShardedResultCache(tmp_path / "cache", n_shards=2,
                               max_bytes=2048)
    for i in range(64):
        cache.put(_fake_result(f"auto{i}"))
    assert cache.evictions > 0
    # the store is held near the budget (per-shard slack allowed)
    assert cache.total_bytes() <= 2048 + 1024


# ---------------------------------------------------------------------------
# concurrent writers
# ---------------------------------------------------------------------------

def _writer_process(directory, worker_id, n_records, n_batches):
    cache = ShardedResultCache(directory)
    per_batch = n_records // n_batches
    for b in range(n_batches):
        batch = [_fake_result(f"w{worker_id}-{b}-{i}")
                 for i in range(per_batch)]
        cache.put_many(batch)


def test_concurrent_multiprocess_writers_lose_nothing(tmp_path):
    """Several processes hammer the same sharded store; afterwards every
    record is readable -- no torn lines, no lost shards."""
    directory = tmp_path / "cache"
    n_workers, n_records, n_batches = 4, 48, 8
    ctx = multiprocessing.get_context()
    procs = [ctx.Process(target=_writer_process,
                         args=(str(directory), w, n_records, n_batches))
             for w in range(n_workers)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
        assert p.exitcode == 0

    cache = ShardedResultCache(directory)
    assert cache.n_corrupt == 0
    assert len(cache) == n_workers * n_records
    for w in range(n_workers):
        for b in range(n_batches):
            for i in range(n_records // n_batches):
                result = _fake_result(f"w{w}-{b}-{i}")
                assert cache.peek(result.key) is not None


def test_daemon_plus_cli_shape_sharing(tmp_path):
    """Two cache instances over one directory (the daemon + a CLI sweep)
    interleave writes without clobbering each other."""
    a = ShardedResultCache(tmp_path / "cache")
    b = ShardedResultCache(tmp_path / "cache")
    ra, rb = _fake_result("from-a"), _fake_result("from-b")
    a.put(ra)
    b.put(rb)                     # b's view predates a's write
    fresh = ShardedResultCache(tmp_path / "cache")
    assert fresh.peek(ra.key) is not None
    assert fresh.peek(rb.key) is not None
    assert fresh.n_corrupt == 0


def test_json_round_trip_matches_legacy_wire_format(cache):
    """Shard lines carry the record schema the single-file store wrote,
    so cost estimation (and any external reader) works unchanged."""
    result = dataclasses.replace(_fake_result("wire"),
                                 extras={"sched_stats": {"attempts": 7}},
                                 wall_s=0.25)
    cache.put(result)
    assert cache._shard_path(cache._shard(result.key)).read_text() == (
        '{"extras": {"sched_stats": {"attempts": 7}}, "key": "%s", '
        '"outcome": {"error": null, "failed": false, "ii": 2, '
        '"loop": "loop-wire", "machine": "m", "max_queue_depth": null, '
        '"mii": 2, "n_body_ops": 4, "n_copies": 0, "n_source_ops": 4, '
        '"rec_mii": 1, "res_mii": 2, "stage_count": 2, '
        '"total_queues": null, "trip_count": 100, "unroll_factor": 1}, '
        '"v": %d, "wall_s": 0.25}\n' % (result.key, SCHEMA_VERSION))


def test_cost_estimator_reads_sharded_cache(cache):
    from repro.runner.pool import cost_estimator

    job = _job("fir4")
    result = dataclasses.replace(execute_job(job), wall_s=0.25)
    cache.put(result)
    cost = cost_estimator(ShardedResultCache(cache.directory))
    assert cost(job) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# held shard handles
# ---------------------------------------------------------------------------

def _on_shard(tag: str, shard_of: JobResult) -> JobResult:
    """A fake result forced onto the shard of *shard_of*."""
    result = _fake_result(tag)
    return JobResult(key=shard_of.key[:2] + result.key[2:],
                     outcome=result.outcome)


def _in_process(target, *args):
    """Run *target* in a separate (forked) process and demand success."""
    proc = multiprocessing.get_context("fork").Process(target=target,
                                                       args=args)
    proc.start()
    proc.join(60)
    assert proc.exitcode == 0


def _clear_then_put(directory, tags):
    cache = ShardedResultCache(directory)
    cache.clear()
    cache.put_many([_fake_result(t) for t in tags])


def _put(directory, tags):
    ShardedResultCache(directory).put_many([_fake_result(t) for t in tags])


def _compact(directory):
    ShardedResultCache(directory).gc()


def test_clear_by_another_process_keeps_locks_and_later_records(tmp_path):
    directory = tmp_path / "cache"
    a = ShardedResultCache(directory)
    a.put_many([_fake_result(f"a-before-{i}") for i in range(16)])
    locks = [p.name for p in (directory / SHARD_DIR).glob("*.lock")]
    _in_process(_clear_then_put, str(directory),
                [f"b-after-{i}" for i in range(16)])
    # the lock files survive clear(): every writer still locks one inode
    assert set(locks) <= {p.name for p in
                          (directory / SHARD_DIR).glob("*.lock")}
    for shard, handles in a._handles.items():
        assert os.fstat(handles.lock_fd).st_ino == \
            os.stat(handles.lock_path).st_ino
    a.put_many([_fake_result(f"a-after-{i}") for i in range(16)])
    _in_process(_put, str(directory), [f"b-later-{i}" for i in range(16)])
    a.put_many([_fake_result(f"a-last-{i}") for i in range(16)])

    fresh = ShardedResultCache(directory)
    assert fresh.n_corrupt == 0
    for prefix in ("b-after", "a-after", "b-later", "a-last"):
        for i in range(16):
            assert fresh.peek(_fake_result(f"{prefix}-{i}").key), prefix
    assert all(fresh.peek(_fake_result(f"a-before-{i}").key) is None
               for i in range(16))


def test_compaction_by_another_process_loses_no_append(tmp_path):
    directory = tmp_path / "cache"
    a = ShardedResultCache(directory)
    anchor = _fake_result("anchor")
    first = [anchor] + [_on_shard(f"first-{i}", anchor) for i in range(8)]
    a.put_many(first)
    a.put_many(first)             # superseded copies: gc must rewrite
    shard_path = a._shard_path(a._shard(anchor.key))
    inode = shard_path.stat().st_ino
    _in_process(_compact, str(directory))
    assert shard_path.stat().st_ino != inode   # replaced under a's fd
    second = [_on_shard(f"second-{i}", anchor) for i in range(8)]
    a.put_many(second)

    fresh = ShardedResultCache(directory)
    assert fresh.n_corrupt == 0
    for result in first + second:
        assert fresh.peek(result.key) is not None, result.outcome.loop


def _forked_append(cache, tag, anchor):
    cache.put(_on_shard(tag, anchor))
    # re-opened for this process, not the parent's inherited fds
    assert cache._shard_lock(cache._shard(anchor.key)).pid == os.getpid()


def test_forked_child_appends_through_its_own_handles(tmp_path):
    cache = ShardedResultCache(tmp_path / "cache")
    anchor = _fake_result("fork-anchor")
    cache.put(anchor)
    handles = cache._shard_lock(cache._shard(anchor.key))
    ctx = multiprocessing.get_context("fork")
    with handles:                 # the parent holds the shard lock
        child = ctx.Process(target=_forked_append,
                            args=(cache, "from-child", anchor))
        child.start()
        child.join(0.5)
        # an inherited lock fd would share the parent's flock and let
        # the child through; its own fd makes it wait for the parent
        assert child.is_alive()
    child.join(60)
    assert child.exitcode == 0
    assert handles.pid == os.getpid()
    cache.put(_on_shard("from-parent", anchor))

    fresh = ShardedResultCache(tmp_path / "cache")
    assert fresh.n_corrupt == 0
    for tag in ("from-child", "from-parent"):
        assert fresh.peek(_on_shard(tag, anchor).key) is not None


def test_torn_tail_by_another_writer_is_healed_through_held_handle(cache):
    result = _fake_result("held-torn")
    cache.put(result)             # the shard's handles are now held
    with cache._shard_path(cache._shard(result.key)).open("a") as fh:
        fh.write('{"v": %d, "key": "dead' % SCHEMA_VERSION)
    second = _on_shard("held-torn-2", result)
    cache.put(second)
    healed = ShardedResultCache(cache.directory)
    assert healed.get(result.key) == result
    assert healed.get(second.key).outcome == second.outcome
    assert healed.n_corrupt == 1


def test_removed_directory_is_recreated_and_relocked(tmp_path):
    directory = tmp_path / "cache"
    a = ShardedResultCache(directory)
    anchor = _fake_result("rm-anchor")
    a.put(anchor)
    shutil.rmtree(directory)
    _in_process(_put, str(directory), ["rm-other"])
    a.put(_on_shard("rm-after", anchor))
    # a re-took its lock on the re-created lock file, which the other
    # writer locked too: they exclude each other again
    handles = a._shard_lock(a._shard(anchor.key))
    assert os.fstat(handles.lock_fd).st_ino == \
        os.stat(handles.lock_path).st_ino
    fresh = ShardedResultCache(directory)
    assert fresh.peek(_on_shard("rm-after", anchor).key) is not None
    assert fresh.peek(_fake_result("rm-other").key) is not None


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_dropped_caches_close_their_handles(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    for i in range(300):
        cache = ShardedResultCache(tmp_path / f"c{i}")
        cache.put_many([_fake_result(f"fd-{i}-{j}") for j in range(3)])
        assert cache._handles
        del cache
    assert len(os.listdir("/proc/self/fd")) == before
