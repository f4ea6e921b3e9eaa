"""Content-addressed result cache: hits, misses, corruption recovery."""

import json

import pytest

from repro.machine.presets import qrf_machine
from repro.runner import (CompileJob, RunnerConfig, ShardedResultCache,
                          default_cache_dir, execute_job, run_jobs)
from repro.runner import cache as cache_mod
from repro.runner.cache import CACHE_DIR_ENV
from repro.runner.fingerprint import SCHEMA_VERSION
from repro.runner.job import JobResult
from repro.workloads.kernels import kernel


@pytest.fixture
def cache(tmp_path):
    return ShardedResultCache(tmp_path / "cache")


def _job(name="daxpy", n_fus=4):
    return CompileJob(kernel(name), qrf_machine(n_fus))


def _shard_file(cache, key):
    """The shard file holding *key*'s records."""
    return cache._shard_path(cache._shard(key))


def test_miss_then_hit(cache):
    job = _job()
    assert cache.get(job.key) is None
    result = execute_job(job)
    cache.put(result)
    hit = cache.get(job.key)
    assert hit is not None
    assert hit.cached
    assert hit == result          # `cached` does not participate in ==
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_persists_across_instances(cache, tmp_path):
    result = execute_job(_job())
    cache.put(result)
    reopened = ShardedResultCache(tmp_path / "cache")
    assert reopened.get(result.key) == result


def test_extras_round_trip_json(cache):
    from repro.runner import PipelineOptions, spill_spec

    spec = spill_spec([(4, 8), (32, 16)])
    job = CompileJob(kernel("fir4"), qrf_machine(4),
                     PipelineOptions(allocate=False, extras=(spec,)))
    result = execute_job(job)
    cache.put(result)
    replayed = ShardedResultCache(cache.directory).get(job.key)
    assert replayed.extras == result.extras
    assert replayed.extras[spec]["4x8"]["n_spilled"] >= 0


def test_corrupt_lines_are_skipped_not_fatal(cache):
    good = execute_job(_job())
    cache.put(good)
    with _shard_file(cache, good.key).open("a") as fh:
        fh.write("{not json at all\n")                      # truncated write
        fh.write(json.dumps({"v": SCHEMA_VERSION}) + "\n")  # missing fields
        fh.write(json.dumps({"v": SCHEMA_VERSION - 1, "key": "k",
                             "outcome": {}}) + "\n")        # old schema
        fh.write("[1, 2]\n")                                # not an object
    reopened = ShardedResultCache(cache.directory)
    assert len(reopened) == 1
    assert reopened.n_corrupt == 4
    assert reopened.get(good.key) == good


def test_corrupt_entry_triggers_recompute(cache):
    job = _job()
    run_jobs([job], RunnerConfig(cache=cache))
    # clobber the stored record's outcome in place
    shard_file = _shard_file(cache, job.key)
    record = json.loads(shard_file.read_text())
    record["outcome"] = {"nonsense": True}
    shard_file.write_text(json.dumps(record) + "\n")
    fresh_cache = ShardedResultCache(cache.directory)
    [result] = run_jobs([job], RunnerConfig(cache=fresh_cache))
    assert not result.cached            # recompiled, not replayed
    assert fresh_cache.n_corrupt == 1
    # and the recompute healed the store
    healed = ShardedResultCache(cache.directory)
    assert healed.get(job.key) is not None


def test_last_duplicate_wins(cache):
    result = execute_job(_job())
    cache.put(result)
    cache.put(result)
    assert _shard_file(cache, result.key).read_text().count(
        result.key) == 2
    reopened = ShardedResultCache(cache.directory)
    assert len(reopened) == 1


def test_clear(cache):
    result = execute_job(_job())
    cache.put(result)
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert not _shard_file(cache, result.key).exists()
    assert len(ShardedResultCache(cache.directory)) == 0


def test_unwritable_location_degrades_to_memory(capsys):
    broken = ShardedResultCache("/proc/definitely/not/writable")
    job = _job()
    [first] = run_jobs([job], RunnerConfig(cache=broken))
    assert not first.cached
    assert "not writable" in capsys.readouterr().err
    # the sweep's results are still served from the in-memory index
    [replay] = run_jobs([job], RunnerConfig(cache=broken))
    assert replay.cached


def test_default_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    assert ShardedResultCache().directory == tmp_path / "elsewhere"


def test_default_dir_fallback(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert default_cache_dir().name == "repro-vliw"


def test_crash_mid_append_recovers_and_heals(cache):
    """A writer killed mid-append leaves a torn final line with no
    newline.  The loader must skip exactly that line, and the next batch
    append must start on a fresh line instead of merging into the tear."""
    good = execute_job(_job())
    cache.put(good)
    # simulate the crash: a truncated record, no trailing newline
    shard_file = _shard_file(cache, good.key)
    with shard_file.open("a") as fh:
        fh.write('{"v": %d, "key": "deadbeef", "outco' % SCHEMA_VERSION)

    torn = ShardedResultCache(cache.directory)
    assert torn.get(good.key) == good
    assert torn.n_corrupt == 1

    # appending through the torn tail must not corrupt the new record;
    # the second result is re-keyed onto the torn shard
    compiled = execute_job(_job("dot"))
    second = JobResult(key=good.key[:2] + compiled.key[2:],
                       outcome=compiled.outcome)
    torn.put(second)
    healed = ShardedResultCache(cache.directory)
    assert healed.get(good.key) == good
    assert healed.get(second.key) == second
    assert healed.n_corrupt == 1          # still just the torn line
    # the torn fragment sits isolated on its own line
    lines = shard_file.read_text().splitlines()
    assert sum(1 for ln in lines if ln.endswith('"outco')) == 1


def test_put_many_is_one_append_per_batch(cache, monkeypatch):
    """run_jobs stores a sweep with one buffered append per touched
    shard, each carrying every record of the batch bound there."""
    jobs = [_job(n) for n in ("daxpy", "dot", "fir4", "vadd")]
    results = [execute_job(j) for j in jobs]
    appends = []
    real_append = cache_mod._ShardHandles.append

    def counting_append(self, payload):
        appends.append((self.path, payload))
        return real_append(self, payload)

    monkeypatch.setattr(cache_mod._ShardHandles, "append", counting_append)
    cache.put_many(results)
    touched = {str(_shard_file(cache, r.key)) for r in results}
    assert sorted(path for path, _ in appends) == sorted(touched)
    assert sum(payload.count(b"\n") for _, payload in appends) \
        == len(results)
    reopened = ShardedResultCache(cache.directory)
    assert len(reopened) == len(results)
