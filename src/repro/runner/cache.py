"""The content-addressed on-disk result cache (:class:`ShardedResultCache`).

Records are spread over ``2^k`` shard files keyed by the leading hex
digits of the job fingerprint, and every append/compaction holds a
per-shard file lock (``flock`` where available), so the daemon and any
number of concurrent CLI runs can write the same cache without torn
lines or lost shards.  A size budget (``max_bytes``) triggers per-shard
compaction and oldest-first ("LRU-ish": insertion order approximates
recency in an append-only log) eviction, and the cache keeps
hit/miss/store/eviction plus cumulative latency counters for
``/metrics`` and BENCH telemetry.

The loader stays deliberately forgiving: corrupt lines (truncated
writes, hand edits, schema drift) are counted and skipped, never fatal
-- a bad cache entry costs one recompile, not a crashed sweep.  For the
same reason the file the retired single-file layout left in the cache
directory is neither read nor deleted: its entries recompile once.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
import time
import weakref
import zlib
from typing import Iterable, Optional

from repro.faults import fault_point, torn_payload

from .fingerprint import SCHEMA_VERSION
from .job import JobResult, read_only_json

#: Environment override for the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory holding the sharded store.
SHARD_DIR = "shards"

#: Default shard count (2^4; must be a power of two <= 256).
N_SHARDS = 16

#: Stored records whose shared hit result is memoised before the memo
#: starts over (the service's job-spec memo bound).
MAX_SHARED_HITS = 4096

try:  # pragma: no cover - always available on the POSIX CI hosts
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-vliw``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro-vliw"


# ---------------------------------------------------------------------------
# shared line-level helpers
# ---------------------------------------------------------------------------

def _parse_lines(raw: str, entries: dict) -> int:
    """Fold JSONL *raw* into *entries* (last wins); returns corrupt count."""
    corrupt = 0
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if record.get("v") != SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            key = record["key"]
            # stored extras refuse writes, so every hit on the record
            # shares them instead of copying them
            if record.get("extras"):
                record["extras"] = read_only_json(record["extras"])
            # validate eagerly so a malformed outcome is counted as
            # corrupt now rather than crashing a later get()
            JobResult.from_record(record)
        except (ValueError, KeyError, TypeError, AttributeError):
            corrupt += 1
            continue
        entries[key] = record
    return corrupt


def _open_in_dir(path: str, flags: int) -> int:
    """``os.open`` that re-creates a missing parent directory once."""
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return os.open(path, flags, 0o666)


def _identity(st: os.stat_result) -> tuple[int, int]:
    return st.st_dev, st.st_ino


class _ShardHandles:
    """The held handles of one shard: a lock fd and an ``O_APPEND`` data fd.

    Used as ``with handles:`` -- entering takes the shard's ``flock``
    (exclusive across processes; a no-op where ``fcntl`` is missing) and
    stats the data file, so a store is flock + stat + pread + write.
    Both fds stay open for the life of the process, and are re-opened

    * in a forked child: an inherited lock fd shares the parent's open
      file description, so its flock would not exclude the parent;
    * (the data fd) when the shard path no longer names the held inode
      -- another writer compacted it (``tmp.replace``) or ``clear()``
      unlinked it.

    Lock files are never unlinked, so every process locks one inode per
    shard; if the directory itself vanished, the lock is re-taken on the
    re-created file.
    """

    __slots__ = ("path", "lock_path", "pid", "lock_fd", "data_fd",
                 "data_id", "size")

    def __init__(self, path: pathlib.Path) -> None:
        self.path = str(path)
        self.lock_path = self.path + ".lock"
        self.pid = -1
        self.lock_fd = -1
        self.data_fd = -1
        #: (st_dev, st_ino) the data fd was opened on
        self.data_id: Optional[tuple[int, int]] = None
        #: size of the data file as last seen under the lock
        self.size = 0

    def __enter__(self) -> "_ShardHandles":
        if self.pid != os.getpid():
            self.close()    # our copies of a parent's fds
            self.pid = os.getpid()
        if self.lock_fd < 0:
            self.lock_fd = _open_in_dir(self.lock_path,
                                        os.O_RDWR | os.O_CREAT)
        self._lock()
        try:
            self._sync()
        except BaseException:
            self._unlock()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._unlock()

    def _lock(self) -> None:
        if fcntl is not None:
            fcntl.flock(self.lock_fd, fcntl.LOCK_EX)

    def _unlock(self) -> None:
        if fcntl is not None and self.lock_fd >= 0:
            fcntl.flock(self.lock_fd, fcntl.LOCK_UN)

    def _sync(self) -> None:
        """Drop the data fd unless the path still names its inode."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            self._close_data()
            self._relock_if_stale()
            return
        if _identity(st) != self.data_id:
            self._close_data()
        self.size = st.st_size

    def _relock_if_stale(self) -> None:
        """Re-take the lock on the current lock file if ours was
        removed with its directory (nothing else unlinks it)."""
        try:
            current: Optional[tuple[int, int]] = \
                _identity(os.stat(self.lock_path))
        except FileNotFoundError:
            current = None
        if current != _identity(os.fstat(self.lock_fd)):
            self._unlock()
            os.close(self.lock_fd)
            self.lock_fd = -1
            self.lock_fd = _open_in_dir(self.lock_path,
                                        os.O_RDWR | os.O_CREAT)
            self._lock()

    def append(self, payload: bytes) -> None:
        """Append *payload* (under the lock).  A tail left torn by a
        crashed writer gets a newline first, so the new records never
        merge into it."""
        if self.data_fd < 0:
            self.data_fd = _open_in_dir(
                self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT)
            st = os.fstat(self.data_fd)
            self.data_id = _identity(st)
            self.size = st.st_size
        if self.size > 0 and \
                os.pread(self.data_fd, 1, self.size - 1) != b"\n":
            payload = b"\n" + payload
        view = memoryview(payload)
        while view:
            view = view[os.write(self.data_fd, view):]
        self.size += len(payload)

    def _close_data(self) -> None:
        if self.data_fd >= 0:
            os.close(self.data_fd)
        self.data_fd = -1
        self.data_id = None

    def close(self) -> None:
        self._close_data()
        if self.lock_fd >= 0:
            os.close(self.lock_fd)
        self.lock_fd = -1


def _close_handles(handles: dict[int, _ShardHandles]) -> None:
    for h in handles.values():
        h.close()


class ShardedResultCache:
    """Sharded, concurrently-writable content-addressed result store.

    ``directory/shards/shard-XX.jsonl`` for ``XX`` in ``00..N-1`` (hex),
    where a record's shard is the leading hex digits of its fingerprint
    key -- SHA-256 output, so shards stay uniformly occupied.  Appends
    and compactions hold the shard's file lock, making daemon + CLI
    concurrent writers safe.

    With *max_bytes* set, any shard growing past ``max_bytes/n_shards``
    is compacted in place and its oldest records evicted -- the same
    policy :meth:`gc` applies on demand.  All mutating entry points are
    serialised by an internal mutex, so the service's event-loop thread
    can read while the batch-executor thread stores.
    """

    def __init__(self, directory: "pathlib.Path | str | None" = None, *,
                 n_shards: int = N_SHARDS,
                 max_bytes: Optional[int] = None) -> None:
        if n_shards < 1 or n_shards > 256 or n_shards & (n_shards - 1):
            raise ValueError(f"n_shards must be a power of two in "
                             f"[1, 256], not {n_shards}")
        self.directory = pathlib.Path(directory) if directory \
            else default_cache_dir()
        self.shard_dir = self.directory / SHARD_DIR
        #: displayed by ``repro-vliw cache``; the store's on-disk home
        self.path = self.shard_dir
        self.n_shards = n_shards
        self.max_bytes = max_bytes
        self._entries: Optional[dict[str, dict]] = None
        self._shard_of_key: dict[str, int] = {}
        #: key -> (stored record, its shared read-only result); bounded
        #: by ``MAX_SHARED_HITS`` and cleared when full
        self._hits: dict[str, tuple[dict, JobResult]] = {}
        self._unwritable = False
        self._mutex = threading.RLock()
        self.n_corrupt = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.compactions = 0
        #: cumulative lookup/store wall time, for /metrics latency rates
        self.get_s = 0.0
        self.put_s = 0.0
        #: per-shard held fds, closed when the cache is collected
        self._handles: dict[int, _ShardHandles] = {}
        weakref.finalize(self, _close_handles, self._handles)

    # ------------------------------------------------------------- layout

    def _shard(self, key: str) -> int:
        """Shard index from the fingerprint prefix (hex keys), falling
        back to a CRC for foreign keys so nothing is unroutable."""
        try:
            return int(key[:2], 16) % self.n_shards
        except (ValueError, IndexError):
            return zlib.crc32(key.encode("utf-8")) % self.n_shards

    def _shard_path(self, shard: int) -> pathlib.Path:
        return self.shard_dir / f"shard-{shard:02x}.jsonl"

    def _shard_lock(self, shard: int) -> _ShardHandles:
        """The shard's held handles; ``with`` them to hold its lock."""
        handles = self._handles.get(shard)
        if handles is None:
            handles = self._handles[shard] = _ShardHandles(
                self._shard_path(shard))
        return handles

    # ------------------------------------------------------------- loading

    def _load(self) -> dict[str, dict]:
        with self._mutex:
            if self._entries is not None:
                return self._entries
            entries: dict[str, dict] = {}
            corrupt = 0
            for shard in range(self.n_shards):
                try:
                    raw = self._shard_path(shard).read_text()
                except (FileNotFoundError, OSError):
                    continue
                corrupt += _parse_lines(raw, entries)
            self._entries = entries
            self._shard_of_key = {k: self._shard(k) for k in entries}
            self.n_corrupt = corrupt
            return entries

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: str) -> bool:
        return key in self._load()

    def iter_records(self) -> list[dict]:
        """Snapshot of the raw cached records (cost estimation, audits).

        A list copy taken under the mutex, so callers iterate without
        racing writers; the records themselves are shared -- read-only.
        """
        with self._mutex:
            return list(self._load().values())

    # ------------------------------------------------------------ get/put

    def _shared(self, key: str, record: dict) -> JobResult:
        """The read-only result of *record*, the record stored under
        *key*: built once per record, then shared by every lookup.

        A hit costs one dict lookup and one ``is`` test.  Identity is
        exact because stores and compactions replace records whole and
        nothing edits a stored record in place.
        """
        entry = self._hits.get(key)
        if entry is not None and entry[0] is record:
            return entry[1]
        result = JobResult.from_record(record, cached=True)
        if len(self._hits) >= MAX_SHARED_HITS:
            self._hits.clear()
        self._hits[key] = (record, result)
        return result

    def peek(self, key: str) -> Optional[JobResult]:
        """Like :meth:`get` but without touching the hit/miss counters
        (status probes must not skew the telemetry)."""
        with self._mutex:
            record = self._load().get(key)
            return None if record is None else self._shared(key, record)

    def get(self, key: str) -> Optional[JobResult]:
        """Cached result for *key*, or None (and count the hit/miss).

        A hit is the record's shared, immutable result: the same object
        for every lookup until a store or compaction replaces the
        record.  May raise on I/O failure (or an injected ``cache.get``
        fault); callers treat a failed lookup as a miss.
        """
        fault_point("cache.get", key)
        t0 = time.perf_counter()
        with self._mutex:
            record = self._load().get(key)
            if record is None:
                self.misses += 1
                self.get_s += time.perf_counter() - t0
                return None
            self.hits += 1
            result = self._shared(key, record)
            self.get_s += time.perf_counter() - t0
        return result

    def put(self, result: JobResult) -> None:
        self.put_many([result])

    def put_many(self, results: Iterable[JobResult]) -> None:
        """Store results: one locked, buffered append per touched shard.

        Each shard's batch is serialised first and written with a single
        ``write`` while the shard lock is held, so concurrent writers
        (daemon + CLI sweeps) interleave whole batches, never bytes.  A
        torn tail left by a crashed writer is isolated with a leading
        newline.  An unwritable location degrades to in-memory-only
        after one warning.
        """
        results = list(results)
        if not results:
            return
        # injected before any state changes: a raising put models I/O
        # failure -- the batch is neither indexed nor written, and the
        # caller's sweep still completes (results just recompile later)
        fault_point("cache.put", results[0].key)
        t0 = time.perf_counter()
        with self._mutex:
            entries = self._load()
            by_shard: dict[int, list[str]] = {}
            shard_token: dict[int, str] = {}
            for result in results:
                record = result.to_record()
                record["v"] = SCHEMA_VERSION
                record["extras"] = read_only_json(record["extras"])
                shard = self._shard(result.key)
                by_shard.setdefault(shard, []).append(
                    json.dumps(record, sort_keys=True))
                shard_token.setdefault(shard, result.key)
                entries[result.key] = record
                self._shard_of_key[result.key] = shard
                self.stores += 1
            if not self._unwritable:
                try:
                    for shard, lines in sorted(by_shard.items()):
                        self._append_shard(shard, lines,
                                           fault_token=shard_token[shard])
                        if self.max_bytes is not None:
                            self._maybe_evict(shard)
                except OSError as exc:
                    self._unwritable = True
                    print(f"repro-vliw: result cache {self.shard_dir} is "
                          f"not writable ({exc}); caching in memory only",
                          file=sys.stderr)
            self.put_s += time.perf_counter() - t0

    def _append_shard(self, shard: int, lines: list[str], *,
                      fault_token: Optional[str] = None) -> None:
        payload = "\n".join(lines) + "\n"
        if fault_token is not None:
            # torn-write injection is keyed by the first stored key, not
            # the payload (wall_s differs run to run): the same seed
            # tears the same shards regardless of timing
            payload = torn_payload("cache.put", fault_token, payload)
        with self._shard_lock(shard) as handles:
            handles.append(payload.encode("utf-8"))

    # ----------------------------------------------------- gc / eviction

    def _shard_budget(self) -> Optional[int]:
        return None if self.max_bytes is None \
            else max(1, self.max_bytes // self.n_shards)

    def _maybe_evict(self, shard: int) -> None:
        budget = self._shard_budget()
        if budget is None:
            return
        try:
            if self._shard_path(shard).stat().st_size > budget:
                self._compact_shard(shard, budget)
        except (FileNotFoundError, OSError):
            pass

    def _compact_shard(self, shard: int, budget: Optional[int]) -> int:
        """Rewrite one shard deduped (and evicted down to *budget*);
        returns the number of records evicted.

        The shard file is re-read under its lock so records appended by
        other processes since our load survive the rewrite.
        """
        path = self._shard_path(shard)
        evicted = 0
        with self._shard_lock(shard):
            fresh: dict[str, dict] = {}
            try:
                _parse_lines(path.read_text(), fresh)
            except (FileNotFoundError, OSError):
                return 0
            lines = {k: json.dumps(r, sort_keys=True)
                     for k, r in fresh.items()}
            if budget is not None:
                # oldest-first eviction: insertion order approximates
                # recency in an append-only log
                for key in list(lines):
                    if sum(len(ln) + 1 for ln in lines.values()) <= budget:
                        break
                    del lines[key]
                    del fresh[key]
                    evicted += 1
            try:
                if lines:
                    tmp = path.with_suffix(".jsonl.tmp")
                    tmp.write_text("\n".join(lines.values()) + "\n")
                    tmp.replace(path)
                else:
                    path.unlink(missing_ok=True)
            except OSError:
                return 0
        # refresh the in-memory view of this shard
        entries = self._load()
        dropped = [k for k, s in self._shard_of_key.items()
                   if s == shard and k not in fresh]
        for key in dropped:
            entries.pop(key, None)
            self._shard_of_key.pop(key, None)
        for key, record in fresh.items():
            entries[key] = record
            self._shard_of_key[key] = shard
        self.evictions += evicted
        self.compactions += 1
        return evicted

    def gc(self, max_bytes: Optional[int] = None) -> dict:
        """Compact every shard; with a byte budget, evict down to it.

        *max_bytes* defaults to the cache's configured budget.
        """
        with self._mutex:
            if max_bytes is None:
                max_bytes = self.max_bytes
            before = self.total_bytes()
            budget = None if max_bytes is None \
                else max(1, max_bytes // self.n_shards)
            evicted = compacted = 0
            for shard in range(self.n_shards):
                if self._shard_path(shard).exists():
                    evicted += self._compact_shard(shard, budget)
                    compacted += 1
            return {"before_bytes": before,
                    "after_bytes": self.total_bytes(),
                    "evicted": evicted, "compacted_shards": compacted}

    # ------------------------------------------------------------- misc

    def clear(self) -> None:
        """Drop the on-disk store and the in-memory index.

        Shard data is unlinked under each shard's lock; the lock files
        stay, so a writer holding (or about to take) one still excludes
        every other writer.
        """
        with self._mutex:
            if self.shard_dir.is_dir():
                for shard in range(self.n_shards):
                    with self._shard_lock(shard):
                        self._shard_path(shard).unlink(missing_ok=True)
            self._entries = None
            self._shard_of_key = {}
            self._hits.clear()
            self.n_corrupt = 0

    def total_bytes(self) -> int:
        total = 0
        for shard in range(self.n_shards):
            try:
                total += self._shard_path(shard).stat().st_size
            except (FileNotFoundError, OSError):
                continue
        return total

    def shard_occupancy(self) -> list[int]:
        """Entry count per shard (uniform for healthy SHA-256 keys)."""
        with self._mutex:
            self._load()
            counts = [0] * self.n_shards
            for shard in self._shard_of_key.values():
                counts[shard] += 1
            return counts

    def stats(self) -> dict:
        """Counters for progress reporting, /metrics and benchmarks."""
        with self._mutex:
            return {"backend": "sharded", "entries": len(self),
                    "bytes": self.total_bytes(),
                    "n_shards": self.n_shards,
                    "shard_occupancy": self.shard_occupancy(),
                    "max_bytes": self.max_bytes,
                    "hits": self.hits, "misses": self.misses,
                    "stores": self.stores, "corrupt": self.n_corrupt,
                    "evictions": self.evictions,
                    "compactions": self.compactions,
                    "get_s": round(self.get_s, 6),
                    "put_s": round(self.put_s, 6)}


def open_cache(directory: "pathlib.Path | str | None" = None, *,
               backend: str = "sharded",
               max_bytes: Optional[int] = None) -> ShardedResultCache:
    """Open the result cache in *directory* (default:
    :func:`default_cache_dir`).  ``"sharded"`` is the only *backend*."""
    if backend != "sharded":
        raise ValueError(f"unknown cache backend {backend!r}; "
                         f"the only backend is 'sharded'")
    return ShardedResultCache(directory, max_bytes=max_bytes)
