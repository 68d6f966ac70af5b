"""The persistent disk tier and the memory-over-disk composite cache.

The in-memory LRU (:class:`~repro.service.cache.MemoryTier`) evaporates on
every process restart, which forfeits the system's whole value proposition
— plans computed once, served many times.  This module adds:

* :class:`DiskTier` — an append-only log of serialized cache entries with
  an in-memory offset index.  Appends are O(1) writes; lookups are one
  seek plus one record decode; deletions are tombstone records; restart
  recovery is a single forward scan that also truncates a torn tail (a
  crash mid-append loses at most the last record, never the log).  Every
  record carries the entry's :class:`~repro.service.provenance.Provenance`,
  so :meth:`DiskTier.invalidate` retires exactly the entries an
  :class:`~repro.service.provenance.InvalidationPredicate` names, and
  snapshots (:meth:`DiskTier.export_snapshot`) are self-describing files
  shippable between shards;
* :class:`TieredPlanCache` — memory over disk, write-through (every entry
  persists at put time, so a crash loses nothing acknowledged) with disk
  hits promoted back into memory.  The composite satisfies the
  :class:`~repro.service.cache.CacheTier` protocol, so the service,
  gateway, and async front-end serve through it unchanged — a disk hit is
  a cache hit that no DP run is ever spent on, restart or not.

Locking: each tier locks its own state.  The composite's :meth:`peek` is
memory-only (never I/O), which is what lets the sharded gateway keep its
singleflight bookkeeping under its own lock without ever holding that lock
across a disk read — :meth:`get`/:meth:`probe`, which may touch disk, are
called by the gateway *outside* its lock.
"""

from __future__ import annotations

import io
import json
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.cluster.serialization import (
    plans_from_wire,
    plans_to_wire,
    timing_from_wire,
    timing_to_wire,
)
from repro.core.envelope import EnvelopeIndex
from repro.service.cache import CacheStats, MemoryTier
from repro.service.provenance import InvalidationPredicate, Provenance
from repro.service.service import SCALAR_ENTRY, CacheEntry

#: First line of every log and snapshot file; readers reject other formats.
LOG_MAGIC = {"t": "header", "format": "repro-plan-cache", "version": 1}


class DiskTierLockedError(RuntimeError):
    """The log is already open for writing in another process.

    The log format is single-writer: interleaved appends from two processes
    (say, ``cache invalidate`` against a directory a live ``serve-batch``
    is using) would corrupt records.  Each :class:`DiskTier` therefore holds
    an exclusive advisory lock for the lifetime of its handles, and a
    second opener fails fast with this error instead of silently writing.
    """


# ------------------------------------------------------------------ entry codec


def entry_to_wire(entry: CacheEntry) -> dict[str, Any]:
    """JSON-compatible encoding of a cache entry (plans, timing, provenance).

    Envelope entries additionally carry their ``kind`` and the breakpoint
    index (:meth:`~repro.core.envelope.EnvelopeIndex.to_wire`) — the
    breakpoints are *shipped*, not recomputed on decode, so both sides of a
    disk or network round trip bind every θ to the same segment.  Scalar
    entries omit both fields, keeping pre-envelope logs byte-compatible.
    """
    wire = {
        "plans": plans_to_wire(entry.canonical_plans),
        "n_partitions": entry.n_partitions,
        "simulated": timing_to_wire(entry.simulated),
        "backend_used": entry.backend_used,
        "provenance": entry.provenance.to_wire() if entry.provenance else None,
    }
    if entry.kind != SCALAR_ENTRY:
        wire["kind"] = entry.kind
    if entry.envelope is not None:
        wire["envelope"] = entry.envelope.to_wire()
    return wire


def entry_from_wire(data: dict[str, Any]) -> CacheEntry:
    """Rebuild a cache entry from :func:`entry_to_wire` output."""
    provenance = data.get("provenance")
    envelope = data.get("envelope")
    return CacheEntry(
        canonical_plans=plans_from_wire(data["plans"]),
        n_partitions=int(data["n_partitions"]),
        simulated=timing_from_wire(data["simulated"]),
        backend_used=str(data.get("backend_used", "")),
        provenance=Provenance.from_wire(provenance) if provenance else None,
        kind=str(data.get("kind", SCALAR_ENTRY)),
        envelope=EnvelopeIndex.from_wire(envelope) if envelope else None,
    )


# -------------------------------------------------------------------- disk tier


class DiskTier:
    """Append-only persistent cache tier with an in-memory offset index.

    The log holds one JSON record per line: a header, then ``put`` records
    (key, serialized entry) and ``del`` tombstones.  The index maps each
    live key to the byte offset of its latest ``put`` record and keeps the
    record's :class:`Provenance` resident, so invalidation predicates
    evaluate without touching the file and :meth:`entries` can enumerate
    provenance cheaply.  Superseded and tombstoned records stay in the log
    until :meth:`compact` rewrites it.

    ``sync=True`` fsyncs after every append (durable against power loss,
    slow); the default flushes to the OS only, which survives process
    crashes — the failure mode restarts actually come from.

    ``compact_ratio`` enables automatic compaction: whenever the fraction
    of live records among all log records drops below the ratio, the log is
    rewritten at the next open (right after recovery) or close.  Those two
    points are deliberately the only triggers — compaction holds the tier
    lock for a full log rewrite, which is acceptable at lifecycle edges but
    not mid-serving.  ``0.0`` (default) never auto-compacts; explicit
    :meth:`compact` always works regardless.

    Standalone, the tier satisfies :class:`~repro.service.cache.CacheTier`
    with one documented deviation: :meth:`peek` performs a (stat-free)
    disk read, so compose it under :class:`TieredPlanCache` — whose peek is
    memory-only — before handing it to lock-holding callers.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        sync: bool = False,
        compact_ratio: float = 0.0,
    ) -> None:
        if not 0.0 <= compact_ratio <= 1.0:
            raise ValueError(
                f"compact_ratio must be in [0, 1], got {compact_ratio}"
            )
        self.path = Path(path)
        self.sync = sync
        self.compact_ratio = compact_ratio
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._offsets: dict[str, int] = {}
        self._provenance: dict[str, Provenance | None] = {}
        self._kinds: dict[str, str] = {}
        #: Total records appended to the log (puts + tombstones, not the
        #: header); ``len(_offsets) / _total_records`` is the live ratio the
        #: auto-compaction policy watches.
        self._total_records = 0
        self._lockfile: io.BufferedRandom | None = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._acquire_writer_lock()
        # An orphaned temp file means a previous process died between
        # exporting its compaction snapshot and swapping it in; the live log
        # is the source of truth, so the leftover is garbage.  Safe to drop
        # only now, under the writer lock — a *live* compaction elsewhere
        # would have kept the lock, and we would not be here.
        self.path.with_suffix(self.path.suffix + ".compact").unlink(
            missing_ok=True
        )
        try:
            self._recover()
            self._appender = open(self.path, "ab")
            self._reader = open(self.path, "rb")
        except BaseException:
            self._release_writer_lock()
            raise
        # Open-time auto-compaction: recovery just counted the dead weight a
        # previous process left behind; shedding it now is the one moment a
        # rewrite delays nothing but startup.
        if self._needs_compaction():
            self.compact()

    # ----------------------------------------------------------- writer lock

    def _acquire_writer_lock(self) -> None:
        """Take the log's exclusive advisory lock, or fail fast.

        The lock lives on a sibling ``.lock`` file (not the log itself) so
        compaction can close and replace the log without a window in which
        another process could sneak in as writer.  No-op where ``fcntl`` is
        unavailable.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return
        lockfile = open(self.path.with_suffix(self.path.suffix + ".lock"), "a+b")
        try:
            fcntl.flock(lockfile.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            lockfile.seek(0)
            holder = lockfile.read(64).decode(errors="replace").strip()
            lockfile.close()
            raise DiskTierLockedError(
                f"plan-cache log {self.path} is in use by pid "
                f"{holder or 'unknown'}; the log is single-writer — close "
                "that process (or point this one at another cache directory)"
            ) from None
        lockfile.truncate(0)
        lockfile.seek(0)
        lockfile.write(str(os.getpid()).encode())
        lockfile.flush()
        self._lockfile = lockfile

    def _release_writer_lock(self) -> None:
        if self._lockfile is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._lockfile.fileno(), fcntl.LOCK_UN)
            self._lockfile.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        self._lockfile = None

    # ---------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Rebuild the index by one forward scan; truncate any torn tail."""
        if not self.path.exists():
            with open(self.path, "wb") as fresh:
                fresh.write(_record_bytes(LOG_MAGIC))
            return
        good_end = 0
        with open(self.path, "rb") as log:
            first = log.readline()
            try:
                header = json.loads(first)
                if header.get("format") != LOG_MAGIC["format"]:
                    raise ValueError(
                        f"{self.path} is not a plan-cache log "
                        f"(format {header.get('format')!r})"
                    )
            except json.JSONDecodeError:
                raise ValueError(f"{self.path} is not a plan-cache log") from None
            good_end = log.tell()
            while True:
                offset = log.tell()
                line = log.readline()
                if not line:
                    break
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail: a crash mid-append; drop it below
                if not line.endswith(b"\n"):
                    break  # complete JSON but unterminated: also torn
                good_end = log.tell()
                record_type = record.get("t")
                if record_type == "put":
                    key = record["k"]
                    self._offsets[key] = offset
                    provenance = record["entry"].get("provenance")
                    self._provenance[key] = (
                        Provenance.from_wire(provenance) if provenance else None
                    )
                    self._kinds[key] = record["entry"].get("kind", SCALAR_ENTRY)
                    self._total_records += 1
                elif record_type == "del":
                    self._offsets.pop(record["k"], None)
                    self._provenance.pop(record["k"], None)
                    self._kinds.pop(record["k"], None)
                    self._total_records += 1
        if good_end < self.path.stat().st_size:
            with open(self.path, "r+b") as log:
                log.truncate(good_end)

    # ------------------------------------------------------------------ basics

    def _append(self, record: dict[str, Any]) -> int:
        """Append one record; returns its byte offset.  Caller holds the lock."""
        payload = _record_bytes(record)
        offset = self._appender.tell()
        self._appender.write(payload)
        self._appender.flush()
        if self.sync:
            os.fsync(self._appender.fileno())
        self._total_records += 1
        return offset

    def _read_entry(self, offset: int) -> CacheEntry:
        """Decode the ``put`` record at ``offset``.  Caller holds the lock."""
        self._reader.seek(offset)
        record = json.loads(self._reader.readline())
        return entry_from_wire(record["entry"])

    def get(self, key: str) -> CacheEntry | None:
        """Read an entry from disk, counting a hit or a miss."""
        with self._lock:
            offset = self._offsets.get(key)
            if offset is None:
                self.stats.misses += 1
                return None
            entry = self._read_entry(offset)
            self.stats.hits += 1
            return entry

    def probe(self, key: str) -> CacheEntry | None:
        """Like :meth:`get` but an absent key counts nothing."""
        with self._lock:
            offset = self._offsets.get(key)
            if offset is None:
                return None
            entry = self._read_entry(offset)
            self.stats.hits += 1
            return entry

    def peek(self, key: str) -> CacheEntry | None:
        """Read an entry without statistics effects (still one disk read)."""
        with self._lock:
            offset = self._offsets.get(key)
            if offset is None:
                return None
            return self._read_entry(offset)

    def put(self, key: str, entry: CacheEntry) -> None:
        """Append the entry; the new record supersedes any older one."""
        record = {"t": "put", "k": key, "entry": entry_to_wire(entry)}
        with self._lock:
            self._offsets[key] = self._append(record)
            self._provenance[key] = entry.provenance
            self._kinds[key] = entry.kind

    def evict(self, key: str) -> bool:
        """Tombstone ``key`` if present (counted as an eviction)."""
        with self._lock:
            if key not in self._offsets:
                return False
            self._append({"t": "del", "k": key})
            del self._offsets[key]
            self._provenance.pop(key, None)
            self._kinds.pop(key, None)
            self.stats.evictions += 1
            return True

    def reclassify_miss_as_hit(self) -> None:
        """Recount one earlier miss as a hit (see the memory tier)."""
        with self._lock:
            if self.stats.misses > 0:
                self.stats.misses -= 1
            self.stats.hits += 1

    # ------------------------------------------------------------- invalidation

    def invalidate(self, predicate: InvalidationPredicate) -> list[str]:
        """Tombstone every entry whose provenance matches; returns their keys.

        Evaluated entirely against the resident provenance index — no
        record is read back — so invalidating a handful of entries in a
        million-entry log is O(keys), not O(log bytes).
        """
        with self._lock:
            doomed = [
                key
                for key, provenance in self._provenance.items()
                if predicate.matches(provenance)
            ]
            for key in doomed:
                self._append({"t": "del", "k": key})
                del self._offsets[key]
                del self._provenance[key]
                self._kinds.pop(key, None)
                self.stats.evictions += 1
            return doomed

    # -------------------------------------------------------------- inspection

    def keys(self) -> list[str]:
        """Live keys (a consistent copy)."""
        with self._lock:
            return list(self._offsets)

    def entries(self) -> Iterator[tuple[str, Provenance | None, str]]:
        """Iterate ``(key, provenance, kind)`` over live entries, index order."""
        with self._lock:
            items = [
                (key, provenance, self._kinds.get(key, SCALAR_ENTRY))
                for key, provenance in self._provenance.items()
            ]
        yield from items

    def live_ratio(self) -> float:
        """Fraction of log records still live (1.0 on an empty log)."""
        with self._lock:
            if self._total_records == 0:
                return 1.0
            return len(self._offsets) / self._total_records

    def _needs_compaction(self) -> bool:
        """Whether the auto-compaction policy says the log is worth rewriting.

        Never at ``compact_ratio=0`` (no live ratio is below it), nor on an
        empty log (its live ratio is 1.0, and the ratio is at most 1).
        """
        return self.live_ratio() < self.compact_ratio

    def log_bytes(self) -> int:
        """Current size of the log file (includes dead records)."""
        with self._lock:
            return self._appender.tell()

    # ------------------------------------------------------- snapshots/compaction

    def export_records(self, keys: Iterable[str] | None = None) -> list[dict[str, Any]]:
        """Live ``put`` records (log-line form) for ``keys`` (default: all).

        The records are exactly what :meth:`export_snapshot` writes after
        its header — the disk format doubling as the wire format — so a
        rebalancer can ship a subset of one shard's entries over a frame
        without touching the filesystem.  Unknown keys are skipped (the
        caller asked for a routing slice, not a guarantee).  Stat-free.
        """
        with self._lock:
            if keys is None:
                wanted = sorted(self._offsets.items(), key=lambda item: item[1])
            else:
                wanted = sorted(
                    (
                        (key, self._offsets[key])
                        for key in set(keys)
                        if key in self._offsets
                    ),
                    key=lambda item: item[1],
                )
            records = []
            for __, offset in wanted:
                self._reader.seek(offset)
                records.append(json.loads(self._reader.readline()))
            return records

    def import_records(
        self, records: Iterable[dict[str, Any]], overwrite: bool = True
    ) -> int:
        """Merge ``put`` records (log-line form) into this tier; returns count.

        The append path is identical to :meth:`put` — each record lands in
        the log and the offset/provenance indexes — so imported entries are
        durable and survive this process exactly like locally computed
        ones.  Non-``put`` records are ignored (a shipment carries entries,
        not deletion history).
        """
        imported = 0
        with self._lock:
            for record in records:
                if record.get("t") != "put":
                    continue
                key = record["k"]
                if not overwrite and key in self._offsets:
                    continue
                self._offsets[key] = self._append(record)
                provenance = record["entry"].get("provenance")
                self._provenance[key] = (
                    Provenance.from_wire(provenance) if provenance else None
                )
                self._kinds[key] = record["entry"].get("kind", SCALAR_ENTRY)
                imported += 1
        return imported

    def export_snapshot(self, path: str | os.PathLike) -> int:
        """Write a compacted copy of the live entries; returns entry count.

        The snapshot is itself a valid tier log (header plus ``put``
        records only), so it can be opened directly as a :class:`DiskTier`
        on another shard or imported into an existing one.
        """
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            live = sorted(self._offsets.items(), key=lambda item: item[1])
            with open(destination, "wb") as snapshot:
                snapshot.write(_record_bytes(LOG_MAGIC))
                for key, offset in live:
                    self._reader.seek(offset)
                    snapshot.write(self._reader.readline())
            return len(live)

    def import_snapshot(
        self, path: str | os.PathLike, overwrite: bool = True
    ) -> int:
        """Merge a snapshot's entries into this tier; returns imported count.

        With ``overwrite=False`` keys already live here are kept as-is
        (merge semantics for unioning shard snapshots); the default lets
        the snapshot win.  Tombstones in the source are ignored — a
        snapshot ships *entries*, not deletion history.
        """
        source = Path(path)
        with self._lock:
            with open(source, "rb") as snapshot:
                header = json.loads(snapshot.readline())
                if header.get("format") != LOG_MAGIC["format"]:
                    raise ValueError(
                        f"{source} is not a plan-cache snapshot "
                        f"(format {header.get('format')!r})"
                    )
                records = [json.loads(line) for line in snapshot]
            return self.import_records(records, overwrite=overwrite)

    def compact(self) -> int:
        """Rewrite the log with live records only; returns bytes reclaimed.

        Crash-safe at every step: a failure while exporting the snapshot
        (ENOSPC is the classic) leaves the live log, the open handles, and
        the index untouched — the tier keeps serving; a failure at or after
        the swap still reopens usable handles on whichever file owns the
        path.  The ``.compact`` temp file never outlives this call, and one
        orphaned by a crashed *process* is removed at the next open.
        """
        with self._lock:
            before = self._appender.tell()
            replacement = self.path.with_suffix(self.path.suffix + ".compact")
            try:
                self.export_snapshot(replacement)
            except BaseException:
                replacement.unlink(missing_ok=True)
                raise
            # The snapshot is complete and durable under the temp name; only
            # now is it safe to release the handles for the swap.
            self._appender.close()
            self._reader.close()
            try:
                os.replace(replacement, self.path)
            finally:
                try:
                    self._offsets.clear()
                    self._provenance.clear()
                    self._kinds.clear()
                    self._total_records = 0
                    self._recover()
                finally:
                    # Whatever happened above — swap refused, recovery
                    # failed — the tier must come back with open handles, or
                    # every later get/put dies on a closed file.
                    self._appender = open(self.path, "ab")
                    self._reader = open(self.path, "rb")
                    replacement.unlink(missing_ok=True)
            return before - self._appender.tell()

    # ------------------------------------------------------------------- stats

    def snapshot(self) -> CacheStats:
        """A consistent copy of the counters."""
        with self._lock:
            return replace(self.stats)

    def snapshot_with_size(self) -> tuple[CacheStats, int]:
        """Counters plus live entry count, read in one lock hold."""
        with self._lock:
            return replace(self.stats), len(self._offsets)

    def clear(self) -> None:
        """Drop every entry, truncate the log, reset statistics."""
        with self._lock:
            self._appender.truncate(0)
            self._appender.seek(0)
            self._appender.write(_record_bytes(LOG_MAGIC))
            self._appender.flush()
            self._offsets.clear()
            self._provenance.clear()
            self._kinds.clear()
            self._total_records = 0
            self.stats = CacheStats()

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Flush and release the file handles and writer lock.  Idempotent.

        With ``compact_ratio`` set, a log that accumulated too much dead
        weight is compacted on the way out, so the next opener recovers a
        minimal log instead of replaying superseded records.
        """
        with self._lock:
            if not self._appender.closed and self._needs_compaction():
                self.compact()
            for handle in (self._appender, self._reader):
                try:
                    handle.close()
                except ValueError:  # pragma: no cover - already closed
                    pass
            self._release_writer_lock()

    def __enter__(self) -> "DiskTier":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._offsets

    def __len__(self) -> int:
        with self._lock:
            return len(self._offsets)


def _record_bytes(record: dict[str, Any]) -> bytes:
    """One log line: compact separators, no embedded newlines, newline end.

    ``allow_nan=False`` keeps every record strict standard JSON — the wire
    codecs encode non-finite floats as sentinel strings, and a bare
    ``Infinity``/``NaN`` token reaching this point is a codec bug worth an
    exception, not a silently unparseable log.
    """
    return json.dumps(record, separators=(",", ":"), allow_nan=False).encode() + b"\n"


# -------------------------------------------------------------------- composite


@dataclass
class TieredStats:
    """Counters of a :class:`TieredPlanCache`, CacheStats-compatible.

    ``hits``/``misses``/``evictions``/``hit_rate`` mean what they mean on
    :class:`~repro.service.cache.CacheStats` (so gateway aggregation and
    every existing dashboard keep working); the extra counters break the
    hits down by tier and expose the data movement between them.
    ``evictions`` counts entries that left the *composite* entirely —
    a memory eviction whose entry remains on disk is a ``demotion``, not a
    loss.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Disk hits copied up into the memory tier.
    promotions: int = 0
    #: Memory evictions whose entry remains on disk.
    demotions: int = 0
    #: Entries written to the disk tier (one per put).
    disk_writes: int = 0
    #: Entries removed by provenance-predicate invalidation.
    invalidated: int = 0

    @property
    def hits(self) -> int:
        """Lookups answered from either tier."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0


class TieredPlanCache:
    """Memory-over-disk composite cache, write-through with promote-on-hit.

    Lookup order is memory first, then disk; a disk hit is promoted into
    memory (whenever ``memory_capacity > 0``) so the hot set migrates back
    up after a restart.  Every put lands on disk immediately, so a memory
    eviction is pure accounting: the entry is already durable, and the
    pairs :meth:`MemoryTier.put` returns are counted as demotions (as
    losses when there is no disk tier).

    All hit/miss/eviction accounting lives in this composite's
    :class:`TieredStats`; the wrapped tiers' own counters are not consulted
    (the composite uses their stat-free operations), so one logical lookup
    is classified exactly once no matter how many tiers it touched.

    :meth:`peek` is memory-only and I/O-free by contract — it is what the
    service's batch dedup and the gateway's singleflight call while holding
    their own locks.  :meth:`get`/:meth:`probe` may read disk and must be
    called unlocked (the gateway does).
    """

    def __init__(
        self, memory_capacity: int = 256, disk: DiskTier | None = None
    ) -> None:
        self.disk = disk
        self.capacity = memory_capacity
        self.stats = TieredStats()
        self._lock = threading.RLock()
        self.memory: MemoryTier[CacheEntry] = MemoryTier(capacity=memory_capacity)

    # ----------------------------------------------------------------- lookups

    def get(self, key: str) -> CacheEntry | None:
        """Memory, then disk (promoting), counting one hit or miss total."""
        value = self.probe(key)
        if value is None:
            with self._lock:
                self.stats.misses += 1
        return value

    def probe(self, key: str) -> CacheEntry | None:
        """Like :meth:`get` but an absent key counts nothing."""
        value = self.memory.touch(key)
        if value is not None:
            with self._lock:
                self.stats.memory_hits += 1
            return value
        return self._disk_read(key)

    def _disk_read(self, key: str) -> CacheEntry | None:
        """Stat-free disk read plus promotion and disk-hit accounting."""
        if self.disk is None:
            return None
        value = self.disk.peek(key)
        if value is None:
            return None
        promoted = self.capacity > 0
        demoted = len(self.memory.put(key, value)) if promoted else 0
        with self._lock:
            self.stats.disk_hits += 1
            self.stats.promotions += promoted
            self.stats.demotions += demoted
        return value

    def peek(self, key: str) -> CacheEntry | None:
        """Memory-resident value only; never touches disk or statistics."""
        return self.memory.peek(key)

    # ------------------------------------------------------------------ writes

    def put(self, key: str, value: CacheEntry) -> None:
        """Write through to disk, then insert into memory."""
        if self.disk is not None:
            self.disk.put(key, value)
        evicted = len(self.memory.put(key, value))
        with self._lock:
            if self.disk is None:
                self.stats.evictions += evicted
            else:
                self.stats.disk_writes += 1
                self.stats.demotions += evicted

    def evict(self, key: str) -> bool:
        """Drop ``key`` from both tiers; counted once if either held it."""
        dropped_memory = self.memory.evict(key)
        dropped_disk = self.disk.evict(key) if self.disk is not None else False
        if dropped_memory or dropped_disk:
            with self._lock:
                self.stats.evictions += 1
            return True
        return False

    # ------------------------------------------------------- snapshot shipping

    def keys(self) -> list[str]:
        """Distinct live keys across both tiers, sorted."""
        resident = set(self.memory.keys())
        if self.disk is not None:
            resident.update(self.disk.keys())
        return sorted(resident)

    def export_records(self, keys: Iterable[str] | None = None) -> list[dict[str, Any]]:
        """Stat-free wire records for live entries (disk first, then memory).

        The disk tier serves what it holds verbatim (no decode/re-encode
        round trip); entries resident only in memory — a disk-less cache —
        are encoded on the fly.
        The result is the same ``put``-record form as
        :meth:`DiskTier.export_records`, sorted by key.
        """
        records: dict[str, dict[str, Any]] = {}
        if self.disk is not None:
            for record in self.disk.export_records(keys):
                records[record["k"]] = record
        wanted = list(self.memory.keys()) if keys is None else list(keys)
        for key in wanted:
            if key in records:
                continue
            entry = self.memory.peek(key)
            if entry is not None:
                records[key] = {"t": "put", "k": key, "entry": entry_to_wire(entry)}
        return [records[key] for key in sorted(records)]

    def import_records(self, records: Iterable[dict[str, Any]]) -> int:
        """Merge shipped ``put`` records through the normal write path.

        Each entry goes through :meth:`put`, so an imported entry is durable
        in the disk log before this returns, which is what lets a rebalanced
        key's new owner restart and still serve it from cache.
        """
        imported = 0
        for record in records:
            if record.get("t") != "put":
                continue
            self.put(record["k"], entry_from_wire(record["entry"]))
            imported += 1
        return imported

    # ------------------------------------------------------------- invalidation

    def invalidate(self, predicate: InvalidationPredicate) -> list[str]:
        """Remove every entry (both tiers) whose provenance matches.

        Returns the removed keys.  Memory entries are checked against their
        own carried provenance, disk entries against the provenance index,
        so an entry resident in both tiers cannot survive in one of them
        and "selective" stays selective after promotions and demotions.
        """
        doomed: set[str] = set()
        if self.disk is not None:
            doomed.update(self.disk.invalidate(predicate))
        for key in self.memory.keys():
            entry = self.memory.peek(key)
            if entry is not None and predicate.matches(entry.provenance):
                doomed.add(key)
        for key in doomed:
            self.memory.evict(key)
        with self._lock:
            self.stats.invalidated += len(doomed)
            self.stats.evictions += len(doomed)
        return sorted(doomed)

    # ------------------------------------------------------------------- stats

    def reclassify_miss_as_hit(self) -> None:
        """Recount one earlier miss as a (memory) hit; never goes negative."""
        with self._lock:
            if self.stats.misses > 0:
                self.stats.misses -= 1
            self.stats.memory_hits += 1

    def snapshot(self) -> TieredStats:
        """A consistent copy of the composite counters."""
        with self._lock:
            return replace(self.stats)

    def snapshot_with_size(self) -> tuple[TieredStats, int]:
        """Counters plus distinct resident keys across both tiers."""
        with self._lock:
            return replace(self.stats), len(self)

    def clear(self) -> None:
        """Drop all entries in both tiers and reset statistics."""
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()
        with self._lock:
            self.stats = TieredStats()

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the disk tier's file handles (memory needs no teardown)."""
        if self.disk is not None:
            self.disk.close()

    def __contains__(self, key: str) -> bool:
        if key in self.memory:
            return True
        return self.disk is not None and key in self.disk

    def __len__(self) -> int:
        if self.disk is None:
            return len(self.memory)
        return len(set(self.memory.keys()) | set(self.disk.keys()))


def shard_cache_factory(
    cache_dir: str | os.PathLike, memory_capacity: int
) -> Callable[[int], TieredPlanCache]:
    """A gateway ``cache_factory``: shard ``i`` persists to ``shard-<i>.log``.

    The one place the per-shard log naming lives — what ``serve-batch
    --cache-dir``, a shard server and a supervised fleet must agree on for
    a restart (or a differently-fronted invocation) to come back warm.
    """

    def open_shard(index: int) -> TieredPlanCache:
        return TieredPlanCache(
            memory_capacity=memory_capacity,
            disk=DiskTier(Path(cache_dir) / f"shard-{index}.log"),
        )

    return open_shard
