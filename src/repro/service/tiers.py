"""The plan cache: its entries, their codec, the disk tier and the cache.

The service caches the master's final plans per fingerprint.  This module
holds everything about keeping them:

* :class:`CacheEntry` — what one fingerprint's slot retains (plans in
  canonical numbering, provenance), with :func:`entry_to_wire` /
  :func:`entry_from_wire` as its JSON codec;
* :class:`DiskTier` — an append-only log of serialized entries with an
  in-memory offset index.  Appends are O(1) writes; reads are one seek plus
  one record decode; deletions are tombstone records; restart recovery is a
  single forward scan that also truncates a torn tail (a crash mid-append
  loses at most the last record, never the log).  Every record carries the
  entry's :class:`~repro.service.provenance.Provenance`, so
  :meth:`DiskTier.invalidate` retires exactly the entries an
  :class:`~repro.service.provenance.InvalidationPredicate` names, and
  snapshots (:meth:`DiskTier.export_snapshot`) are self-describing files
  shippable between shards.  It keeps no counters;
* :class:`TieredPlanCache` — the one cache class: a bounded LRU in memory,
  optionally over a :class:`DiskTier` it writes through to (every entry
  persists at put time, so a crash loses nothing acknowledged) and whose
  hits it promotes back into memory.  A disk hit is a cache hit that no DP
  run is ever spent on, restart or not; :class:`CacheStats` counts both.

Locking: the cache's LRU and counters share one lock, and the disk tier
locks its own state.  The cache's :meth:`~TieredPlanCache.peek` is
memory-only (never I/O), which is what lets the sharded gateway keep its
singleflight bookkeeping under its own lock without ever holding that lock
across a disk read — :meth:`~TieredPlanCache.get` and
:meth:`~TieredPlanCache.probe`, which may touch disk, are called by the
gateway *outside* its lock.
"""

from __future__ import annotations

import io
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.cluster.serialization import plans_from_wire, plans_to_wire
from repro.core.envelope import EnvelopeIndex, best_index_at
from repro.plans.plan import Plan
from repro.service.provenance import InvalidationPredicate, Provenance
from repro.util.readers import MISSING, read, read_int

#: First line of every log and snapshot file; readers reject other formats.
LOG_MAGIC = {"t": "header", "format": "repro-plan-cache", "version": 1}

#: ``CacheEntry.kind`` values: a scalar entry caches one optimization's
#: plan frontier; an envelope entry caches a parametric run's whole
#: lower-envelope frontier plus its breakpoint index, so every θ of the
#: query shape is answered from the one entry.
SCALAR_ENTRY = "scalar"
ENVELOPE_ENTRY = "envelope"


class DiskTierLockedError(RuntimeError):
    """The log is already open for writing in another process.

    The log format is single-writer: interleaved appends from two processes
    (say, ``cache invalidate`` against a directory a live ``serve-batch``
    is using) would corrupt records.  Each :class:`DiskTier` therefore holds
    an exclusive advisory lock for the lifetime of its handles, and a
    second opener fails fast with this error instead of silently writing.
    """


# ------------------------------------------------------------------------ entry


@dataclass
class CacheEntry:
    """What the cache retains per fingerprint: plans in canonical numbering.

    Storing plans canonically (rather than in the first requester's
    numbering) makes serving any isomorphic request a single remap; the
    entry's one timing is the original run's measured slowest-partition
    ``wall_time_s`` in ``provenance.worker_stats``.  Public because the
    sharded gateway (:mod:`repro.service.gateway`) hands entries from a
    completed in-flight run directly to coalesced waiters.

    An entry is the cache's unit of *derived artifact*, not necessarily a
    single answer: an :data:`ENVELOPE_ENTRY` stores a parametric run's full
    lower-envelope frontier plus its breakpoint index, from which a
    θ-specific request is answered by O(log n) lookup
    (:meth:`select_index`) instead of a DP run.

    Beside the canonical plans an entry carries two render-once memos
    (``render_memo`` for in-process answers, ``wire_memo`` for the shard
    server's encoded ones), so a repeat in the same numbering costs a dict
    probe, not a plan-tree rebuild.  Neither is state of the cached
    artifact: both are excluded from ``init``, ``repr`` and equality.
    """

    canonical_plans: list[Plan]
    n_partitions: int
    #: Enumeration backend that computed the cached plans; replayed on hits
    #: so a cached answer stays attributable to the core that produced it.
    backend_used: str = ""
    #: How this entry came to be (backend, resolved settings signature,
    #: creation time, aggregated worker stats).  What a
    #: persistent tier persists alongside the plans, and what invalidation
    #: predicates evaluate against.  ``None`` only for hand-built entries.
    provenance: Provenance | None = None
    #: :data:`SCALAR_ENTRY` or :data:`ENVELOPE_ENTRY`.
    kind: str = SCALAR_ENTRY
    #: Breakpoint index over ``canonical_plans`` for envelope entries.
    envelope: EnvelopeIndex | None = None
    #: The shard server's encoded canonical answers, one per selected plan
    #: (:meth:`repro.service.server.ShardServer._lookup_frame`).  It rides
    #: the entry object so it dies with it: an entry that is invalidated,
    #: re-run, re-read from disk or imported is a new object with an empty
    #: memo (``init=False`` keeps ``dataclasses.replace`` from sharing one).
    wire_memo: dict[int | None, bytes] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: :meth:`OptimizerService.answer`'s rendered plans, by θ slot (``None``,
    #: or :meth:`select_index`'s result): ``(numbering, plans)`` for the last
    #: numbering that slot was relabelled into.  Same lifetime as
    #: ``wire_memo``, and at most one rendered copy per slot: the asyncio
    #: door's edge memo keeps its answers per numbering, so a one-off
    #: relabelling does not evict the hot numbering's answer there (a
    #: threaded-door A, B, A renders A twice).  Unlocked on purpose: a slot
    #: is replaced by one dict store of a complete pair, and a reader
    #: compares against the pair it fetched, so racing renders cost a
    #: duplicate relabel, never a wrong answer.
    render_memo: dict[int | None, tuple[tuple[int, ...], list[Plan]]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def select_index(self, theta: float) -> int:
        """Position of the θ-optimal plan in ``canonical_plans``.

        Envelope entries bisect their breakpoint index; an entry without
        one (a scalar-kind parametric entry from a pre-envelope log) falls
        back to the linear reference rule — same selection, just O(n).
        """
        costs = [plan.cost for plan in self.canonical_plans]
        if self.envelope is not None:
            return self.envelope.select(costs, theta)
        return best_index_at(costs, theta)


# ------------------------------------------------------------------ entry codec


def entry_to_wire(entry: CacheEntry) -> dict[str, Any]:
    """JSON-compatible encoding of a cache entry (plans and provenance).

    Envelope entries additionally carry their ``kind`` and the breakpoint
    index (:meth:`~repro.core.envelope.EnvelopeIndex.to_wire`) — the
    breakpoints are *shipped*, not recomputed on decode, so both sides of a
    disk or network round trip bind every θ to the same segment.  Scalar
    entries omit both fields, keeping pre-envelope logs byte-compatible.
    """
    wire = {
        "plans": plans_to_wire(entry.canonical_plans),
        "n_partitions": entry.n_partitions,
        "backend_used": entry.backend_used,
        "provenance": entry.provenance.to_wire() if entry.provenance else None,
    }
    if entry.kind != SCALAR_ENTRY:
        wire["kind"] = entry.kind
    if entry.envelope is not None:
        wire["envelope"] = entry.envelope.to_wire()
    return wire


def entry_from_wire(data: dict[str, Any], provenance: Any = MISSING) -> CacheEntry:
    """Rebuild a cache entry from :func:`entry_to_wire` output.

    Keys this version does not read are ignored: records written by older
    versions also carry a modelled ``"simulated"`` cluster timing, and
    decode unchanged.  A given ``provenance`` is the entry's, already
    decoded (the disk tier's index holds it), and the record's copy is not
    read again.
    """
    if provenance is MISSING:
        provenance = read(data, "provenance", dict, None)
        provenance = None if provenance is None else Provenance.from_wire(provenance)
    envelope = read(data, "envelope", dict, None)
    entry = CacheEntry(
        canonical_plans=plans_from_wire(read(data, "plans", list)),
        n_partitions=read_int(data, "n_partitions", low=1),
        backend_used=read(data, "backend_used", str, ""),
        provenance=provenance,
        kind=read(data, "kind", str, SCALAR_ENTRY),
        envelope=None if envelope is None else EnvelopeIndex.from_wire(envelope),
    )
    plans = len(entry.canonical_plans)
    if envelope is not None and not all(0 <= owner < plans for owner in entry.envelope.segments):
        raise ValueError(f"envelope segments {entry.envelope.segments} name plans past {plans}")
    return entry


def decode_put_record(record: dict[str, Any], provenance: Any = MISSING) -> tuple[str, CacheEntry]:
    """The key and decoded entry of one ``put`` record.

    ``provenance`` is passed to :func:`entry_from_wire`.  Raises
    ``ValueError`` naming the key when the record is malformed.
    """
    key = read(record, "k", str)
    if read(record, "t", str) != "put":
        raise ValueError(f"plan-cache record for key {key!r} is not a put")
    try:
        return key, entry_from_wire(read(record, "entry", dict), provenance)
    except ValueError as error:
        raise ValueError(f"malformed plan-cache record for key {key!r}: {error}") from None


def decode_put_records(
    records: Iterable[Any],
) -> list[tuple[dict[str, Any], str, CacheEntry]]:
    """``(record, key, entry)`` for every ``put`` record a shipment leaves live.

    Records apply in order, as a log's do when it is opened: a later ``put``
    supersedes an earlier one for its key and a ``del`` retires it, so a log
    shipped whole yields exactly the entries it serves, never one it
    evicted or invalidated.  Other record types are skipped.  A record that
    is not a JSON object raises ``ValueError`` naming its position, a
    malformed live ``put`` one naming its key, so an importer refuses a bad
    shipment before it stores any of it.
    """
    live: dict[str, dict[str, Any]] = {}
    for position, record in enumerate(records, start=1):
        if type(record) is not dict:
            raise ValueError(f"plan-cache record {position} is not a JSON object: {record!r:.80}")
        record_type = record.get("t")
        if record_type == "put":
            live[read(record, "k", str)] = record
        elif record_type == "del":
            live.pop(read(record, "k", str), None)
    return [(record, *decode_put_record(record)) for record in live.values()]


# -------------------------------------------------------------------- disk tier


class DiskTier:
    """Append-only persistent store of cache entries with an offset index.

    The log holds one JSON record per line: a header, then ``put`` records
    (key, serialized entry) and ``del`` tombstones.  The index maps each
    live key to the byte offset of its latest ``put`` record and keeps the
    record's :class:`Provenance` resident, so invalidation predicates
    evaluate without touching the file and :meth:`entries` can enumerate
    provenance cheaply.  Superseded and tombstoned records stay in the log
    until an explicit :meth:`compact` rewrites it; opening or closing a
    log never does.

    ``sync=True`` fsyncs after every append (durable against power loss,
    slow); the default flushes to the OS only, which survives process
    crashes — the failure mode restarts actually come from.

    The tier keeps no hit or miss counters: :class:`TieredPlanCache` reads
    it through :meth:`peek` and classifies every lookup itself, once.

    Records are decoded when read, not at open, so a log that holds a
    malformed ``put`` record (written by hand, or by an older importer)
    still opens at full speed.  :meth:`peek` retires such a record when it
    meets it: it appends a ``del`` tombstone, drops the key from the index
    and returns ``None``, so the lookup is a miss and the next run of that
    query overwrites the key instead of failing on it for good.  Exports,
    snapshots and compaction decode each record they ship or keep and
    retire it the same way, so none of them passes one on.

    A ``put`` record is ``{"t": "put", "k": <fingerprint>, "entry": {...}}``
    (:func:`entry_to_wire`), each of whose ``plans`` is a JSON array of flat
    node rows (:func:`~repro.cluster.serialization.plan_to_wire`); a plan
    that is a JSON object is the nested form older versions wrote, and still
    reads.
    """

    def __init__(self, path: str | os.PathLike, sync: bool = False) -> None:
        self.path = Path(path)
        self.sync = sync
        self._lock = threading.RLock()
        #: Each live key's ``(offset of its put record, provenance, kind)``.
        self._index: dict[str, tuple[int, Provenance | None, str]] = {}
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
        """Rebuild the index by one forward scan; truncate any torn tail.

        A parsed line that is not a well-formed ``put`` or ``del`` never
        fails the open: it is dead weight, which :meth:`compact` drops.
        A ``put`` whose entry, provenance or kind does not decode unindexes
        its key, which then reads as a miss.  No plan is decoded here.
        """
        if not self.path.exists():
            with open(self.path, "wb") as fresh:
                fresh.write(_record_bytes(LOG_MAGIC))
            return
        good_end = 0
        with open(self.path, "rb") as log:
            _check_header(log.readline(), f"{self.path} is not a plan-cache log")
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
                try:
                    key, record_type = read(record, "k", str), read(record, "t", str)
                except ValueError:
                    continue
                if record_type == "del":
                    self._index.pop(key, None)
                elif record_type == "put":
                    try:
                        entry = read(record, "entry", dict)
                        provenance = read(entry, "provenance", dict, None)
                        provenance = None if provenance is None else Provenance.from_wire(provenance)
                        self._index[key] = (offset, provenance, read(entry, "kind", str, SCALAR_ENTRY))
                    except ValueError:
                        self._index.pop(key, None)
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
        return offset

    def peek(self, key: str) -> CacheEntry | None:
        """Read the live entry for ``key`` (one disk read), or ``None``.

        A record that does not decode is tombstoned and reads as ``None``
        (see the class docstring).  The entry's provenance is the one the
        index holds, not decoded again.
        """
        with self._lock:
            read = self._read(key) if key in self._index else None
            return None if read is None else read[2]

    def _read(self, key: str) -> tuple[bytes, dict[str, Any], CacheEntry] | None:
        """Live ``key``'s line, record and entry; ``None`` after tombstoning
        a record that does not decode.  Caller holds the lock."""
        offset, provenance, __ = self._index[key]
        self._reader.seek(offset)
        line = self._reader.readline()
        try:
            record = json.loads(line.decode())  # str parses faster than bytes
            return line, record, decode_put_record(record, provenance)[1]
        except ValueError:
            self._tombstone(key)
            return None

    def put(self, key: str, entry: CacheEntry) -> bool:
        """Append the entry; returns whether it superseded a live record."""
        record = {"t": "put", "k": key, "entry": entry_to_wire(entry)}
        with self._lock:
            replaced = key in self._index
            self._store(key, record, entry)
            return replaced

    def _store(self, key: str, record: dict[str, Any], entry: CacheEntry) -> None:
        """Append ``key``'s put record and index it.  Caller holds the lock."""
        self._index[key] = (self._append(record), entry.provenance, entry.kind)

    def _tombstone(self, key: str) -> None:
        """Append ``key``'s ``del`` record and unindex it.  Caller holds the lock."""
        self._append({"t": "del", "k": key})
        del self._index[key]

    def evict(self, key: str) -> bool:
        """Tombstone ``key``; returns whether it was live."""
        with self._lock:
            if key not in self._index:
                return False
            self._tombstone(key)
            return True

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
                for key, (__, provenance, __kind) in self._index.items()
                if predicate.matches(provenance)
            ]
            for key in doomed:
                self._tombstone(key)
            return doomed

    # -------------------------------------------------------------- inspection

    def keys(self) -> list[str]:
        """Live keys (a consistent copy)."""
        with self._lock:
            return list(self._index)

    def entries(self) -> Iterator[tuple[str, Provenance | None, str]]:
        """Iterate ``(key, provenance, kind)`` over live entries, index order."""
        with self._lock:
            items = [(key, provenance, kind) for key, (__, provenance, kind) in self._index.items()]
        yield from items

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
        A record that does not decode is tombstoned and left out, as
        :meth:`peek` does, so no shipment carries one.
        """
        with self._lock:
            return [record for __, record, __entry in self._live_reads(keys)]

    def _live_reads(self, keys: Iterable[str] | None) -> Iterator[tuple[bytes, dict, CacheEntry]]:
        """:meth:`_read` of each live key in ``keys`` (default: all), in log
        order, skipping the ones it retires.  Caller holds the lock."""
        wanted = self._index if keys is None else set(keys) & self._index.keys()
        for __, key in sorted((self._index[key][0], key) for key in wanted):
            read = self._read(key)
            if read is not None:
                yield read

    def import_records(
        self, records: Iterable[dict[str, Any]], overwrite: bool = True
    ) -> int:
        """Merge ``put`` records (log-line form) into this tier; returns count.

        The append path is identical to :meth:`put` — each record lands in
        the log and the offset/provenance indexes — so imported entries are
        durable and survive this process exactly like locally computed
        ones.  Only the ``put`` records the shipment leaves live are merged
        (:func:`decode_put_records`).

        Every one of them is decoded before anything is appended: a
        malformed one raises ``ValueError`` and leaves the log and its index
        as they were, instead of storing a record no later read could
        decode.
        """
        puts = decode_put_records(records)
        imported = 0
        with self._lock:
            for record, key, entry in puts:
                if overwrite or key not in self._index:
                    self._store(key, record, entry)
                    imported += 1
        return imported

    def export_snapshot(self, path: str | os.PathLike) -> int:
        """Write a compacted copy of the live entries; returns entry count.

        The snapshot is itself a valid tier log (header plus ``put``
        records only), so it can be opened directly as a :class:`DiskTier`
        on another shard or imported into an existing one.  A destination
        that is this log itself raises ``ValueError``: writing it would
        empty the log before its records were read back.  A record that
        does not decode is tombstoned and left out, as :meth:`peek` does.
        """
        destination = Path(path)
        if destination.exists() and os.path.samefile(destination, self.path):
            raise ValueError(f"cannot export {self.path} onto itself")
        destination.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            with open(destination, "wb") as snapshot:
                snapshot.write(_record_bytes(LOG_MAGIC))
                snapshot.writelines(line for line, __, __entry in self._live_reads(None))
            return len(self._index)  # what is left once the export retired the rest

    def import_snapshot(
        self, path: str | os.PathLike, overwrite: bool = True
    ) -> int:
        """Merge a snapshot's entries into this tier; returns imported count.

        With ``overwrite=False`` keys already live here are kept as-is
        (merge semantics for unioning shard snapshots); the default lets
        the snapshot win.  A log given as the source imports its live
        entries only: its ``del`` records retire the ``put`` records before
        them, so a key it evicted or invalidated is not brought back.  Its
        tombstones never remove a key live here.
        """
        with open(path, "rb") as snapshot:
            _check_header(snapshot.readline(), f"{path} is not a plan-cache snapshot")
            records = [json.loads(line) for line in snapshot]
        return self.import_records(records, overwrite=overwrite)

    def compact(self) -> int:
        """Rewrite the log with live records only; returns bytes reclaimed.

        A ``put`` that does not decode is retired, not copied (see
        :meth:`export_snapshot`).

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
                    self._index.clear()
                    self._recover()
                finally:
                    # Whatever happened above — swap refused, recovery
                    # failed — the tier must come back with open handles, or
                    # every later get/put dies on a closed file.
                    self._appender = open(self.path, "ab")
                    self._reader = open(self.path, "rb")
                    replacement.unlink(missing_ok=True)
            return before - self._appender.tell()

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Flush and release the file handles and writer lock.  Idempotent."""
        with self._lock:
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
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)


def _check_header(line: bytes, refusal: str) -> None:
    """Refuse a log or snapshot whose first line is not this format's header."""
    try:
        found = read(json.loads(line), "format", str)
    except ValueError as error:
        raise ValueError(f"{refusal}: {error}") from None
    if found != LOG_MAGIC["format"]:
        raise ValueError(f"{refusal} (format {found!r})")


def _record_bytes(record: dict[str, Any]) -> bytes:
    """One log line: compact separators, no embedded newlines, newline end.

    ``allow_nan=False`` keeps every record strict standard JSON — the wire
    codecs encode non-finite floats as sentinel strings, and a bare
    ``Infinity``/``NaN`` token reaching this point is a codec bug worth an
    exception, not a silently unparseable log.
    """
    return json.dumps(record, separators=(",", ":"), allow_nan=False).encode() + b"\n"


# ------------------------------------------------------------------------ cache


@dataclass
class CacheStats:
    """Counters of a :class:`TieredPlanCache` since construction.

    ``hits`` counts lookups answered from either tier, ``disk_hits`` those
    of them read from the disk tier.  ``evictions`` counts entries that
    left the cache entirely: a memory eviction whose entry remains on disk
    is a ``demotion``, not a loss.  Fields only, so ``dataclasses.asdict``
    is the JSON form.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Hits read from the disk tier.
    disk_hits: int = 0
    #: Disk hits copied up into memory.
    promotions: int = 0
    #: Memory evictions whose entry remains on disk.
    demotions: int = 0
    #: Entries written to the disk tier (one per put).
    disk_writes: int = 0
    #: Entries removed by provenance-predicate invalidation.
    invalidated: int = 0

    @property
    def memory_hits(self) -> int:
        """Hits answered from memory."""
        return self.hits - self.disk_hits

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0


class TieredPlanCache:
    """The plan cache: a bounded in-memory LRU over an optional disk tier.

    Lookup order is memory, then disk.  A disk hit is promoted into memory
    (whenever ``memory_capacity > 0``) so the hot set migrates back up after
    a restart.  Every put lands on disk first (write-through), so a memory
    eviction is pure accounting: the entry is already durable, and it is
    counted as a demotion — or, without a disk tier, as an eviction.

    ``memory_capacity=0`` keeps nothing in memory.  Without a disk tier,
    every lookup then misses and every put is dropped on the floor (counted
    as an eviction), which is the supported way to run a service or gateway
    uncached.

    The LRU and its :class:`CacheStats` share one lock, so a memory hit is
    one lock hold, one ``move_to_end`` and one counter increment, and every
    lookup is classified exactly once.  :meth:`peek` is memory-only and
    I/O-free by contract — the service's batch dedup and the gateway's
    singleflight call it while holding their own locks.  Disk reads and
    writes run outside this lock (the disk tier locks its own state), so
    :meth:`get`/:meth:`probe` may do I/O and must be called unlocked (the
    gateway does).

    ``generation`` counts the changes that retire a live entry: an
    :meth:`evict` that dropped something, an :meth:`invalidate` that removed
    any key, and a :meth:`put` (or import) that replaced a live key.
    Promotion, demotion and LRU drops leave it alone — the entry is still
    live in some tier.  A memo of answers built from this cache stores the
    generation it read *before* its lookup and treats a mismatch as a miss,
    so no answer outlives its entry.  The cache reads it the same way around
    its own disk steps: a lookup promotes what it read from disk, and a put
    inserts into memory, only if the generation has not moved since the
    call began — a retirement in between may have tombstoned that record
    (a spurious skip only costs a later disk hit).  :meth:`evict` and
    :meth:`invalidate` change the disk tier first and memory second, so a
    promotion that slipped in before their memory step is popped there.
    """

    def __init__(
        self, memory_capacity: int = 256, disk: DiskTier | None = None
    ) -> None:
        if memory_capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {memory_capacity}")
        self.capacity = memory_capacity
        self.disk = disk
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.generation = 0

    # ----------------------------------------------------------------- lookups

    def get(self, key: str) -> CacheEntry | None:
        """Memory, then disk (promoting); counts one hit or one miss."""
        return self._lookup(key, miss=1)

    def probe(self, key: str) -> CacheEntry | None:
        """Like :meth:`get`, but an absent key is *not* counted as a miss.

        For opportunistic fast-path probes that fall back to a full,
        miss-counting lookup: counting the probe *and* the later real lookup
        would double-count one logical miss, breaking the
        ``misses == optimizations`` accounting identity.
        """
        return self._lookup(key, miss=0)

    def _lookup(self, key: str, miss: int) -> CacheEntry | None:
        """Memory, then disk (promoting); an absent key adds ``miss`` to the
        misses."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            generation = self.generation
        entry = None if self.disk is None else self.disk.peek(key)
        with self._lock:
            if entry is None:
                self.stats.misses += miss
                return None
            self.stats.hits += 1
            self.stats.disk_hits += 1
            # A retirement since the memory miss may be this key's: then the
            # disk read is stale, and promoting it would bring the key back.
            if self.capacity and self.generation == generation:
                self.stats.promotions += 1
                self.stats.demotions += self._insert(key, entry)
        return entry

    def peek(self, key: str) -> CacheEntry | None:
        """Memory-resident value only; never touches recency, disk or stats."""
        with self._lock:
            return self._entries.get(key)

    # ------------------------------------------------------------------ writes

    def put(self, key: str, value: CacheEntry) -> None:
        """Write through to disk, then insert into memory — unless a
        retirement landed in between, which may have tombstoned this write."""
        generation = self.generation
        replaced = self.disk is not None and self.disk.put(key, value)
        with self._lock:
            current = self.disk is None or self.generation == generation
            if self._entries.pop(key, None) is not None or replaced:
                self.generation += 1
            dropped = self._insert(key, value) if current else 0
            if self.disk is None:
                self.stats.evictions += dropped
            else:
                self.stats.disk_writes += 1
                self.stats.demotions += dropped

    def _insert(self, key: str, value: CacheEntry) -> int:
        """Insert as most recent, trim to capacity; returns entries dropped.

        Caller holds the lock.
        """
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        dropped = 0
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            dropped += 1
        return dropped

    def evict(self, key: str) -> bool:
        """Drop ``key`` from both tiers; counted once if either held it.

        Disk first, as :meth:`invalidate` does: a lookup that read the disk
        record before the tombstone either promoted it before the memory
        pop below, or sees the generation bump and does not promote.
        """
        dropped = self.disk is not None and self.disk.evict(key)
        with self._lock:
            if self._entries.pop(key, None) is not None or dropped:
                self.stats.evictions += 1
                self.generation += 1
                return True
        return False

    # ------------------------------------------------------- snapshot shipping

    def keys(self) -> list[str]:
        """Distinct live keys across both tiers, sorted."""
        with self._lock:
            resident = set(self._entries)
        if self.disk is not None:
            resident.update(self.disk.keys())
        return sorted(resident)

    def export_records(self, keys: Iterable[str] | None = None) -> list[dict[str, Any]]:
        """Stat-free ``put`` records for live entries (default: all), by key.

        With a disk tier, the disk tier serves what it holds verbatim (no
        decode/re-encode round trip): every put writes through, so memory
        holds nothing the log does not.  Without one, the memory entries are
        encoded into the same log-line form as :meth:`DiskTier.export_records`.
        Unknown keys are skipped.
        """
        if self.disk is not None:
            return sorted(self.disk.export_records(keys), key=lambda record: record["k"])
        with self._lock:
            wanted = self._entries.keys() if keys is None else self._entries.keys() & set(keys)
            resident = [(key, self._entries[key]) for key in sorted(wanted)]
        return [{"t": "put", "k": key, "entry": entry_to_wire(entry)} for key, entry in resident]

    def import_records(self, records: Iterable[dict[str, Any]]) -> int:
        """Merge shipped ``put`` records through :meth:`put`; returns count.

        The records the shipment leaves live (:func:`decode_put_records`)
        are all decoded before any is stored, so a malformed one raises
        ``ValueError`` and imports nothing.  Each entry is durable in the
        disk log before this returns, which is what lets a rebalanced key's
        new owner restart and still serve it.
        """
        decoded = decode_put_records(records)
        for __, key, entry in decoded:
            self.put(key, entry)
        return len(decoded)

    # ------------------------------------------------------------- invalidation

    def invalidate(self, predicate: InvalidationPredicate) -> list[str]:
        """Remove every entry (both tiers) whose provenance matches.

        Returns the removed keys.  Memory entries are checked against their
        own carried provenance, disk entries against the provenance index,
        so an entry resident in both tiers cannot survive in one of them
        and "selective" stays selective after promotions and demotions.
        """
        doomed = set() if self.disk is None else set(self.disk.invalidate(predicate))
        with self._lock:
            doomed.update(
                key
                for key, entry in self._entries.items()
                if predicate.matches(entry.provenance)
            )
            for key in doomed:
                self._entries.pop(key, None)
            self.stats.invalidated += len(doomed)
            self.stats.evictions += len(doomed)
            self.generation += bool(doomed)
        return sorted(doomed)

    # ------------------------------------------------------------------- stats

    def reclassify_miss_as_hit(self) -> None:
        """Recount one earlier miss as a (memory) hit.

        Used when a lookup that missed was nevertheless answered without a
        fresh optimization — a duplicate within a batch, or a request
        coalesced onto an in-flight run — so the operator-facing hit rate
        agrees with the ``cached`` flags on the results.  Every caller
        reclassifies a miss its own ``get`` counted, and nothing resets the
        counters, so ``misses`` never goes negative.
        """
        with self._lock:
            self.stats.misses -= 1
            self.stats.hits += 1

    def snapshot(self) -> CacheStats:
        """A consistent copy of the counters (safe under concurrency)."""
        with self._lock:
            return replace(self.stats)

    def snapshot_with_size(self) -> tuple[CacheStats, int]:
        """Counters plus distinct resident keys across both tiers, untorn."""
        with self._lock:
            return replace(self.stats), self._size()

    def _size(self) -> int:
        """Distinct live keys across both tiers.  Caller holds the lock."""
        if self.disk is None:
            return len(self._entries)
        return len(self._entries.keys() | self.disk.keys())

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the disk tier's file handles (memory needs no teardown)."""
        if self.disk is not None:
            self.disk.close()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return self.disk is not None and key in self.disk

    def __len__(self) -> int:
        with self._lock:
            return self._size()


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
