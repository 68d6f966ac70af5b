"""The plan cache against a model, under generated schedules.

A Hypothesis state machine drives one :class:`TieredPlanCache` (two memory
slots) over a :class:`DiskTier` in a per-example temp dir, through every
way the cache is used or abused: puts, lookups, evictions, invalidation,
compaction, reopening, shipping its records or its log to a second tier,
a malformed line appended to the log, a tail torn at any byte, and a second
writer.

The model is the log as a list of records, each what one line of the file
means: a ``put`` (key, the entry's wire form, its provenance), a ``del``,
or dead weight.  Replaying it the way an open does gives the live index,
so compaction, truncation and imports need no rules of their own.  A
``put`` whose wire form is ``None`` is poisoned: the log indexes it, but
its entry does not decode, and the first read, export or compaction that
meets it retires it with a ``del``.  Beside the log the model keeps the memory
tier's LRU order, so it knows whether each lookup is a memory hit, a disk
hit or a miss, and every rule checks each :class:`CacheStats` counter, and
the cache's ``generation``, by the delta it predicts: only an eviction, an
invalidation or a put that retires a live entry moves the generation.

Three rules run a second cache call inside one of the disk tier's steps, as
another thread may: a lookup inside ``DiskTier.evict``; an evict,
invalidate or put after ``DiskTier.peek`` has read; an evict after
``DiskTier.put`` has written.  The model applies the steps in that order:
a lookup returns what it read, and it promotes that read, or a put inserts
into memory, only if no retirement landed in between.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.envelope import FULL_THETA_DOMAIN, build_envelope_index
from repro.plans.plan import JoinPlan, ScanPlan
from repro.service import (
    CacheEntry,
    DiskTier,
    DiskTierLockedError,
    InvalidationPredicate,
    Provenance,
    TieredPlanCache,
)
from repro.service.tiers import ENVELOPE_ENTRY, CacheStats, decode_put_record, entry_to_wire

from tests.test_readers import REPLACEMENTS, _paths

CAPACITY = 2
KEYS = ["k0", "k1", "k2", "k3"]
BACKENDS = ["fastdp", "legacy", "vecdp"]
SIGNATURES = ["s1", "s2"]


def _scan(table: int, cost: tuple[float, ...]) -> ScanPlan:
    return ScanPlan(mask=1 << table, rows=10.0 * (table + 1), cost=cost, order=None, table=table)


def _entry(backend: str, created: float, signature: str, envelope: bool = False) -> CacheEntry:
    if envelope:
        plans = [_scan(0, (1.0, 4.0)), _scan(0, (3.0, 2.0))]
    else:
        plans = [JoinPlan(mask=3, rows=40.0, cost=(created * 10,), order=None,
                          left=_scan(0, (10.0,)), right=_scan(1, (20.0,)))]
    provenance = Provenance(backend, signature, created, 2, {"plans_kept": created},
                            FULL_THETA_DOMAIN if envelope else None)
    if not envelope:
        return CacheEntry(plans, 2, backend, provenance)
    return CacheEntry(plans, 2, backend, provenance, ENVELOPE_ENTRY, build_envelope_index(plans))


#: Scalar and envelope entries with varied provenance, and one without any.
ENTRIES = [
    _entry("fastdp", 1.0, "s1"),
    _entry("legacy", 2.0, "s2"),
    _entry("vecdp", 3.0, "s1"),
    _entry("vecdp", 2.0, "s2", envelope=True),
    _entry("fastdp", 3.0, "s1", envelope=True),
    CacheEntry([_scan(0, (5.0,))], 1),
]

PREDICATES = st.builds(
    InvalidationPredicate,
    backend=st.sampled_from([None, *BACKENDS]),
    created_before_s=st.sampled_from([None, 1.5, 2.5, 3.5]),
    settings_signature=st.sampled_from([None, *SIGNATURES]),
)


def _wire(entry: CacheEntry) -> Any:
    return json.loads(json.dumps(entry_to_wire(entry)))


def _replay(records: list[tuple]) -> dict[str, tuple[int, Any, Provenance | None]]:
    """The live index an open rebuilds: key → (record position, wire, provenance).

    A plain dict, as the tier's index is: a later ``put`` of a live key
    keeps its place, a ``del`` (or an unindexing ``put``) drops it.
    """
    index: dict[str, tuple[int, Any, Provenance | None]] = {}
    for position, record in enumerate(records):
        if record[0] == "put":
            index[record[1]] = (position, record[2], record[3])
        elif record[0] in ("del", "unindex"):
            index.pop(record[1], None)
    return index


def _mutated_put(data: st.DataObject) -> Any:
    """A top-level JSON value, or a pool ``put`` with one field mutated."""
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(REPLACEMENTS))
    record = {"t": "put", "k": data.draw(st.sampled_from(KEYS)),
              "entry": _wire(data.draw(st.sampled_from(ENTRIES)))}
    path = data.draw(st.sampled_from(_paths(record)))
    parent = record
    for step in path[:-1]:
        parent = parent[step]
    if type(parent) is dict and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(REPLACEMENTS))
    return record


def _plus(delta: dict[str, int], **more: int) -> dict[str, int]:
    """Counter deltas ``delta`` and ``more``, summed."""
    return {name: delta.get(name, 0) + more.get(name, 0) for name in {*delta, *more}}


@contextlib.contextmanager
def _inside(tier: DiskTier, step: str, call: Callable[[], Any], first: bool = False):
    """Run ``call`` inside the next ``tier.<step>``, after the real step
    (``first``: before it), as a second thread could; yields the list its
    result lands in, empty if the step never ran."""
    real = getattr(tier, step)
    results: list[Any] = []

    def wrapped(*args):
        del vars(tier)[step]  # one call: ``call`` itself runs unwrapped
        if first:
            results.append(call())
        done = real(*args)
        if not first:
            results.append(call())
        return done

    setattr(tier, step, wrapped)
    try:
        yield results
    finally:
        vars(tier).pop(step, None)


class CacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="cache-machine-"))
        self.log = self.dir / "cache.log"
        self.records: list[tuple] = []
        self.memory: list[str] = []
        self.shipments = 0
        self._open()

    def _open(self) -> None:
        self.cache = TieredPlanCache(memory_capacity=CAPACITY, disk=DiskTier(self.log))
        self.memory = []
        assert self.cache.snapshot() == CacheStats()

    def _reopen_after(self, damage) -> None:
        self.cache.close()
        damage()
        self._open()

    def teardown(self) -> None:
        self.cache.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------ model helpers

    def _counters(self) -> dict[str, int]:
        return {**dataclasses.asdict(self.cache.snapshot()), "generation": self.cache.generation}

    def _counted(self, action, **delta: int) -> Any:
        """Run ``action``; every counter must move by ``delta`` (default 0)."""
        before = self._counters()
        result = action()
        after = self._counters()
        assert {name: after[name] - before[name] for name in after} == {
            name: delta.get(name, 0) for name in after
        }
        return result

    def _touch(self, key: str) -> int:
        """Make ``key`` most recent in the model LRU; returns keys dropped."""
        if key in self.memory:
            self.memory.remove(key)
        self.memory.append(key)
        dropped = max(0, len(self.memory) - CAPACITY)
        del self.memory[:dropped]
        return dropped

    def _second_log(self) -> Path:
        self.shipments += 1
        return self.dir / f"second-{self.shipments}.log"

    def _put_on_disk(self, key: str, entry: CacheEntry) -> bool:
        """Model a put's log record; returns whether it replaced a live key."""
        replaced = key in _replay(self.records)
        self.records.append(("put", key, _wire(entry), entry.provenance))
        return replaced

    def _put_in_memory(self, key: str, replaced: bool, current: bool = True) -> dict[str, int]:
        """Model a put's memory step; returns its counter deltas.  Not
        ``current`` (a retirement landed since the disk step): the put drops
        the key from memory instead of inserting it."""
        stale = key in self.memory
        if current:
            dropped = self._touch(key)
        else:
            dropped = 0
            if stale:
                self.memory.remove(key)
        return {"disk_writes": 1, "demotions": dropped, "generation": int(stale or replaced)}

    def _lookup(self, key: str, counted: bool,
                between: Callable[[], dict[str, int]] = dict) -> tuple[dict[str, int], Any]:
        """Model a ``get`` (``counted``) or ``probe``: its counter deltas and
        the wire form it returns (``None``: a miss).  ``between`` models a
        call landing after the disk read and returns that call's deltas; a
        memory hit reads no disk, so it never runs."""
        index = _replay(self.records)
        if key in self.memory:
            self._touch(key)
            return {"hits": 1}, index[key][1]
        read = index[key][1] if key in index else None
        if key in index and read is None:  # poisoned: the read tombstones it
            self.records.append(("del", key))
        delta = between()
        if read is None:
            return _plus(delta, misses=int(counted)), None
        delta = _plus(delta, hits=1, disk_hits=1)
        if not delta.get("generation"):  # no retirement since the memory miss
            delta = _plus(delta, promotions=1, demotions=self._touch(key))
        return delta, read

    def _evict(self, key: str) -> tuple[dict[str, int], bool]:
        """Model an evict: its counter deltas and whether it dropped anything."""
        on_disk = key in _replay(self.records)
        held = on_disk or key in self.memory
        if key in self.memory:
            self.memory.remove(key)
        if on_disk:
            self.records.append(("del", key))
        return {"evictions": int(held), "generation": int(held)}, held

    def _invalidate(self, predicate: InvalidationPredicate) -> tuple[dict[str, int], list[str]]:
        """Model an invalidation: its counter deltas and the keys it removes."""
        doomed = [key for key, (__, __wire, provenance) in _replay(self.records).items()
                  if predicate.matches(provenance)]
        self.records += [("del", key) for key in doomed]
        self.memory = [key for key in self.memory if key not in doomed]
        return ({"invalidated": len(doomed), "evictions": len(doomed),
                 "generation": int(bool(doomed))}, sorted(doomed))

    def _clean(self) -> bool:
        """Whether every record in the log is a ``put`` that decodes or a ``del``."""
        return all(record[0] == "del" or record[0] == "put" and record[2] is not None
                   for record in self.records)

    # -------------------------------------------------------------------- rules

    def _lookup_call(self, key: str, counted: bool) -> Callable[[], Any]:
        return lambda: (self.cache.get if counted else self.cache.probe)(key)

    @rule(key=st.sampled_from(KEYS), entry=st.sampled_from(ENTRIES))
    def put(self, key, entry):
        delta = self._put_in_memory(key, self._put_on_disk(key, entry))
        self._counted(lambda: self.cache.put(key, entry), **delta)

    @rule(key=st.sampled_from(KEYS), counted=st.booleans())
    def get_or_probe(self, key, counted):
        delta, wire = self._lookup(key, counted)
        got = self._counted(self._lookup_call(key, counted), **delta)
        assert (None if got is None else _wire(got)) == wire

    @rule(key=st.sampled_from(KEYS))
    def peek(self, key):
        got = self._counted(lambda: self.cache.peek(key))
        assert (got is not None) == (key in self.memory)

    @rule(key=st.sampled_from(KEYS))
    def evict(self, key):
        delta, held = self._evict(key)
        assert self._counted(lambda: self.cache.evict(key), **delta) == held

    @rule(predicate=PREDICATES)
    def invalidate(self, predicate):
        delta, doomed = self._invalidate(predicate)
        assert self._counted(lambda: self.cache.invalidate(predicate), **delta) == doomed

    # ------------------------------------------- a call inside another's disk step

    @rule(key=st.sampled_from(KEYS), counted=st.booleans())
    def lookup_inside_evict(self, key, counted):
        """A lookup of the key lands between the evict's start and its
        tombstone (another key's would not interleave with it)."""
        looked_up, wire = self._lookup(key, counted)
        delta, held = self._evict(key)
        with _inside(self.cache.disk, "evict", self._lookup_call(key, counted),
                     first=True) as got:
            assert self._counted(lambda: self.cache.evict(key), **_plus(looked_up, **delta)) == held
        assert [None if entry is None else _wire(entry) for entry in got] == [wire]

    @rule(key=st.sampled_from(KEYS), counted=st.booleans(),
          inner=st.tuples(st.just("evict"), st.sampled_from(KEYS))
          | st.tuples(st.just("invalidate"), PREDICATES)
          | st.tuples(st.just("put"), st.sampled_from(KEYS), st.sampled_from(ENTRIES)))
    def retire_inside_lookup(self, key, counted, inner):
        """An evict, invalidate or put lands between a lookup's disk read
        and its promotion."""
        expected = []

        def between() -> dict[str, int]:
            if inner[0] == "put":
                expected.append(None)
                return self._put_in_memory(inner[1], self._put_on_disk(*inner[1:]))
            delta, result = self._evict(inner[1]) if inner[0] == "evict" else self._invalidate(inner[1])
            expected.append(result)
            return delta

        delta, wire = self._lookup(key, counted, between)
        call = {"evict": self.cache.evict, "invalidate": self.cache.invalidate,
                "put": self.cache.put}[inner[0]]
        with _inside(self.cache.disk, "peek", lambda: call(*inner[1:])) as results:
            got = self._counted(self._lookup_call(key, counted), **delta)
        assert (None if got is None else _wire(got)) == wire
        assert results == expected

    @rule(data=st.data(), entry=st.sampled_from(ENTRIES), inner=st.sampled_from(KEYS))
    def evict_inside_put(self, data, entry, inner):
        """An evict lands between a put's disk write and its memory step.
        The put's key is as often one the memory tier holds: a stale copy
        there is what the put must drop once the evict retired anything."""
        keys = st.sampled_from(KEYS)
        key = data.draw(st.sampled_from(tuple(self.memory)) | keys if self.memory else keys)
        replaced = self._put_on_disk(key, entry)
        evicted, held = self._evict(inner)
        delta = _plus(evicted, **self._put_in_memory(key, replaced, current=not held))
        with _inside(self.cache.disk, "put", lambda: self.cache.evict(inner)) as results:
            self._counted(lambda: self.cache.put(key, entry), **delta)
        assert results == [held]

    @rule()
    def compact(self):
        live = sorted(_replay(self.records).items(), key=lambda item: item[1][0])
        self._counted(self.cache.disk.compact)
        # A poisoned put is retired, not copied into the new log.
        self.records = [("put", key, wire, provenance)
                        for key, (__, wire, provenance) in live if wire is not None]

    @rule()
    def reopen(self):
        self._reopen_after(lambda: None)

    @rule()
    def second_writer_is_refused(self):
        with pytest.raises(DiskTierLockedError):
            DiskTier(self.log)

    @rule(keys=st.none() | st.lists(st.sampled_from(KEYS), unique=True))
    def ship_records(self, keys):
        index = _replay(self.records)
        wanted = sorted(index if keys is None else set(keys) & index.keys())
        records = self._counted(lambda: self.cache.export_records(keys))
        # The export retires each poisoned put it meets, in log order, and
        # ships the rest.
        self.records += [("del", key) for __, key in
                         sorted((index[key][0], key) for key in wanted if index[key][1] is None)]
        shipped = [key for key in wanted if index[key][1] is not None]
        assert [record["k"] for record in records] == shipped
        second = TieredPlanCache(memory_capacity=CAPACITY, disk=DiskTier(self._second_log()))
        try:
            assert second.import_records(records) == len(shipped)
            assert second.keys() == shipped
            assert all(_wire(second.disk.peek(key)) == index[key][1] for key in shipped)
        finally:
            second.close()

    @rule()
    def import_the_log(self):
        index = _replay(self.records)
        with DiskTier(self._second_log()) as second:
            empty = second.log_bytes()
            try:
                imported = second.import_snapshot(self.log)
            except ValueError:
                # A poisoned live entry must refuse the shipment; dead
                # weight may.  A refusal stores nothing.
                assert not self._clean()
                assert second.keys() == [] and second.log_bytes() == empty
                return
            assert all(wire is not None for __, wire, __p in index.values())
            assert imported == len(index)
            assert sorted(second.keys()) == sorted(index)
            assert all(_wire(second.peek(key)) == wire for key, (__, wire, __p) in index.items())

    @rule(data=st.data())
    def append_malformed_line(self, data):
        line = _mutated_put(data)
        payload = json.dumps(line, separators=(",", ":")).encode() + b"\n"

        def append():
            with open(self.log, "ab") as log:
                log.write(payload)

        self._reopen_after(append)
        self.records.append(self._meaning(line))

    def _meaning(self, line: Any) -> tuple:
        """What an appended line means once the log is reopened.

        A line that is not a ``put`` with a string key is dead weight (no
        mutation turns a ``put`` into a ``del``).  A ``put`` that decodes
        sets its key.  One that does not costs its key: it
        either reads as a miss at once (unindexed at open) or is poisoned
        until a read retires it — which of the two is read off the tier.
        """
        if type(line) is not dict or type(line.get("k")) is not str or line.get("t") != "put":
            return ("junk",)
        key = line["k"]
        try:
            entry = decode_put_record(line)[1]
        except ValueError:
            for indexed, provenance, __kind in self.cache.disk.entries():
                if indexed == key:
                    return ("put", key, None, provenance)
            return ("unindex", key)
        return ("put", key, _wire(entry), entry.provenance)

    @rule(data=st.data())
    def tear_the_tail(self, data):
        raw = self.log.read_bytes()
        header_end = raw.index(b"\n") + 1
        cut = data.draw(st.integers(header_end, len(raw)))

        def tear():
            with open(self.log, "r+b") as log:
                log.truncate(cut)

        self._reopen_after(tear)
        # The record the cut falls in, and every one after it, is lost.
        self.records = self.records[: raw[header_end:cut].count(b"\n")]

    # ---------------------------------------------------------------- invariant

    @invariant()
    def cache_matches_the_model(self):
        index = _replay(self.records)
        assert self.cache.disk.keys() == list(index)
        assert self.cache.keys() == sorted(index) and len(self.cache) == len(index)
        for key, (__, wire, __p) in index.items():
            if wire is not None:  # a poisoned record is read only by a rule
                assert _wire(self.cache.disk.peek(key)) == wire
        for key in {*KEYS, *index}:
            resident = self.cache.peek(key)
            assert (resident is not None) == (key in self.memory)
            if resident is not None:
                assert _wire(resident) == index[key][1]
        raw = self.log.read_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1 + len(self.records)


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(TestCacheMachine.settings, max_examples=150, stateful_step_count=30)


@pytest.mark.slow
class TestCacheMachineSoak(CacheMachine.TestCase):
    settings = settings(TestCacheMachine.settings, max_examples=150, stateful_step_count=40)
