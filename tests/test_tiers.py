"""The disk tier, the memory-over-disk composite, and selective invalidation."""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

from repro.cluster.executors import SerialPartitionExecutor
from repro.config import Backend, OptimizerSettings
from repro.plans.plan import ScanPlan
from repro.query.generator import make_chain_query, make_star_query
from repro.service import (
    CacheEntry,
    DiskTier,
    InvalidationPredicate,
    OptimizerService,
    Provenance,
    TieredPlanCache,
)
from repro.service.tiers import LOG_MAGIC, entry_from_wire, entry_to_wire


def make_entry(
    backend: str = "fastdp",
    created: float = 100.0,
    signature: str = "sig",
    with_provenance: bool = True,
) -> CacheEntry:
    """A small, fully-populated cache entry for tier plumbing tests."""
    plan = ScanPlan(mask=1, rows=1000.0, cost=(1000.0,), order=None, table=0)
    provenance = (
        Provenance(
            backend_used=backend,
            settings_signature=signature,
            created_at_s=created,
            n_partitions=2,
            worker_stats={"plans_considered": 7.0},
        )
        if with_provenance
        else None
    )
    return CacheEntry(
        canonical_plans=[plan],
        n_partitions=2,
        backend_used=backend,
        provenance=provenance,
    )


class TestEntryCodec:
    def test_round_trip_with_provenance(self):
        entry = make_entry()
        decoded = entry_from_wire(json.loads(json.dumps(entry_to_wire(entry))))
        assert decoded == entry
        assert decoded.provenance == entry.provenance

    def test_round_trip_without_provenance(self):
        entry = make_entry(with_provenance=False)
        decoded = entry_from_wire(json.loads(json.dumps(entry_to_wire(entry))))
        assert decoded == entry
        assert decoded.provenance is None


class TestDiskTier:
    def test_put_get_persists_across_reopen(self, tmp_path):
        log = tmp_path / "cache.log"
        entry_a, entry_b = make_entry(backend="legacy"), make_entry()
        with DiskTier(log) as tier:
            tier.put("a", entry_a)
            tier.put("b", entry_b)
        with DiskTier(log) as tier:
            assert tier.peek("a") == entry_a
            assert tier.peek("b") == entry_b
            assert len(tier) == 2

    def test_supersession_serves_latest(self, tmp_path):
        log = tmp_path / "cache.log"
        with DiskTier(log) as tier:
            tier.put("a", make_entry(created=1.0))
            tier.put("a", make_entry(created=2.0))
            assert tier.peek("a").provenance.created_at_s == 2.0
            assert len(tier) == 1
        with DiskTier(log) as tier:
            assert tier.peek("a").provenance.created_at_s == 2.0

    def test_tombstone_survives_reopen(self, tmp_path):
        log = tmp_path / "cache.log"
        with DiskTier(log) as tier:
            tier.put("a", make_entry())
            tier.put("b", make_entry())
            assert tier.evict("a")
            assert not tier.evict("a")  # already gone
        with DiskTier(log) as tier:
            assert tier.peek("a") is None
            assert "a" not in tier
            assert tier.peek("b") is not None

    def test_torn_tail_truncated_on_recovery(self, tmp_path):
        log = tmp_path / "cache.log"
        with DiskTier(log) as tier:
            tier.put("a", make_entry())
            tier.put("b", make_entry())
        intact_size = log.stat().st_size
        with open(log, "ab") as handle:  # a crash mid-append
            handle.write(b'{"t":"put","k":"c","entry":{"plan')
        with DiskTier(log) as tier:
            assert sorted(tier.keys()) == ["a", "b"]
        assert log.stat().st_size == intact_size  # tail actually cut

    def test_complete_json_without_newline_is_torn(self, tmp_path):
        log = tmp_path / "cache.log"
        with DiskTier(log) as tier:
            tier.put("a", make_entry())
        with open(log, "ab") as handle:
            handle.write(b'{"t":"del","k":"a"}')  # valid JSON, no newline
        with DiskTier(log) as tier:
            assert "a" in tier  # the unterminated tombstone was dropped

    def test_rejects_foreign_files(self, tmp_path):
        not_json = tmp_path / "garbage.log"
        not_json.write_text("hello world\n")
        with pytest.raises(ValueError, match="not a plan-cache log"):
            DiskTier(not_json)
        wrong_format = tmp_path / "other.log"
        wrong_format.write_text('{"t":"header","format":"something-else"}\n')
        with pytest.raises(ValueError, match="not a plan-cache log"):
            DiskTier(wrong_format)

    def test_peek_reads_live_entries_only(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as tier:
            assert tier.peek("missing") is None
            tier.put("a", make_entry())
            assert tier.peek("a") == make_entry()

    def test_export_snapshot_is_a_valid_log(self, tmp_path):
        log, snap = tmp_path / "cache.log", tmp_path / "snapshot.log"
        with DiskTier(log) as tier:
            tier.put("a", make_entry(backend="legacy"))
            tier.put("b", make_entry())
            tier.evict("a")
            assert tier.export_snapshot(snap) == 1
        with DiskTier(snap) as tier:  # a snapshot opens as a tier directly
            assert tier.keys() == ["b"]
            assert tier.peek("b") is not None

    def test_import_snapshot_merge_semantics(self, tmp_path):
        snap = tmp_path / "snapshot.log"
        with DiskTier(tmp_path / "source.log") as source:
            source.put("a", make_entry(created=1.0))
            source.put("b", make_entry())
            source.export_snapshot(snap)
        with DiskTier(tmp_path / "dest.log") as dest:
            dest.put("a", make_entry(created=9.0))
            assert dest.import_snapshot(snap, overwrite=False) == 1  # only b
            assert dest.peek("a").provenance.created_at_s == 9.0
            assert dest.import_snapshot(snap) == 2  # snapshot wins now
            assert dest.peek("a").provenance.created_at_s == 1.0

    def test_import_rejects_foreign_snapshot(self, tmp_path):
        bogus = tmp_path / "bogus.snap"
        bogus.write_text('{"format":"nope"}\n')
        with DiskTier(tmp_path / "cache.log") as tier:
            with pytest.raises(ValueError, match="not a plan-cache snapshot"):
                tier.import_snapshot(bogus)

    def test_importing_a_log_brings_back_no_retired_key(self, tmp_path, capsys):
        from repro.cli import main

        source, dest = tmp_path / "src.log", tmp_path / "dst.log"
        with DiskTier(source) as tier:
            tier.put("evicted", make_entry())
            tier.put("invalidated", make_entry(backend="legacy"))
            tier.put("kept", make_entry(created=3.0))
            tier.put("re-put", make_entry())
            tier.evict("evicted")
            tier.invalidate(InvalidationPredicate(backend="legacy"))
            tier.evict("re-put")
            tier.put("re-put", make_entry(created=4.0))
            served = tier.keys()
        assert main(["cache", "import", str(source), "--into", str(dest)]) == 0
        assert "imported 2 entries" in capsys.readouterr().out
        with DiskTier(dest) as tier:
            assert tier.keys() == served == ["kept", "re-put"]
            assert tier.peek("re-put").provenance.created_at_s == 4.0

    def test_export_onto_the_log_itself_is_refused(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "a.log"
        with DiskTier(log) as tier:
            for key in "abc":
                tier.put(key, make_entry())
            with pytest.raises(ValueError, match="onto itself"):
                tier.export_snapshot(log)
        with pytest.raises(SystemExit, match="nothing done: .* onto itself"):
            main(["cache", "export", str(log), "-o", str(log)])
        assert "exported" not in capsys.readouterr().out
        with DiskTier(log) as tier:
            assert tier.keys() == ["a", "b", "c"]

    @pytest.mark.parametrize("sync, calls", [(True, 3), (False, 0)])
    def test_sync_fsyncs_every_append(self, tmp_path, monkeypatch, sync, calls):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        with DiskTier(tmp_path / "cache.log", sync=sync) as tier:
            tier.put("a", make_entry())
            tier.put("b", make_entry())
            tier.evict("a")  # the tombstone is an append too
            assert len(synced) == calls

    def test_compact_reclaims_dead_records(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as tier:
            for version in range(10):
                tier.put("a", make_entry(created=float(version)))
            tier.put("b", make_entry())
            tier.evict("b")
            before = tier.log_bytes()
            reclaimed = tier.compact()
            assert reclaimed > 0
            assert tier.log_bytes() == before - reclaimed
            assert tier.keys() == ["a"]
            assert tier.peek("a").provenance.created_at_s == 9.0

    def test_invalidate_by_predicate_persists(self, tmp_path):
        log = tmp_path / "cache.log"
        with DiskTier(log) as tier:
            tier.put("old-legacy", make_entry(backend="legacy", created=1.0))
            tier.put("old-fastdp", make_entry(backend="fastdp", created=1.0))
            tier.put("new-fastdp", make_entry(backend="fastdp", created=5.0))
            doomed = tier.invalidate(
                InvalidationPredicate(backend="fastdp", created_before_s=5.0)
            )
            assert doomed == ["old-fastdp"]
            assert len(tier) == 2
        with DiskTier(log) as tier:  # tombstones are durable
            assert sorted(tier.keys()) == ["new-fastdp", "old-legacy"]

    def test_provenance_index_resident(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as tier:
            tier.put("a", make_entry(signature="s1"))
            provenances = {k: prov for k, prov, __ in tier.entries()}
            assert provenances["a"].settings_signature == "s1"
            assert "nope" not in provenances


class TestTieredPlanCache:
    def test_write_through_persists_at_put(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            cache = TieredPlanCache(memory_capacity=1, disk=disk)
            cache.put("a", make_entry())
            assert "a" in disk  # durable before any eviction
            cache.put("b", make_entry())  # evicts a from memory
            stats = cache.snapshot()
            assert stats.disk_writes == 2
            assert stats.demotions == 1  # accounting only, no second write
            assert stats.evictions == 0  # a is still served (from disk)
            assert cache.get("a") is not None

    def test_promote_on_hit(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            disk.put("a", make_entry())
            cache = TieredPlanCache(memory_capacity=4, disk=disk)
            assert cache.peek("a") is None  # memory-only by contract
            assert cache.get("a") is not None  # disk hit, promoted
            assert cache.peek("a") is not None
            stats = cache.snapshot()
            assert (stats.disk_hits, stats.promotions) == (1, 1)
            assert cache.get("a") is not None  # now a memory hit
            assert cache.snapshot().memory_hits == 1

    def test_promotion_into_full_memory_demotes(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            cache = TieredPlanCache(memory_capacity=1, disk=disk)
            cache.put("a", make_entry())
            cache.put("b", make_entry())  # demotes a
            assert cache.get("a") is not None  # disk hit, promoted: demotes b
            stats = cache.snapshot()
            assert (stats.promotions, stats.demotions, stats.evictions) == (1, 2, 0)
            assert cache.peek("a") is not None and cache.peek("b") is None

    def test_memory_only_eviction_is_a_loss(self):
        cache = TieredPlanCache(memory_capacity=1)
        cache.put("a", make_entry())
        cache.put("b", make_entry())
        stats = cache.snapshot()
        assert (stats.evictions, stats.demotions, stats.disk_writes) == (1, 0, 0)
        assert cache.get("a") is None

    def test_capacity_zero_serves_disk_only(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            cache = TieredPlanCache(memory_capacity=0, disk=disk)
            cache.put("a", make_entry())
            for __ in range(3):
                assert cache.get("a") is not None
            stats = cache.snapshot()
            assert (stats.memory_hits, stats.disk_hits) == (0, 3)
            assert stats.promotions == 0

    def test_disk_only_service_after_reopen_runs_no_dp(self, tmp_path):
        # A fresh service over a filled log with the memory tier disabled:
        # every request decodes the log record, none falls back to a DP run.
        query = make_star_query(7)
        log = tmp_path / "cache.log"
        with OptimizerService(
            n_workers=2, cache=TieredPlanCache(memory_capacity=64, disk=DiskTier(log))
        ) as service:
            first = service.optimize(query)
        executor = CountingSerialExecutor()
        with OptimizerService(
            n_workers=2,
            executor=executor,
            cache=TieredPlanCache(memory_capacity=0, disk=DiskTier(log)),
        ) as service:
            served = [service.optimize(query) for __ in range(3)]
            stats = service.cache.snapshot()
        assert executor.calls == 0
        assert all(result.cached for result in served)
        assert all(result.plans == first.plans for result in served)
        assert (stats.memory_hits, stats.disk_hits) == (0, 3)

    def test_each_lookup_classified_exactly_once(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            cache = TieredPlanCache(memory_capacity=1, disk=disk)
            cache.put("a", make_entry())
            cache.get("a")  # memory hit
            cache.put("b", make_entry())  # demotes a
            cache.get("a")  # disk hit
            cache.get("missing")  # miss
            stats = cache.snapshot()
            assert (stats.memory_hits, stats.disk_hits, stats.misses) == (1, 1, 1)
            assert stats.hits == 2
            assert stats.lookups == 3
            assert stats.hit_rate == pytest.approx(2 / 3)

    def test_fresh_stats_are_zero(self):
        # Gateway aggregation reads these off every shard's cache.
        from repro.service import CacheStats

        fresh = TieredPlanCache(memory_capacity=2).snapshot()
        assert fresh == CacheStats()
        for name in ("hits", "misses", "evictions", "memory_hits", "lookups", "hit_rate"):
            assert getattr(fresh, name) == 0

    def test_evict_removes_from_both_tiers(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            cache = TieredPlanCache(memory_capacity=4, disk=disk)
            cache.put("a", make_entry())
            assert cache.evict("a")
            assert cache.get("a") is None
            assert "a" not in disk
            assert not cache.evict("a")
            assert cache.snapshot().evictions == 1

    def test_invalidate_covers_memory_resident_write_back(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            cache = TieredPlanCache(memory_capacity=4, disk=disk)
            cache.put("hot", make_entry(backend="fastdp"))
            disk.evict("hot")  # now memory only
            disk.put("cold", make_entry(backend="fastdp"))
            disk.put("keep", make_entry(backend="legacy"))
            doomed = cache.invalidate(InvalidationPredicate(backend="fastdp"))
            assert doomed == ["cold", "hot"]
            assert cache.get("hot") is None
            assert cache.get("cold") is None
            assert cache.get("keep") is not None
            stats = cache.snapshot()
            assert stats.invalidated == 2

    def test_invalidate_counts_dual_resident_entry_once(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            cache = TieredPlanCache(memory_capacity=4, disk=disk)
            cache.put("a", make_entry(backend="fastdp"))  # in both tiers
            doomed = cache.invalidate(InvalidationPredicate(backend="fastdp"))
            assert doomed == ["a"]
            assert cache.snapshot().invalidated == 1
            assert len(cache) == 0

    def test_provenance_free_entry_survives_conditional_invalidation(self):
        cache = TieredPlanCache(memory_capacity=4)
        cache.put("mystery", make_entry(with_provenance=False))
        assert cache.invalidate(InvalidationPredicate(backend="fastdp")) == []
        assert cache.get("mystery") is not None
        # Only the explicit match-everything predicate takes it out.
        assert cache.invalidate(InvalidationPredicate()) == ["mystery"]

    def test_len_is_union_of_tiers(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            cache = TieredPlanCache(memory_capacity=4, disk=disk)
            cache.put("memory-only", make_entry())
            disk.evict("memory-only")
            disk.put("disk-only", make_entry())
            cache.put("both", make_entry())
            disk.put("both", make_entry())
            assert len(cache) == 3
            assert "memory-only" in cache and "disk-only" in cache



class TestRetirementInsideADiskStep:
    """An evict, invalidate or replacing put that lands between another
    call's disk step and its memory step: the memory step must not bring the
    retired key, or the replaced value, back into memory."""

    @pytest.fixture
    def tiers(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as disk:
            yield TieredPlanCache(memory_capacity=4, disk=disk), disk

    @staticmethod
    def assert_gone(cache, disk, key):
        assert cache.peek(key) is None and key not in disk
        assert cache.get(key) is None

    def test_lookup_inside_an_evict_does_not_resurrect_the_key(self, tiers, monkeypatch):
        cache, disk = tiers
        cache.put("a", make_entry())
        evict = disk.evict

        def looked_up_first(key):
            assert cache.get(key) is not None
            return evict(key)

        monkeypatch.setattr(disk, "evict", looked_up_first)
        assert cache.evict("a")
        monkeypatch.undo()
        self.assert_gone(cache, disk, "a")
        assert cache.snapshot().evictions == 1

    @pytest.mark.parametrize("retire", ["evict", "invalidate"])
    def test_retirement_inside_a_lookup_is_not_promoted_back(self, tiers, monkeypatch, retire):
        cache, disk = tiers
        disk.put("a", make_entry())  # disk only: the lookup reads the disk
        peek = disk.peek

        def retired_after_the_read(key):
            entry = peek(key)
            if retire == "evict":
                assert cache.evict(key)
            else:
                assert cache.invalidate(InvalidationPredicate(backend="fastdp")) == [key]
            return entry

        monkeypatch.setattr(disk, "peek", retired_after_the_read)
        assert cache.get("a") is not None  # read before the retirement
        monkeypatch.undo()
        self.assert_gone(cache, disk, "a")

    def test_replacing_put_inside_a_lookup_keeps_the_new_value(self, tiers, monkeypatch):
        cache, disk = tiers
        disk.put("a", make_entry(backend="legacy"))
        peek = disk.peek

        def replaced_after_the_read(key):
            entry = peek(key)
            cache.put(key, make_entry(backend="vecdp"))
            return entry

        monkeypatch.setattr(disk, "peek", replaced_after_the_read)
        assert cache.get("a").backend_used == "legacy"  # read before the put
        monkeypatch.undo()
        assert cache.peek("a").backend_used == "vecdp"
        assert disk.peek("a").backend_used == "vecdp"

    def test_evict_inside_a_put_leaves_the_key_in_neither_tier(self, tiers, monkeypatch):
        cache, disk = tiers
        put = disk.put

        def evicted_after_the_write(key, entry):
            replaced = put(key, entry)
            assert cache.evict(key)
            return replaced

        monkeypatch.setattr(disk, "put", evicted_after_the_write)
        cache.put("a", make_entry())
        monkeypatch.undo()
        self.assert_gone(cache, disk, "a")

    def test_put_that_skips_memory_drops_the_stale_copy(self, tiers, monkeypatch):
        """A retirement of *another* key also makes a put leave memory alone:
        the put must not leave the value it replaced there."""
        cache, disk = tiers
        cache.put("a", make_entry(backend="legacy"))
        cache.put("b", make_entry())
        put = disk.put

        def other_key_evicted_after_the_write(key, entry):
            replaced = put(key, entry)
            assert cache.evict("b")
            return replaced

        monkeypatch.setattr(disk, "put", other_key_evicted_after_the_write)
        cache.put("a", make_entry(backend="vecdp"))
        monkeypatch.undo()
        assert cache.peek("a") is None
        assert cache.get("a").backend_used == "vecdp"

    def test_threads_racing_on_few_keys_leave_memory_a_copy_of_disk(self, tiers):
        """More threads than cores, a tiny switch interval, three keys: once
        they are done, every memory-resident entry is the disk's live one."""
        cache, disk = tiers
        keys = ("a", "b", "c")
        stamps = iter(range(10**6))

        def work(seed):
            for step in range(150):
                key = keys[(seed + step) % len(keys)]
                operation = (seed * 7 + step) % 4
                if operation == 0:
                    cache.put(key, make_entry(created=float(next(stamps))))
                elif operation == 1:
                    cache.evict(key)
                else:
                    cache.get(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for key in keys:
            resident = cache.peek(key)
            if resident is not None:
                on_disk = disk.peek(key)
                assert on_disk is not None
                assert on_disk.provenance.created_at_s == resident.provenance.created_at_s

class TestDiskHit:
    def test_a_disk_hit_reuses_the_indexed_provenance(self, tmp_path):
        """The index decoded each record's provenance at open; a read hands
        out that object instead of decoding the record's copy again."""
        with DiskTier(tmp_path / "cache.log") as tier:
            tier.put("a", make_entry())
        with DiskTier(tmp_path / "cache.log") as tier:
            [(__, indexed, __kind)] = tier.entries()
            first, second = tier.peek("a"), tier.peek("a")
            assert first == make_entry() and first is not second
            assert first.provenance is indexed and second.provenance is indexed


class TestMalformedImport:
    """A shipped record whose entry does not decode is refused, not stored.

    Storing it would poison its key: every later lookup would decode the
    record and raise, failing each request for that fingerprint until an
    operator invalidated it.
    """

    POISON = {"t": "put", "k": "abc", "entry": {"plans": "oops"}}

    def write_snapshot(self, path, *records):
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in (LOG_MAGIC, *records))
        )
        return path

    def test_disk_import_leaves_log_and_index_unchanged(self, tmp_path):
        good = {"t": "put", "k": "good", "entry": entry_to_wire(make_entry())}
        snap = self.write_snapshot(tmp_path / "bad.snap", good, self.POISON)
        with DiskTier(tmp_path / "cache.log") as tier:
            tier.put("a", make_entry())
            before = tier.log_bytes()
            with pytest.raises(ValueError, match="'abc'"):
                tier.import_snapshot(snap)
            assert tier.log_bytes() == before
            assert tier.keys() == ["a"]
        cache = TieredPlanCache(disk=DiskTier(tmp_path / "cache.log"))
        try:
            assert cache.get("abc") is None
            assert cache.keys() == ["a"]
        finally:
            cache.close()

    def test_cli_import_refuses_and_the_key_stays_servable(self, tmp_path, capsys):
        from repro.cli import main

        snap = self.write_snapshot(tmp_path / "bad.snap", self.POISON)
        log = tmp_path / "cache.log"
        with pytest.raises(SystemExit, match="'abc'"):
            main(["cache", "import", str(snap), "--into", str(log)])
        assert "imported" not in capsys.readouterr().out
        cache = TieredPlanCache(memory_capacity=4, disk=DiskTier(log))
        try:
            assert cache.get("abc") is None
        finally:
            cache.close()

    def test_record_that_is_not_an_object_is_refused_by_position(self, tmp_path, capsys):
        from repro.cli import main

        good = {"t": "put", "k": "good", "entry": entry_to_wire(make_entry())}
        cache = TieredPlanCache(memory_capacity=4)
        with pytest.raises(ValueError, match="record 2 is not a JSON object"):
            cache.import_records([good, 5])
        assert len(cache) == 0
        snap = self.write_snapshot(tmp_path / "bad.snap", good, 5)
        log = tmp_path / "cache.log"
        with pytest.raises(
            SystemExit, match="nothing imported: plan-cache record 2 is not a JSON object"
        ):
            main(["cache", "import", str(snap), "--into", str(log)])
        assert "imported" not in capsys.readouterr().out
        with DiskTier(log) as tier:
            assert len(tier) == 0

    def test_cache_import_imports_nothing(self):
        cache = TieredPlanCache(memory_capacity=4)
        good = {"t": "put", "k": "good", "entry": entry_to_wire(make_entry())}
        with pytest.raises(ValueError, match="'abc'"):
            cache.import_records([good, self.POISON])
        assert len(cache) == 0
        assert cache.import_records([good]) == 1
        assert cache.get("good") == make_entry()


class TestShipmentReplay:
    """A shipment's records apply in order, as a log's do when it opens."""

    def put(self, key):
        return {"t": "put", "k": key, "entry": entry_to_wire(make_entry())}

    def test_superseded_put_is_imported_once(self, tmp_path):
        with DiskTier(tmp_path / "src.log") as source:
            source.put("a", make_entry(created=1.0))
            source.put("a", make_entry(created=2.0))
        with DiskTier(tmp_path / "dst.log") as dest:
            assert dest.import_snapshot(tmp_path / "src.log") == 1
            assert dest.peek("a").provenance.created_at_s == 2.0
            assert len(dest.path.read_text().splitlines()) == 2  # header + one put

    def test_malformed_put_retired_by_a_later_del_is_not_refused(self, tmp_path):
        records = [TestMalformedImport.POISON, {"t": "del", "k": "abc"}, self.put("good")]
        with DiskTier(tmp_path / "cache.log") as tier:
            assert tier.import_records(records) == 1
            assert tier.keys() == ["good"]

    def test_del_whose_key_is_not_a_string_refuses_the_shipment(self, tmp_path):
        with DiskTier(tmp_path / "cache.log") as tier:
            with pytest.raises(ValueError, match="'k'"):
                tier.import_records([self.put("good"), {"t": "del", "k": 5}])
            assert tier.keys() == []

    def test_cache_import_records_honours_del(self):
        cache = TieredPlanCache(memory_capacity=4)
        shipment = [self.put("a"), self.put("b"), {"t": "del", "k": "a"}]
        assert cache.import_records(shipment) == 1
        assert cache.keys() == ["b"]

    def test_export_onto_a_hard_link_of_the_log_is_refused(self, tmp_path):
        log, link = tmp_path / "a.log", tmp_path / "b.log"
        with DiskTier(log) as tier:
            tier.put("a", make_entry())
            os.link(log, link)
            with pytest.raises(ValueError, match="onto itself"):
                tier.export_snapshot(link)
            assert tier.peek("a") == make_entry()


class TestMalformedLogRecord:
    """A ``put`` record already in a log whose entry does not decode is
    retired when first read: the lookup is a miss, and the re-run's entry
    overwrites the key instead of the key failing every request."""

    def test_poisoned_key_reruns_once_and_keeps_the_fresh_entry(self, tmp_path):
        query = make_chain_query(5)
        with OptimizerService(n_workers=2) as reference:
            expected = reference.optimize(query)
        key = expected.fingerprint
        log = tmp_path / "cache.log"
        poison = {"t": "put", "k": key, "entry": {"plans": "oops"}}
        log.write_text(json.dumps(LOG_MAGIC) + "\n" + json.dumps(poison) + "\n")

        executor = CountingSerialExecutor()
        cache = TieredPlanCache(memory_capacity=4, disk=DiskTier(log))
        with OptimizerService(n_workers=2, executor=executor, cache=cache) as service:
            served = service.optimize(query)
            stats = service.cache.snapshot()
        assert executor.calls == 1 and not served.cached
        assert served.plans == expected.plans
        assert (stats.hits, stats.misses, stats.disk_writes) == (0, 1, 1)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [record["t"] for record in records] == ["header", "put", "del", "put"]

        # Reopened, the key holds the fresh entry and serves without a DP run.
        executor = CountingSerialExecutor()
        cache = TieredPlanCache(memory_capacity=0, disk=DiskTier(log))
        with OptimizerService(n_workers=2, executor=executor, cache=cache) as service:
            again = service.optimize(query)
        assert executor.calls == 0 and again.cached
        assert again.plans == expected.plans


    def poisoned_log(self, tmp_path):
        log = tmp_path / "cache.log"
        good = {"t": "put", "k": "good", "entry": entry_to_wire(make_entry())}
        poison = {"t": "put", "k": "bad", "entry": {"plans": "oops"}}
        log.write_text("".join(json.dumps(line) + "\n" for line in (LOG_MAGIC, good, poison)))
        return log

    def test_an_export_ships_only_what_decodes(self, tmp_path):
        """An export retires a poisoned put as a read would, so the
        shipment it hands a rebalance imports instead of being refused."""
        cache = TieredPlanCache(memory_capacity=2, disk=DiskTier(self.poisoned_log(tmp_path)))
        second = TieredPlanCache(memory_capacity=2, disk=DiskTier(tmp_path / "second.log"))
        try:
            records = cache.export_records()
            assert [record["k"] for record in records] == ["good"]
            assert cache.keys() == ["good"]
            assert second.import_records(records) == 1
            assert second.get("good") == make_entry()
        finally:
            cache.close()
            second.close()

    def test_compaction_drops_a_poisoned_put(self, tmp_path):
        log = self.poisoned_log(tmp_path)
        with DiskTier(log) as tier:
            tier.compact()
            assert tier.keys() == ["good"]
            assert tier.export_snapshot(tmp_path / "snapshot.log") == 1
        assert "oops" not in log.read_text()
        assert [json.loads(line)["t"] for line in log.read_text().splitlines()] == ["header", "put"]
        with DiskTier(log) as tier:
            assert tier.peek("good") == make_entry()


class TestMalformedLogLine:
    """A log line that parses but is not a well-formed ``put`` / ``del``
    never fails the open: it is dead weight, and a ``put`` whose key is a
    string but whose entry, provenance or kind does not decode unindexes
    that key.  A header that is not this format's refuses the file."""

    def open_log(self, tmp_path, *lines):
        log = tmp_path / "cache.log"
        good = {"t": "put", "k": "good", "entry": entry_to_wire(make_entry())}
        log.write_text("".join(json.dumps(line) + "\n" for line in (LOG_MAGIC, good, *lines)))
        return DiskTier(log)

    def assert_compact_drops_the_bad_line(self, tier, live):
        """An explicit ``compact()`` keeps the live keys and nothing else."""
        tier.compact()
        assert tier.keys() == live
        lines = tier.path.read_text().splitlines()[1:]
        assert [json.loads(line)["k"] for line in lines] == live
        assert all(tier.peek(key) == make_entry() for key in live)

    def test_record_that_is_not_an_object_is_dead_weight(self, tmp_path):
        with self.open_log(tmp_path, 5) as tier:
            assert tier.keys() == ["good"] and tier.peek("good") == make_entry()
            self.assert_compact_drops_the_bad_line(tier, ["good"])

    def test_put_whose_provenance_does_not_decode_unindexes_its_key(self, tmp_path):
        entry = entry_to_wire(make_entry())
        del entry["provenance"]["backend_used"]
        with self.open_log(tmp_path, {"t": "put", "k": "good", "entry": entry}) as tier:
            assert "good" not in tier and tier.peek("good") is None
            self.assert_compact_drops_the_bad_line(tier, [])

    def test_put_whose_entry_is_not_an_object_unindexes_its_key(self, tmp_path):
        with self.open_log(tmp_path, {"t": "put", "k": "good", "entry": [1]}) as tier:
            assert tier.keys() == [] and tier.peek("good") is None

    def test_put_whose_key_is_not_a_string_is_dead_weight(self, tmp_path, capsys):
        from repro.cli import main

        bad = {"t": "put", "k": 5, "entry": entry_to_wire(make_entry())}
        self.open_log(tmp_path, bad).close()
        assert main(["cache", "inspect", str(tmp_path / "cache.log")]) == 0
        assert "1 entries" in capsys.readouterr().out
        with DiskTier(tmp_path / "cache.log") as tier:
            assert tier.keys() == ["good"]
            self.assert_compact_drops_the_bad_line(tier, ["good"])

    def test_header_that_is_not_an_object_refuses_the_log(self, tmp_path):
        log = tmp_path / "cache.log"
        log.write_text("5\n")
        with pytest.raises(ValueError, match="not a plan-cache log"):
            DiskTier(log)

    def test_snapshot_header_that_is_not_an_object_refuses_the_import(self, tmp_path):
        from repro.cli import main

        snap = tmp_path / "bad.snap"
        snap.write_text("[]\n")
        log = tmp_path / "cache.log"
        with pytest.raises(SystemExit, match="nothing imported: .* not a plan-cache snapshot"):
            main(["cache", "import", str(snap), "--into", str(log)])
        with DiskTier(log) as tier:
            assert len(tier) == 0

    @pytest.mark.parametrize(
        "command",
        [
            ["inspect", "{log}"],
            ["invalidate", "{log}", "--all"],
            ["export", "{log}", "-o", "{snap}"],
            ["import", "{good}", "--into", "{log}"],
        ],
        ids=lambda command: command[0],
    )
    def test_cache_command_refuses_a_file_that_is_not_a_log_in_one_line(
        self, tmp_path, command
    ):
        from repro.cli import main

        log = tmp_path / "cache.log"
        log.write_text("5\n")
        good = tmp_path / "good.snap"
        with DiskTier(tmp_path / "good.log") as tier:
            tier.export_snapshot(good)
        paths = {"log": log, "snap": tmp_path / "out.snap", "good": good}
        argv = ["cache", *(part.format(**paths) for part in command)]
        with pytest.raises(SystemExit, match="nothing done: .* is not a plan-cache log"):
            main(argv)
        assert log.read_text() == "5\n"

    def test_cache_command_refuses_a_log_in_use_in_one_line(self, tmp_path):
        from repro.cli import main

        log = tmp_path / "cache.log"
        with DiskTier(log):
            with pytest.raises(SystemExit, match="nothing done: .* is in use by pid"):
                main(["cache", "inspect", str(log)])


class CountingSerialExecutor(SerialPartitionExecutor):
    """Serial executor counting DP runs (``map_partitions`` invocations)."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def map_partitions(self, query, n_partitions, settings):
        with self._lock:
            self.calls += 1
        return super().map_partitions(query, n_partitions, settings)


class TestSelectiveInvalidationAcceptance:
    """Retiring one backend's entries created before an upgrade invalidates
    exactly those; everything else keeps serving without a DP run."""

    def test_backend_upgrade_retires_only_its_own_entries(self, tmp_path):
        executor = CountingSerialExecutor()
        cache = TieredPlanCache(
            memory_capacity=16, disk=DiskTier(tmp_path / "cache.log")
        )
        legacy = OptimizerSettings(backend=Backend.LEGACY)
        fastdp = OptimizerSettings(backend=Backend.FASTDP)
        with OptimizerService(
            n_workers=2, executor=executor, cache=cache
        ) as service:
            query_a, query_b = make_chain_query(5), make_star_query(5)
            service.optimize(query_a, legacy)
            service.optimize(query_b, fastdp)
            assert executor.calls == 2

            # Provenance was stamped with the concrete backend per entry.
            backends = sorted(
                provenance.backend_used
                for __, provenance, __kind in cache.disk.entries()
            )
            assert backends == ["fastdp", "legacy"]

            # "Upgrade" the fastdp core: every fastdp entry created before
            # the upgrade is suspect.
            upgraded_at_s = time.time()
            doomed = cache.invalidate(
                InvalidationPredicate(backend="fastdp", created_before_s=upgraded_at_s)
            )
            assert len(doomed) == 1

            # The fastdp entry re-optimizes (one fresh DP run) …
            result_b = service.optimize(query_b, fastdp)
            assert not result_b.cached
            assert executor.calls == 3
            # … while the untouched legacy entry still serves from cache.
            result_a = service.optimize(query_a, legacy)
            assert result_a.cached
            assert executor.calls == 3
            # And the re-created entry postdates the upgrade.
            refreshed = [
                provenance
                for __, provenance, __kind in cache.disk.entries()
                if provenance.backend_used == "fastdp"
            ]
            assert [p.created_at_s >= upgraded_at_s for p in refreshed] == [True]
