"""The fingerprint-first wire protocol: ``lookup`` before ``optimize``.

A client that has already computed a request's cache key asks the owning
shard for the key alone; a shard holding it answers in canonical numbering
and the client relabels.  What must hold, each in its own section:

* **bit-identity** — a lookup-path answer equals the full-``optimize``
  answer and the in-process gateway's, for plain / interesting-orders /
  parametric queries under fresh relabellings and every θ that matters;
* **accounting** — one logical request is counted once wherever it is
  counted, and a cold key still pays exactly one DP run;
* **no stale bytes** — an entry that is re-run or replaced by a snapshot
  import is what the next lookup serves, never its predecessor's memo;
* **tiers** — a disk-resident key is served by lookup, off the loop.

(Lookup protocol faults live with the other fault tests in ``test_net``.)
"""

from __future__ import annotations

import dataclasses
import random
import threading

import pytest

from repro.algorithms.pqo import parametric_settings
from repro.cluster.serialization import settings_to_wire, snapshot_from_wire, snapshot_to_wire
from repro.config import OptimizerSettings
from repro.query.generator import SteinbrunnGenerator
from repro.query.io import query_to_dict
from repro.service import NetworkOptimizerGateway, ShardedOptimizerGateway
from repro.service.net import result_from_wire
from tests.test_envelope_serving import query_pool
from tests.test_fleet import request
from tests.test_net import ServerThread
from tests.test_service import permute_query, shuffled

WORKERS = 2

SETTINGS = {
    "plain": OptimizerSettings(),
    "orders": OptimizerSettings(consider_orders=True),
    "parametric": parametric_settings(),
}


def record_ops(running: ServerThread) -> list[str]:
    """Every op the server dispatches from here on, in arrival order."""
    ops: list[str] = []
    dispatch = running.server._dispatch

    async def recording(payload):
        ops.append(payload.get("op"))
        return await dispatch(payload)

    running.server._dispatch = recording
    return ops


def optimize_frame(query, settings):
    return {
        "op": "optimize",
        "query": query_to_dict(query),
        "settings": settings_to_wire(settings),
        "workers": WORKERS,
    }


# ------------------------------------------------------------------ bit-identity


class TestLookupBitIdentity:
    @pytest.mark.parametrize("kind", sorted(SETTINGS))
    def test_lookup_equals_optimize_equals_in_process(self, kind, tmp_path):
        settings = SETTINGS[kind]
        rng = random.Random(f"lookup-sweep:{kind}")
        pool = query_pool(131, 3, tables=(4, 6))
        if settings.parametric:
            # Multi-plan envelopes are rare among small generated queries;
            # these two have a switching θ each.
            pool += [query_pool(9, 3)[2], query_pool(63, 1)[0]]
        listen = f"unix:{tmp_path / 'shard.sock'}"
        breakpoints_seen = 0
        with (
            ServerThread(listen, n_workers=WORKERS) as running,
            ShardedOptimizerGateway(n_shards=1, n_workers=WORKERS) as local,
            NetworkOptimizerGateway([listen], n_workers=WORKERS) as gateway,
        ):
            ops = record_ops(running)
            for query in pool:
                # Both sides run their one DP on the same numbering.
                assert not gateway.optimize(query, settings).cached
                key = local.optimize(query, settings).fingerprint
                assert ops == ["lookup", "optimize"]
                thetas: list[float | None] = [None]
                if settings.parametric:
                    envelope = running.server._cache().peek(key).envelope
                    thetas += [0.0, *envelope.breakpoints, 1.0]
                    breakpoints_seen += len(envelope.breakpoints)
                for theta in thetas:
                    bound = settings if theta is None else settings.replace(theta=theta)
                    for __ in range(3):
                        variant = permute_query(
                            query, shuffled(query.n_tables, rng.randrange(10**6))
                        )
                        ops.clear()
                        looked_up = gateway.optimize(variant, bound)
                        assert ops == ["lookup"]  # the query never crossed the wire
                        full = result_from_wire(
                            request(running, optimize_frame(variant, bound))["result"]
                        )
                        assert looked_up == full
                        assert looked_up == local.optimize(variant, bound)
                        assert looked_up.cached and looked_up.fingerprint == key
                        assert looked_up.theta == theta
                        assert looked_up.best.mask == variant.all_tables_mask
                ops.clear()
            assert running.server._stats()["optimizations"] == len(pool)
        if settings.parametric:
            assert breakpoints_seen >= 2, "the sweep never reached a breakpoint"


# -------------------------------------------------------------------- accounting


class TestLookupAccounting:
    def test_n_lookups_of_one_cold_key_pay_one_dp_run(self, tmp_path):
        query = SteinbrunnGenerator(71).query(5)
        listen = f"unix:{tmp_path / 'shard.sock'}"
        n = 7
        with ServerThread(listen, n_workers=WORKERS) as running:
            with NetworkOptimizerGateway([listen], n_workers=WORKERS) as gateway:
                results = [gateway.optimize(query) for __ in range(n)]
                stats = gateway.stats()
            (shard,) = stats["shards"].values()
        assert [result.cached for result in results] == [False] + [True] * (n - 1)
        assert stats["requests"] == n
        assert shard["optimizations"] == shard["cache_misses"] == 1
        assert shard["cache_hits"] == n - 1
        # One logical request, one count: the cold key's lookup counted
        # nothing, the optimize frame behind it counted the one miss.
        assert shard["requests"] == shard["served"] == n
        assert shard["in_flight"] == 0

    def test_concurrent_cold_herd_coalesces_behind_lookups(self, tmp_path):
        query = SteinbrunnGenerator(72).query(6)
        listen = f"unix:{tmp_path / 'shard.sock'}"
        n = 12
        with ServerThread(listen, n_workers=WORKERS, max_in_flight=n) as running:
            with NetworkOptimizerGateway(
                [listen], n_workers=WORKERS, overload_retries=200
            ) as gateway:
                barrier = threading.Barrier(n)

                def client():
                    barrier.wait()
                    assert gateway.optimize(query).plans

                threads = [threading.Thread(target=client) for __ in range(n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                    assert not thread.is_alive()
                stats = gateway.stats()
            (shard,) = stats["shards"].values()
        assert stats["requests"] == n
        assert shard["optimizations"] == shard["cache_misses"] == 1
        assert shard["requests"] == shard["served"] == n

    def test_theta_bound_lookup_counts_an_envelope_hit(self, tmp_path):
        settings = SETTINGS["parametric"]
        query = query_pool(97, 1, tables=(5, 5))[0]
        listen = f"unix:{tmp_path / 'shard.sock'}"
        with ServerThread(listen, n_workers=WORKERS) as running:
            with NetworkOptimizerGateway([listen], n_workers=WORKERS) as gateway:
                gateway.optimize(query, settings)
                for theta in (0.0, 0.5, 1.0):
                    assert gateway.optimize(query, settings.replace(theta=theta)).theta == theta
                (shard,) = gateway.stats()["shards"].values()
        assert shard["optimizations"] == 1
        assert shard["envelope_hits"] == 3


# ------------------------------------------------------------------- stale memos


class TestLookupNeverServesAStaleMemo:
    def test_invalidated_and_rerun_key_serves_the_new_entry(self, tmp_path):
        query = SteinbrunnGenerator(73).query(5)
        listen = f"unix:{tmp_path / 'shard.sock'}"
        with ServerThread(listen, n_workers=WORKERS) as running:
            with NetworkOptimizerGateway([listen], n_workers=WORKERS) as gateway:
                first = gateway.optimize(query)
                # Served by lookup: the entry's memo is now filled.
                assert gateway.optimize(query) == dataclasses.replace(first, cached=True)
                key = first.fingerprint
                stale = running.server._cache().peek(key)
                assert list(stale.wire_memo) == [None]

                # Retire the entry; the re-run writes a newer one.
                assert request(
                    running, {"op": "snapshot", "mode": "evict", "keys": [key]}
                )["evicted"] == 1

                ops = record_ops(running)
                rerun = gateway.optimize(query)
                assert ops == ["lookup", "optimize"] and not rerun.cached
                entry = running.server._cache().peek(key)
                assert entry.provenance.created_at_s > stale.provenance.created_at_s
                assert not entry.wire_memo
                ops.clear()
                served = gateway.optimize(query)
                assert ops == ["lookup"] and served.cached
                # The hit was rendered from the new entry, not the old memo.
                assert running.server._cache().peek(key) is entry
                assert list(entry.wire_memo) == [None]
                assert served.plans == rerun.plans

    def test_snapshot_import_under_a_served_key_replaces_the_answer(self, tmp_path):
        query = SteinbrunnGenerator(74).query(5)
        listen = f"unix:{tmp_path / 'shard.sock'}"
        with ServerThread(listen, n_workers=WORKERS) as running:
            with NetworkOptimizerGateway([listen], n_workers=WORKERS) as gateway:
                gateway.optimize(query)
                before = gateway.optimize(query)  # memo filled
                key = before.fingerprint
                exported = request(
                    running, {"op": "snapshot", "mode": "export", "keys": [key]}
                )["snapshot"]
                (record,) = snapshot_from_wire(exported)
                record["entry"]["backend_used"] = "shipped-from-elsewhere"
                record["entry"]["n_partitions"] = before.n_partitions + 5
                assert request(
                    running,
                    {
                        "op": "snapshot",
                        "mode": "import",
                        "snapshot": snapshot_to_wire([record]),
                    },
                )["imported"] == 1
                ops = record_ops(running)
                after = gateway.optimize(query)
                assert ops == ["lookup"]
                assert after.backend_used == "shipped-from-elsewhere"
                assert after.n_partitions == before.n_partitions + 5
                assert after.plans == before.plans


# ------------------------------------------------------------------------- tiers


class TestLookupOnATieredShard:
    def test_disk_resident_key_is_served_by_lookup_off_the_loop(self, tmp_path):
        first, second = SteinbrunnGenerator(76).queries(2, n_tables=5)
        listen = f"unix:{tmp_path / 'shard.sock'}"
        with ServerThread(
            listen, n_workers=WORKERS, cache_dir=tmp_path / "cache", cache_capacity=1
        ) as running:
            with NetworkOptimizerGateway([listen], n_workers=WORKERS) as gateway:
                original = gateway.optimize(first)
                gateway.optimize(second)  # memory holds one entry: `first` is disk-only
                cache = running.server._cache()
                assert cache.peek(original.fingerprint) is None
                assert original.fingerprint in cache.disk

                loop_thread = running._thread
                lookup_threads: list[threading.Thread] = []
                lookup_frame = running.server._lookup_frame

                def watched(key, theta):
                    lookup_threads.append(threading.current_thread())
                    return lookup_frame(key, theta)

                running.server._lookup_frame = watched
                ops = record_ops(running)
                served = gateway.optimize(first)
                (shard,) = gateway.stats()["shards"].values()
        assert ops[0] == "lookup" and "optimize" not in ops
        assert lookup_threads and loop_thread not in lookup_threads
        assert served.cached and served.plans == original.plans
        assert shard["optimizations"] == 2  # the two fills; the disk hit ran no DP
        assert shard["in_flight"] == 0
