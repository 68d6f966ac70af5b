"""Plan-cache boundary behavior: capacity 0/1, accounting, concurrency."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.query.generator import SteinbrunnGenerator
from repro.service import OptimizerService, TieredPlanCache


class TestCapacityZero:
    """``capacity=0`` is the supported cache-disabled mode."""

    def test_rejects_negative_capacity_only(self):
        with pytest.raises(ValueError):
            TieredPlanCache(memory_capacity=-1)
        TieredPlanCache(memory_capacity=0)
        TieredPlanCache(memory_capacity=1)

    def test_stores_nothing_and_counts_drops_as_evictions(self):
        cache = TieredPlanCache(memory_capacity=0)
        for index in range(5):
            cache.put(f"k{index}", "value")
        assert len(cache) == 0
        assert cache.stats.evictions == 5
        assert cache.get("k0") is None
        assert cache.peek("k0") is None
        assert cache.probe("k0") is None
        assert "k0" not in cache
        assert cache.stats.misses == 1  # only the get counted
        assert cache.stats.hits == 0

    def test_service_works_uncached(self):
        generator = SteinbrunnGenerator(81)
        query = generator.query(5)
        with OptimizerService(n_workers=2, cache_capacity=0) as service:
            first = service.optimize(query)
            second = service.optimize(query)
            assert not first.cached and not second.cached
            assert first.best.cost == second.best.cost
            assert len(service.cache) == 0

    def test_uncached_batch_serves_duplicates_from_the_fresh_run(self):
        # Duplicates within a batch are still deduplicated (one DP run) and
        # served by relabeling the representative's result — no cache entry
        # exists to serve them from.
        generator = SteinbrunnGenerator(82)
        query = generator.query(5)
        with OptimizerService(n_workers=2, cache_capacity=0) as service:
            results = service.optimize_batch([query, query, query])
            assert [result.cached for result in results] == [False, True, True]
            assert len({result.fingerprint for result in results}) == 1
            for result in results[1:]:
                assert result.best.cost == results[0].best.cost
                assert result.plans == results[0].plans


class TestHitPath:
    def test_memory_hit_takes_one_lock_hold(self):
        # The hit path's cost floor: the LRU refresh and the hit count
        # share one lock hold, for ``get`` and ``probe`` alike.
        cache = TieredPlanCache(memory_capacity=2)
        cache.put("a", 1)
        lock, holds = cache._lock, []

        class CountingLock:
            def __enter__(self):
                holds.append(1)
                return lock.__enter__()

            def __exit__(self, *exc_info):
                return lock.__exit__(*exc_info)

        cache._lock = CountingLock()
        assert cache.get("a") == 1
        assert cache.probe("a") == 1
        assert len(holds) == 2
        assert (cache.stats.hits, cache.stats.misses) == (2, 0)


class TestCapacityOne:
    def test_single_slot_lru(self):
        cache = TieredPlanCache(memory_capacity=1)
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        assert cache.get("a") is None  # evicted
        assert cache.get("b") == 2

    def test_refreshing_the_only_entry_never_evicts(self):
        cache = TieredPlanCache(memory_capacity=1)
        cache.put("a", 1)
        for value in range(5):
            cache.put("a", value)
        assert cache.stats.evictions == 0
        assert cache.get("a") == 4


class TestAccountingInterleavings:
    def test_eviction_counts_under_interleaved_put_and_reclassify(self):
        # Reclassification moves counters between hit/miss buckets; it must
        # never disturb eviction accounting or entry residency.
        cache = TieredPlanCache(memory_capacity=2)
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.reclassify_miss_as_hit()
        cache.get("b")  # miss
        cache.put("b", 2)
        cache.get("c")  # miss
        cache.put("c", 3)  # evicts "a"
        cache.reclassify_miss_as_hit()
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 3
        # Totals stay conserved: every lookup is exactly one of hit/miss.
        assert cache.stats.hits + cache.stats.misses == cache.stats.lookups

    def test_probe_counts_hits_but_never_misses(self):
        cache = TieredPlanCache(memory_capacity=2)
        assert cache.probe("a") is None
        assert cache.stats.misses == 0
        cache.put("a", 1)
        assert cache.probe("a") == 1
        assert cache.stats.hits == 1
        # probe refreshes recency like get: "a" survives, "b" is evicted.
        cache.put("b", 2)
        cache.probe("a")
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache


class TestConcurrentHammer:
    @pytest.mark.parametrize("capacity", [1, 4])
    def test_size_never_exceeds_capacity_under_hammering(self, capacity):
        """Concurrent put/get/probe/evict/reclassify from many threads:
        every snapshot must observe size <= capacity and non-negative,
        conserved counters, and at the end every counted lookup is one the
        workers made (a lost counter update would break the sum)."""
        cache = TieredPlanCache(memory_capacity=capacity)
        n_threads = 8
        n_operations = 400
        violations: list[str] = []
        #: Per worker: ``get`` calls plus ``probe`` calls that hit.
        counted = [0] * n_threads
        barrier = threading.Barrier(n_threads + 1)
        stop = threading.Event()

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            barrier.wait(timeout=30)
            for step in range(n_operations):
                key = f"k{rng.randint(0, 12)}"
                action = rng.random()
                if action < 0.45:
                    counted[seed] += 1
                    if cache.get(key) is None:
                        cache.put(key, step)
                elif action < 0.65:
                    counted[seed] += cache.probe(key) is not None
                elif action < 0.75:
                    # Pair a reclassify with a miss we just caused ourselves,
                    # as the service layer does.
                    counted[seed] += 1
                    if cache.get(f"fresh-{seed}-{step}") is None:
                        cache.put(f"fresh-{seed}-{step}", step)
                        cache.reclassify_miss_as_hit()
                elif action < 0.80:
                    cache.evict(key)
                else:
                    cache.put(key, step)

        def observer() -> None:
            barrier.wait(timeout=30)
            while not stop.is_set():
                stats, size = cache.snapshot_with_size()
                if size > capacity:
                    violations.append(f"size {size} > capacity {capacity}")
                if stats.hits < 0 or stats.misses < 0 or stats.evictions < 0:
                    violations.append(f"negative counters: {stats}")
                if stats.lookups != stats.hits + stats.misses:
                    violations.append(f"torn counters: {stats}")

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(n_threads)
        ]
        watcher = threading.Thread(target=observer)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt inside every lock-free window
        try:
            for thread in threads:
                thread.start()
            watcher.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(switch_interval)
        watcher.join(timeout=30)
        assert not watcher.is_alive()
        assert violations == []
        stats, size = cache.snapshot_with_size()
        assert size <= capacity
        assert len(cache) == size
        assert stats.lookups == sum(counted)
