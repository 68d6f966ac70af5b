"""Cache tiers for optimization results: the protocol and the memory tier.

The service's working set is whatever queries the traffic repeats; a bounded
least-recently-used policy keeps the hottest fingerprints resident without
letting a long tail of one-off queries grow memory without limit.  Hit,
miss, and eviction counters are first-class: a service operator tunes
capacity by watching the hit rate, and the benchmark harness asserts on
them.

This module defines the :class:`CacheTier` protocol — the contract every
tier (memory, disk, composite) satisfies — and :class:`MemoryTier`, the
bounded thread-safe LRU that has backed the service since PR 1.  The name
``PlanCache`` remains an alias for :class:`MemoryTier`: every existing call
site keeps working, and a single-tier service is just a tiered cache with
no lower tier.  The persistent tier and the composite live in
:mod:`repro.service.tiers`.

Every public operation (and every counter update) happens under one
reentrant lock, so a cache shared by a thread pool of request handlers —
the :class:`~repro.service.gateway.ShardedOptimizerGateway` shape — never
interleaves an eviction with a lookup or tears a statistics update.  The
lock is held only for dictionary operations, never while optimizing or
touching a disk tier, so it is uncontended in practice.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Generic, Protocol, TypeVar, runtime_checkable

Value = TypeVar("Value")


@dataclass
class CacheStats:
    """Counters since construction (or the last :meth:`MemoryTier.clear`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0


@runtime_checkable
class CacheTier(Protocol[Value]):
    """What the service, gateway, and async front-end require of a cache.

    The protocol is the *union* of the call sites that previously assumed
    the concrete LRU: lookup with and without accounting, insertion,
    explicit eviction, consistent statistics snapshots, and the atomic
    miss-to-hit reclassification the coalescing layers use.  A tier may be
    a single store (:class:`MemoryTier`,
    :class:`~repro.service.tiers.DiskTier`) or a composite
    (:class:`~repro.service.tiers.TieredPlanCache`); callers never care.

    Locking contract: every method is atomic with respect to the tier's own
    state.  :meth:`peek` must be cheap and I/O-free (callers invoke it under
    their own locks); :meth:`get` and :meth:`probe` may perform I/O and must
    therefore never be called while holding an external lock that readers
    of :meth:`snapshot` also take.
    """

    def get(self, key: str) -> Value | None:
        """Return the cached value (refreshing recency), or ``None`` on miss."""
        ...

    def probe(self, key: str) -> Value | None:
        """Like :meth:`get`, but an absent key is *not* counted as a miss."""
        ...

    def peek(self, key: str) -> Value | None:
        """Resident value without recency/statistics effects; never does I/O."""
        ...

    def put(self, key: str, value: Value) -> None:
        """Insert (or refresh) ``key``."""
        ...

    def evict(self, key: str) -> bool:
        """Drop ``key`` if present; returns whether anything was dropped."""
        ...

    def reclassify_miss_as_hit(self) -> None:
        """Atomically recount one earlier miss as a hit."""
        ...

    def snapshot(self) -> Any:
        """A consistent copy of the counters (safe under concurrency)."""
        ...

    def snapshot_with_size(self) -> tuple[Any, int]:
        """Counters plus resident entry count, read in one atomic step."""
        ...

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        ...

    def __contains__(self, key: str) -> bool: ...

    def __len__(self) -> int: ...


class MemoryTier(Generic[Value]):
    """Bounded in-memory LRU tier mapping fingerprints to cached results.

    ``get`` refreshes recency; ``put`` evicts the least recently used entry
    once ``capacity`` is exceeded.  ``peek`` reads without touching recency
    or counters (used by batch deduplication, which should not inflate the
    hit rate with its own bookkeeping reads).

    ``capacity=0`` disables caching entirely: every lookup misses and every
    ``put`` is dropped on the floor (counted as an eviction, so the
    operator-visible eviction counter still reflects how many results were
    not retained).  This is the supported way to run a service or gateway
    uncached — e.g. to measure raw DP throughput — without special-casing
    call sites.

    All operations are atomic under an internal reentrant lock; see the
    module docstring.  ``stats`` remains directly readable for tests and
    single-threaded callers, but concurrent readers should prefer
    :meth:`snapshot`, which copies the counters under the lock.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[str, Value] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: str) -> Value | None:
        """Return the cached value (refreshing recency), or ``None`` on miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def probe(self, key: str) -> Value | None:
        """Like :meth:`get`, but an absent key is *not* counted as a miss.

        For opportunistic fast-path probes (the async front-end checks the
        cache before dispatching a miss) that fall back to a
        full, miss-counting lookup: counting the probe *and* the later real
        lookup would double-count one logical miss, breaking the
        ``misses == optimizations`` accounting identity.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            return None

    def peek(self, key: str) -> Value | None:
        """Return the cached value without touching recency or statistics."""
        with self._lock:
            return self._entries.get(key)

    def touch(self, key: str) -> Value | None:
        """Resident value with recency refreshed but *no* counter updates.

        The building block for composites that do their own hit/miss
        accounting across tiers: a composite ``get`` must refresh LRU
        recency exactly like :meth:`get`, but counting the memory probe here
        *and* the composite's own classification would double-book one
        logical lookup.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            return None

    def put(self, key: str, value: Value) -> list[tuple[str, Value]]:
        """Insert (or refresh) ``key``, evicting the LRU entry when full.

        Returns the evicted ``(key, value)`` pairs, oldest first — empty for
        the common non-evicting put; a composite counts its demotions off it.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            evicted: list[tuple[str, Value]] = []
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False))
                self.stats.evictions += 1
        return evicted

    def evict(self, key: str) -> bool:
        """Drop ``key`` if resident (counted as an eviction); else no-op."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.stats.evictions += 1
            return True

    def keys(self) -> list[str]:
        """Resident keys, least recently used first (a consistent copy)."""
        with self._lock:
            return list(self._entries)

    def reclassify_miss_as_hit(self) -> None:
        """Atomically recount one earlier miss as a hit.

        Used when a lookup that missed was nevertheless answered without a
        fresh optimization — a duplicate within a batch, or a request
        coalesced onto an in-flight run — so the operator-facing hit rate
        agrees with the ``cached`` flags on the results.

        If the counters were reset (``clear``) between the miss and its
        reclassification, there is no miss left to move; the call then
        counts a plain hit instead of driving ``misses`` negative, so
        snapshots never observe impossible counters.
        """
        with self._lock:
            if self.stats.misses > 0:
                self.stats.misses -= 1
            self.stats.hits += 1

    def snapshot(self) -> CacheStats:
        """A consistent copy of the counters (safe under concurrency)."""
        with self._lock:
            return replace(self.stats)

    def snapshot_with_size(self) -> tuple[CacheStats, int]:
        """Counters plus resident entry count, read under one lock hold.

        Two separate ``snapshot()``/``len()`` calls could interleave with a
        concurrent insert or eviction; gateway statistics use this to keep
        each shard's numbers internally consistent.
        """
        with self._lock:
            return replace(self.stats), len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The historical name of the in-memory LRU.  Service construction, tests,
#: and half the docs say ``PlanCache``; the tiered refactor re-homed the
#: implementation as :class:`MemoryTier` without breaking any of them.
PlanCache = MemoryTier
