"""A concurrency-safe sharded front door over :class:`OptimizerService`.

:mod:`repro.service.service` ends with the observation that "a shard is an
``OptimizerService`` owning a fingerprint range, and an async gateway is a
thin wrapper over ``optimize_batch``" — this module is that successor.
:class:`ShardedOptimizerGateway` partitions the fingerprint space into
``n_shards`` contiguous ranges, each owned by an independent
:class:`OptimizerService` (its own plan cache, its own executor), and serves
requests from a thread pool of handlers safely:

* **routing** — a request's fingerprint places it on exactly one shard
  (:meth:`ShardedOptimizerGateway.shard_for`), so shard caches never
  duplicate entries and shard executors never contend for the same query;
* **in-flight coalescing (singleflight)** — concurrent identical or
  isomorphic misses on one shard share a single optimization: the first
  requester becomes the *leader* and runs the DP, every other requester
  becomes a *follower* of the flight's ``concurrent.futures.Future`` and is
  answered from the finished entry (remapped to its own table numbering).
  Threads wait on the future; the asyncio door
  (:mod:`repro.service.aio`) attaches a callback to the same future, so
  there is one flight table however the traffic arrives.  Without this, N
  clients racing the same cold fingerprint would run N duplicate DP
  enumerations;
* **aggregated observability** — :meth:`ShardedOptimizerGateway.stats`
  snapshots per-shard cache counters plus gateway-level counters (requests,
  DP runs performed, coalesced requests, current and peak in-flight gauge)
  under one lock, so an operator never reads torn numbers;
* **graceful lifecycle** — the gateway is a context manager whose
  :meth:`~ShardedOptimizerGateway.close` drains the handler pool and fans
  out to every shard's executor.

Thread-safety contract: ``optimize`` and ``optimize_batch`` may be called
from any number of threads concurrently.  Shard caches are internally
locked (:class:`~repro.service.tiers.TieredPlanCache`); the gateway holds
its own lock only for dictionary/counter operations — never while a DP
runs, and never across a cache lookup that may touch a disk tier — so
request handlers block each other only on genuinely shared work and a slow
disk read never stalls the flight table.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.core.master import PartitionExecutor
from repro.query.query import Query
from repro.service.fingerprint import CanonicalForm
from repro.service.service import OptimizerService, ServiceResult, ShardStats, resolve
from repro.service.tiers import CacheEntry, TieredPlanCache

#: Width (in hex digits) of the fingerprint prefix used for range routing.
#: 8 hex digits = 32 bits — plenty to spread sha256 prefixes uniformly over
#: any practical shard count.
_ROUTE_HEX_DIGITS = 8

#: One led flight as the lead path runs it: the leader's query, its
#: canonical form, the fingerprint, and the future every follower waits on.
LedFlight = tuple[Query, CanonicalForm, str, "Future[CacheEntry]"]


@dataclass
class GatewayStats:
    """A consistent cross-shard snapshot of the gateway's counters.

    ``coalesced`` counts requests that were answered by waiting on another
    request's in-flight optimization; ``optimizations`` counts DP runs the
    gateway actually performed.  ``requests - optimizations`` is therefore
    the number of answers served without enumerating anything.  (The
    gateway keeps its live counters in one instance of this type and
    snapshots by copy.)
    """

    shards: tuple[ShardStats, ...] = ()
    requests: int = 0
    optimizations: int = 0
    coalesced: int = 0
    in_flight: int = 0
    peak_in_flight: int = 0
    #: θ-specific answers bound from cached envelopes, summed over shards.
    #: Every one is a parametric request answered without enumerating.
    envelope_hits: int = 0

    @property
    def hits(self) -> int:
        """Cache hits summed over shards."""
        return sum(shard.cache.hits for shard in self.shards)

    @property
    def misses(self) -> int:
        """Cache misses summed over shards."""
        return sum(shard.cache.misses for shard in self.shards)

    @property
    def evictions(self) -> int:
        """Cache evictions summed over shards."""
        return sum(shard.cache.evictions for shard in self.shards)

    @property
    def hit_rate(self) -> float:
        """Aggregate hit rate over all shards (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ShardedOptimizerGateway:
    """Route optimization requests across sharded, coalescing services.

    Args:
        n_shards: number of independent :class:`OptimizerService` shards;
            each owns ``1/n_shards`` of the fingerprint space.
        n_workers: default per-query parallelism (overridable per call).
        settings: default :class:`~repro.config.OptimizerSettings`.
        executor_factory: called once per shard to build its partition
            executor (e.g. ``lambda: PersistentProcessPoolExecutor(4)``);
            ``None`` gives every shard the in-process serial executor.
        cache_capacity: plan-cache capacity *per shard*.
        cache_factory: called with each shard index to build that shard's
            :class:`~repro.service.tiers.TieredPlanCache` (e.g. one over a
            per-shard disk log — the index names the log file).  ``None``
            gives every shard a memory-only cache of ``cache_capacity``.
        gateway_threads: size of the internal handler pool that drives
            per-shard sub-batches in :meth:`optimize_batch` and the flights
            :meth:`submit_claimed` queues; defaults to ``n_shards``.
    """

    def __init__(
        self,
        n_shards: int = 4,
        n_workers: int = 8,
        settings: OptimizerSettings = DEFAULT_SETTINGS,
        executor_factory: Callable[[], PartitionExecutor] | None = None,
        cache_capacity: int = 256,
        gateway_threads: int | None = None,
        cache_factory: Callable[[int], TieredPlanCache] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if gateway_threads is not None and gateway_threads < 1:
            raise ValueError(f"gateway_threads must be >= 1, got {gateway_threads}")
        self.n_shards = n_shards
        self.gateway_threads = (
            gateway_threads if gateway_threads is not None else n_shards
        )
        self.n_workers = n_workers
        self.settings = settings
        self.shards: tuple[OptimizerService, ...] = tuple(
            OptimizerService(
                n_workers=n_workers,
                settings=settings,
                executor=executor_factory() if executor_factory is not None else None,
                cache_capacity=cache_capacity,
                cache=cache_factory(index) if cache_factory is not None else None,
            )
            for index in range(n_shards)
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.gateway_threads, thread_name_prefix="gateway"
        )
        #: Guards the flight table, all counters, and the closed flag; as a
        #: condition variable it also lets ``close`` wait for in-flight
        #: requests to drain.
        self._lock = threading.Condition()
        #: The one singleflight table: fingerprint → the future of the
        #: entry its in-flight optimization will produce.
        self._flights: dict[str, Future[CacheEntry]] = {}
        self._closed = False
        self._counters = GatewayStats()

    # ------------------------------------------------------------------ routing

    def shard_for(self, key: str) -> int:
        """The shard owning fingerprint ``key``: contiguous range partitioning.

        The 32-bit fingerprint prefix space is split into ``n_shards``
        equal ranges — shard ``i`` owns ``[i/n, (i+1)/n)`` of it — so shard
        ownership is stable under any shard's restart and a future
        re-sharding can split ranges without rehashing every key.
        """
        return int(key[:_ROUTE_HEX_DIGITS], 16) * self.n_shards >> (
            4 * _ROUTE_HEX_DIGITS
        )

    # ------------------------------------------------------------------ single

    def optimize(
        self,
        query: Query,
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> ServiceResult:
        """Optimize one query; safe to call from many threads concurrently.

        A cache hit on the owning shard is served immediately; a miss with
        an identical/isomorphic optimization already in flight waits for it
        (coalescing); otherwise this request leads the optimization and
        every concurrent duplicate rides along.
        """
        settings, workers, canonical, key, theta = resolve(
            self, query, settings, n_workers
        )
        self._enter_requests(1)
        try:
            role, payload = self._lookup_or_lead(key)
            if role == "lead":
                flight = (query, canonical, key, payload)
                self._lead_shard_batch(self.shard_for(key), [flight], settings, workers)
            return self.finish(role, payload, canonical, key, theta)
        finally:
            self._exit_requests(1)

    def probe(self, key: str) -> tuple[OptimizerService, CacheEntry | None]:
        """``key``'s owning shard and its cached entry (``None`` if absent).

        The opportunistic fast path for front-ends that do not block a
        thread per miss (the async gateway queues misses on the handler
        pool, the shard server leaves them to the client's ``optimize``
        frame): a hit is counted as a request and a shard cache hit; a miss
        counts *nothing* here — whatever serves it later (:meth:`claim`,
        :meth:`optimize`) does the real miss accounting, so one logical
        miss is never double-counted.
        """
        shard = self.shards[self.shard_for(key)]
        with self._lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
        # The probe happens outside the gateway lock: on a tiered cache it
        # may read the disk tier, and a disk read must never stall the
        # flight table or the stats snapshot.  The tier locks itself.
        entry = shard.cache.probe(key)
        if entry is not None:
            with self._lock:
                self._counters.requests += 1
        return shard, entry

    def serve_if_cached(
        self, canonical: CanonicalForm, key: str, theta: float | None = None
    ) -> ServiceResult | None:
        """:meth:`probe`, answered for one requester; ``None`` when absent."""
        shard, entry = self.probe(key)
        return None if entry is None else shard.answer(entry, canonical, key, theta)

    # ------------------------------------------------------------------- batch

    def optimize_batch(
        self,
        queries: Iterable[Query],
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> list[ServiceResult]:
        """Optimize many queries, fanning per-shard sub-batches out in parallel.

        Results come back in input order.  Each query is routed exactly as
        :meth:`optimize` routes it — hits served inline, in-flight
        duplicates coalesced (including duplicates *within* this batch),
        and each shard's residual misses submitted as one sub-batch to the
        handler pool so shard executors run concurrently and partition
        tasks interleave per shard.
        """
        requests = list(queries)
        resolved = [resolve(self, query, settings, n_workers) for query in requests]
        claims: list[tuple[str, CacheEntry | Future[CacheEntry]]] = []
        leaders: dict[int, list[LedFlight]] = {}
        self._enter_requests(len(requests))
        try:
            try:
                for query, (*__, canonical, key, __) in zip(requests, resolved):
                    role, payload = self._lookup_or_lead(key)
                    claims.append((role, payload))
                    if role == "lead":
                        leaders.setdefault(self.shard_for(key), []).append(
                            (query, canonical, key, payload)
                        )
            except BaseException as error:  # noqa: BLE001 - resolve flights, re-raise
                # Leader flights registered before the failure would strand
                # their followers (possibly in other threads) forever; fail
                # them explicitly instead.
                for group in leaders.values():
                    self._resolve_flights(group, error=error)
                raise
            if leaders:
                settings, workers = resolved[0][:2]
                # Every led group resolves (entry or error published to its
                # futures) before any follower waits, so followers of *this*
                # batch's own flights never deadlock; followers of other
                # threads' flights wait on those threads' progress as usual.
                for sub_batch in [
                    self._pool.submit(
                        self._lead_shard_batch, shard_index, group, settings, workers
                    )
                    for shard_index, group in leaders.items()
                ]:
                    sub_batch.result()
            return [
                self.finish(role, payload, canonical, key, theta)
                for (role, payload), (*__, canonical, key, theta) in zip(claims, resolved)
            ]
        finally:
            self._exit_requests(len(requests))

    # -------------------------------------------------------------- singleflight
    #
    # The flight protocol: admit → ``_lookup_or_lead`` → (when leading)
    # ``_lead_shard_batch`` → ``finish`` → release.  The threaded entry
    # points above run it in one thread.  A queueing front door (the
    # asyncio one) runs the same steps spread over time: ``claim`` on its
    # loop, ``submit_claimed`` (or ``withdraw``) for what it leads onto the
    # handler pool, ``finish`` from the future's callback — same table,
    # same code.

    def claim(self, key: str) -> tuple[str, CacheEntry | Future[CacheEntry]]:
        """Admit and classify one request without blocking on anything.

        Returns :meth:`_lookup_or_lead`'s verdict for :meth:`finish`.  Only
        a led flight stays admitted (``close`` waits for it), until
        :meth:`submit_claimed`'s run or :meth:`withdraw` resolves it.
        """
        self._enter_requests(1)
        role = None
        try:
            role, payload = self._lookup_or_lead(key)
            return role, payload
        finally:
            if role != "lead":
                self._exit_requests(1)

    def submit_claimed(
        self, flight: LedFlight, settings: OptimizerSettings, workers: int
    ) -> Future[None]:
        """Queue one claimed (led) flight on the handler pool, alone.

        The run releases the flight's admission as it resolves.  A caller
        that cancels the returned future before it starts must
        :meth:`withdraw` the flight, which releases it instead.
        """
        return self._pool.submit(
            self._lead_shard_batch,
            self.shard_for(flight[2]),
            [flight],
            settings,
            workers,
            release=1,
        )

    def withdraw(self, flight: LedFlight) -> None:
        """Resolve a claimed flight that will never run (its leader gave up).

        Anyone still following it fails with ``CancelledError``; a retry
        finds no flight and leads afresh.
        """
        key = flight[2]
        error = CancelledError(f"flight for {key[:12]}… was withdrawn before it ran")
        self._resolve_flights([flight], error=error, release=1)

    def _enter_requests(self, count: int) -> None:
        """Admit ``count`` requests (refused once closed); raise the gauges.

        Each must be released by :meth:`_exit_requests` — ``close`` waits
        for the in-flight gauge to drain, which is what guarantees a led
        flight is resolved before its shard's executor is torn down.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            counters = self._counters
            counters.requests += count
            counters.in_flight += count
            counters.peak_in_flight = max(counters.peak_in_flight, counters.in_flight)

    def _exit_requests(self, count: int) -> None:
        """Release ``count`` admitted requests; wake ``close`` at zero."""
        with self._lock:
            self._counters.in_flight -= count
            if self._counters.in_flight == 0:
                self._lock.notify_all()

    def _lookup_or_lead(self, key: str) -> tuple[str, CacheEntry | Future[CacheEntry]]:
        """Classify an admitted request: ``"hit"`` (with the entry), or
        ``"follow"`` / ``"lead"`` (with the flight's future).

        A ``"lead"`` verdict registers the flight: the caller must resolve
        it through :meth:`_lead_shard_batch` (or :meth:`withdraw`).

        The cache lookup happens *outside* the gateway lock — on a tiered
        cache it may read the disk tier, and holding the flight-table lock
        across file I/O would serialize every concurrent request behind the
        disk.  The miss/flight race this opens is closed under the lock: a
        leader that completed between our lookup and the lock acquisition
        filled the cache *before* deregistering its flight, so a miss that
        finds no flight re-checks the (I/O-free) memory peek and converts
        to a hit rather than leading a duplicate optimization.
        """
        # No closed-check here: requests already admitted (``_enter_requests``)
        # must run to completion, or flights they registered would strand
        # their followers.  Closing is gated at request entry only.
        cache = self.shards[self.shard_for(key)].cache
        entry = cache.get(key)
        if entry is not None:
            return "hit", entry
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                self._counters.coalesced += 1
                return "follow", flight
            resident = cache.peek(key)
            if resident is not None:
                # A leader completed in the window between our miss and this
                # lock hold.  Its run answered us without a fresh DP, so the
                # miss our lookup counted is reclassified as the hit it was.
                cache.reclassify_miss_as_hit()
                return "hit", resident
            flight = self._flights[key] = Future()
            # Running from birth: a follower that gives up (asyncio
            # cancellation) can never cancel the flight under the others.
            flight.set_running_or_notify_cancel()
            return "lead", flight

    def _lead_shard_batch(
        self,
        shard_index: int,
        group: Sequence[LedFlight],
        settings: OptimizerSettings,
        workers: int,
        release: int = 0,
    ) -> None:
        """Run one shard's led flights as a single interleaved sub-batch.

        Each flight's future receives the *unbound* entry — followers may
        ask for different θs than the leader, and each binds its own
        against the shared envelope — or the run's error.  Nothing is
        raised here: leaders read their outcome where followers do, from
        the future (:meth:`finish`), so a failure reaches every requester
        exactly once.  ``release`` admitted requests are given back as the
        flights resolve (claimed flights have no surrounding request scope).
        """
        try:
            entries = self.shards[shard_index].run_misses(
                [(query, canonical, key) for query, canonical, key, __ in group],
                settings,
                workers,
            )
        except BaseException as error:  # noqa: BLE001 - re-raised by finish()
            self._resolve_flights(group, error=error, release=release)
            return
        with self._lock:
            self._counters.optimizations += len(group)
        self._resolve_flights(group, entries, release=release)

    def _resolve_flights(
        self,
        group: Sequence[LedFlight],
        entries: Sequence[CacheEntry] = (),
        error: BaseException | None = None,
        release: int = 0,
    ) -> None:
        # Deregister only after ``run_misses`` has filled the cache, so a
        # concurrent miss either sees the entry or finds this flight — and
        # release admission before publishing, so whoever an outcome wakes
        # reads gauges that no longer count its flight.
        with self._lock:
            for __, __, key, __ in group:
                self._flights.pop(key, None)
            self._exit_requests(release)
        if error is not None:
            for *__, future in group:
                future.set_exception(error)
        for (*__, future), entry in zip(group, entries):
            future.set_result(entry)

    def finish(
        self,
        role: str,
        payload: CacheEntry | Future[CacheEntry],
        canonical: CanonicalForm,
        key: str,
        theta: float | None,
    ) -> ServiceResult:
        """Answer one classified request once its entry is available.

        A follower waits for the in-flight leader, however long it runs;
        a leader's failure is raised here, to the leader and every
        follower alike.
        """
        shard = self.shards[self.shard_for(key)]
        if role == "hit":
            entry = payload
        else:
            entry = payload.result()
            if role == "follow":
                # The follower's lookup counted a miss, but no optimization
                # ran for it — recount so hit rate means "answered without
                # enumerating".  Under the gateway lock so ``stats()``
                # snapshots never observe the counters mid-reclassification.
                with self._lock:
                    shard.cache.reclassify_miss_as_hit()
        return shard.answer(entry, canonical, key, theta, cached=role != "lead")

    # ------------------------------------------------------------------- stats

    def stats(self) -> GatewayStats:
        """A consistent snapshot of gateway and per-shard counters.

        Gateway counters are read under the gateway lock; each shard's
        cache counters and entry count are read in one atomic hold of that
        tier's own lock (``snapshot_with_size``), so every individual
        number is untorn.  Cache lookups deliberately run outside the
        gateway lock (they may touch a disk tier), so a snapshot taken
        mid-request can observe a lookup already counted on a shard but not
        yet resolved at the gateway; at quiescence the accounting
        identities (``hits + misses == requests`` per the ``cached`` flags)
        hold exactly, and the tests pin them there.
        """
        with self._lock:
            shards = tuple(
                shard.stats(index) for index, shard in enumerate(self.shards)
            )
            return dataclasses.replace(
                self._counters,
                shards=shards,
                envelope_hits=sum(shard.envelope_hits for shard in shards),
            )

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop admitting requests, drain in-flight ones, release shards.

        Blocks until every admitted request has completed: tearing a shard
        executor down under a running DP would fail that request — and a
        self-healing executor (the persistent pool rebuilds itself on
        break) could then resurrect a worker pool *after* close, leaking
        processes.  Must not be called from inside a request handler (it
        would wait on its own request).  Idempotent and thread-safe.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
            while not already_closed and self._counters.in_flight:
                self._lock.wait()
        if already_closed:
            return
        self._pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedOptimizerGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
