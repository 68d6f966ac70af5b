"""An asyncio front-end over the sharded gateway: queueing and backpressure.

The threaded :class:`~repro.service.gateway.ShardedOptimizerGateway` costs
one OS thread per concurrently waiting request; a serving tier that faces
thousands of connections wants requests to be *queued*, not *parked on
threads*.  :class:`AsyncOptimizerGateway` is that tier:

* **one dispatch per led miss** — a cache miss that leads its flight is
  submitted at once, alone, to the wrapped gateway's handler pool
  (:meth:`~repro.service.gateway.ShardedOptimizerGateway.submit_claimed`);
  the pool's queue is the only place a miss waits.  Batching has one home,
  the gateway's ``optimize_batch``.  The fast path serves through the
  threaded gateway's ``serve_if_cached``, so on a tiered shard cache a
  *disk* hit bypasses admission control exactly like a memory hit — after
  a warm restart the whole previously-seen working set is fast-path
  traffic, not a miss storm;
* **admission control with per-tenant fairness** — at most ``max_pending``
  requests may be outstanding (queued or dispatched, not yet answered), and
  a single tenant may hold at most ``tenant_share`` of those slots.  A
  request beyond either bound is rejected *immediately* with
  :class:`GatewayOverloadedError` carrying a ``retry_after_s`` estimate —
  fail-fast backpressure instead of unbounded queueing, and a hot tenant
  exhausts its own share while the reserved remainder keeps serving
  everyone else;
* **cancellation-safe futures** — every admitted request is an
  :class:`asyncio.Future`.  A caller that abandons it (``asyncio.wait_for``
  timeout, task cancellation) releases its admission slot at once; a led
  flight whose waiters all cancelled while it was still queued on the pool
  is cancelled there and withdrawn (the DP never runs), and a cancellation
  after the run started simply discards that waiter's answer — the flight,
  its other waiters, and the in-flight gauges are untouched;
* **coalescing without a second table** — singleflight lives in the
  threaded gateway's one flight table.  A request whose fingerprint is
  already in flight (queued here, running, or led by a thread) attaches
  a callback to that flight's future: no dispatch, no pool thread.
  *One DP run per unique fingerprint*, no matter how the traffic arrives;
* **a served-result edge memo** — the shard caches store plans in
  *canonical* numbering and keep one rendered copy per θ slot on the
  entry; the front-end additionally keeps a small LRU of whole answers
  keyed by fingerprint, θ and numbering (render once, serve many), so a
  one-off relabelling adds an answer beside the hot numbering's instead of
  replacing it.  A hot client repeating the same query object skips the
  shard entirely — the single-threaded event loop makes this a plain
  dictionary, no locking.  Each answer is stored beside its shard cache
  and the cache's ``generation`` read before the lookup that produced it;
  once the entry is evicted, invalidated or replaced the generation has
  moved and the memo misses, so no answer outlives its entry.  Plans are
  frozen, so served answers share plan objects safely; only the result
  envelope is copied per response.

Everything above happens on the event loop — the only blocking work (the
DP runs) happens on the gateway's handler pool, so the loop stays
responsive at any queue depth.  :meth:`AsyncOptimizerGateway.stats`
extends the threaded gateway's snapshot with queue depth, dispatch
counters, rejection counters, and per-tenant accounting.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial

from repro.config import OptimizerSettings
from repro.query.query import Query
from repro.service.fingerprint import CanonicalForm
from repro.service.gateway import GatewayStats, LedFlight, ShardedOptimizerGateway
from repro.service.service import ServiceResult, resolve
from repro.service.tiers import CacheEntry, TieredPlanCache

#: Answers in the served-result edge memo, one per (fingerprint, θ,
#: numbering) — each numbering of a key counts on its own; the least
#: recently served drop out beyond.  The memo never changes an answer — it
#: serves one only while the entry that produced it is live — it only skips
#: re-relabeling, but a memo-served answer does not refresh the shard
#: cache's LRU recency for that key.
RESULT_MEMO_SIZE = 1024


class GatewayOverloadedError(RuntimeError):
    """The request was rejected by admission control; retry after a delay.

    ``reason`` is ``"queue-full"`` (the global pending bound is exhausted)
    or ``"tenant-share"`` (this tenant alone holds its full share of slots).
    ``retry_after_s`` estimates when capacity frees up, from the number of
    dispatches still outstanding and an exponentially weighted average of
    one dispatch's time — a client honoring it converges on the
    gateway's actual drain rate instead of hammering a full queue.
    """

    def __init__(self, reason: str, retry_after_s: float, tenant: str) -> None:
        super().__init__(
            f"optimizer gateway overloaded ({reason}) for tenant "
            f"{tenant!r}; retry after {retry_after_s:.3f}s"
        )
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.tenant = tenant


def _cached_copy(result: ServiceResult) -> ServiceResult:
    """``result`` as a cache hit, in a new envelope over a new plans list.

    The frozen plans are shared.  Built directly: ``dataclasses.replace``
    costs about three times as much on the edge-memo hit path, and
    ``tests/test_aio.py`` holds it as the field-for-field reference.
    """
    return ServiceResult(
        list(result.plans), result.n_partitions, result.fingerprint, True,
        result.backend_used, result.theta,
    )


@dataclass
class TenantStats:
    """One tenant's counters (live in the front-end, copied at snapshot)."""

    requests: int = 0
    completed: int = 0
    rejected: int = 0
    cancelled: int = 0
    failed: int = 0
    outstanding: int = 0


@dataclass
class AsyncGatewayStats:
    """A snapshot of the async front-end plus the wrapped threaded gateway.

    ``requests = fast_path_hits + admitted + rejections`` — every call to
    :meth:`AsyncOptimizerGateway.optimize` lands in exactly one bucket.
    ``coalesced`` counts admitted requests that attached to a flight
    already in the table instead of leading one; every other admitted
    request led a flight and is one of the ``dispatched_batches``, each a
    batch of one flight (``batch_sizes`` is therefore ``{1: n}``).
    ``queue_depth`` counts led flights still waiting in the gateway's
    handler pool, ``in_flight_batches`` those dispatched and not finished.
    (The front-end keeps its live counters in one instance of this type
    and snapshots by copy; the gauges are filled in at snapshot time.)
    """

    requests: int = 0
    fast_path_hits: int = 0
    #: Of the fast-path hits, how many were served from the front-end's
    #: relabeled-result memo without touching the shard cache at all.
    result_memo_hits: int = 0
    admitted: int = 0
    coalesced: int = 0
    rejected_queue_full: int = 0
    rejected_tenant_share: int = 0
    cancelled: int = 0
    queue_depth: int = 0
    outstanding: int = 0
    dispatched_batches: int = 0
    in_flight_batches: int = 0
    #: A plain ``dict``, never a ``Counter``: ``dataclasses.asdict`` rebuilds
    #: a ``Counter`` from its items and would count the pairs.
    batch_sizes: dict[int, int] = field(default_factory=dict)
    tenants: dict[str, TenantStats] = field(default_factory=dict)
    gateway: GatewayStats = field(default_factory=GatewayStats)

    @property
    def rejections(self) -> int:
        """Total rejected requests across both admission-control reasons."""
        return self.rejected_queue_full + self.rejected_tenant_share


class AsyncOptimizerGateway:
    """Asyncio front door over a :class:`ShardedOptimizerGateway`.

    Args:
        gateway: the threaded sharded gateway to serve through.  ``None``
            builds one from ``gateway_kwargs`` and owns it (closed with this
            front-end); a passed-in gateway is borrowed and left open.
        max_pending: bound on outstanding admitted requests (queued plus
            dispatched, not yet answered); beyond it requests are rejected
            with ``reason="queue-full"``.
        tenant_share: fraction of ``max_pending`` a single tenant may hold
            (at least one slot).  The remainder stays available to other
            tenants no matter how hot one tenant runs.
        **gateway_kwargs: forwarded to :class:`ShardedOptimizerGateway` when
            ``gateway`` is ``None``.

    Served answers are memoised at the edge, :data:`RESULT_MEMO_SIZE` of
    them, least recently served dropped first.

    Single-loop discipline: all bookkeeping runs on the event loop that
    first calls :meth:`optimize`; using the instance from a second loop is
    an error.  The front-end owns no threads: a led miss runs on the
    gateway's handler pool (sized by its ``gateway_threads``), and flights
    report back to the loop through their futures' callbacks.
    """

    def __init__(
        self,
        gateway: ShardedOptimizerGateway | None = None,
        *,
        max_pending: int = 128,
        tenant_share: float = 0.5,
        **gateway_kwargs: object,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if not 0.0 < tenant_share <= 1.0:
            raise ValueError(f"tenant_share must be in (0, 1], got {tenant_share}")
        self._own_gateway = gateway is None
        if gateway is None:
            gateway = ShardedOptimizerGateway(**gateway_kwargs)  # type: ignore[arg-type]
        self._gateway = gateway
        self.max_pending = max_pending
        self.tenant_cap = max(1, math.floor(max_pending * tenant_share))
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        #: The flights this front-end leads, by fingerprint: the pool
        #: future running each, the flight, and every waiter that still
        #: wants it (leader and followers) — the only place a dispatched
        #: flight's liveness is recorded.
        self._led: dict[
            str, tuple[Future[None], LedFlight, list[asyncio.Future]]
        ] = {}
        #: Admitted requests not yet answered (the ``outstanding`` gauge).
        self._waiters: set[asyncio.Future] = set()
        #: Fully-relabeled answers to copy from, by (fingerprint, θ,
        #: numbering), each beside its shard cache and that cache's
        #: generation before the lookup.  θ is part of the memo key because
        #: one θ-free fingerprint serves many bound answers; touched only on
        #: the loop.
        self._served: OrderedDict[
            tuple[str, float | None, tuple[int, ...]],
            tuple[ServiceResult, TieredPlanCache, int],
        ] = OrderedDict()
        self._counters = AsyncGatewayStats()
        #: EWMA of one dispatch's time, submission to completion, seeding the
        #: retry-after estimate.
        self._ewma_dispatch_s = 1e-3

    # ----------------------------------------------------------------- request

    async def optimize(
        self,
        query: Query,
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
        tenant: str = "default",
    ) -> ServiceResult:
        """Optimize one query; hits return immediately, misses dispatch.

        Raises :class:`GatewayOverloadedError` when admission control
        rejects the request (the caller should back off ``retry_after_s``),
        and propagates the optimization's own error if the DP fails.
        Cancelling the returned awaitable releases the admission slot and,
        when this waiter was the last of a flight still queued on the pool,
        withdraws the flight.
        """
        self._check_loop()
        if self._closed:
            raise RuntimeError("async gateway is closed")
        settings, workers, canonical, key, theta = resolve(
            self._gateway, query, settings, n_workers
        )
        counters = self._counters
        state = counters.tenants.get(tenant)
        if state is None:  # not ``setdefault``: no allocation on the hit path
            state = counters.tenants[tenant] = TenantStats()
        counters.requests += 1
        state.requests += 1

        memo_key = (key, theta, canonical.numbering)
        memo = self._served.get(memo_key)
        if memo is not None and memo[1].generation == memo[2]:
            # Edge-memo hit: the fully-relabeled answer for this exact
            # numbering (and θ binding) was already rendered, and its entry
            # is still live — serve a fresh envelope over the shared frozen
            # plans.
            self._served.move_to_end(memo_key)
            counters.fast_path_hits += 1
            counters.result_memo_hits += 1
            state.completed += 1
            return _cached_copy(memo[0])
        gateway = self._gateway
        cache = gateway.shards[gateway.shard_for(key)].cache
        generation = cache.generation
        served = gateway.serve_if_cached(canonical, key, theta=theta)
        if served is None:
            reason = self._admission_verdict(state)
            if reason is not None:
                state.rejected += 1
                if reason == "queue-full":
                    counters.rejected_queue_full += 1
                else:
                    counters.rejected_tenant_share += 1
                raise GatewayOverloadedError(reason, self._retry_after_s(), tenant)
            role, flight = gateway.claim(key)
            if role == "hit":  # the entry landed between the probe and the claim
                served = gateway.finish(role, flight, canonical, key, theta)
        if served is not None:
            counters.fast_path_hits += 1
            state.completed += 1
            self._remember(memo_key, served, cache, generation)
            return served

        assert self._loop is not None
        waiter: asyncio.Future[ServiceResult] = self._loop.create_future()
        counters.admitted += 1
        state.outstanding += 1
        self._waiters.add(waiter)
        waiter.add_done_callback(partial(self._on_waiter_done, state, key))
        if role == "lead":
            # Run θ-free: the run must produce the unbound frontier (and a
            # single envelope entry), whatever θ this waiter asked.
            self._dispatch(
                (query, canonical, key, flight), waiter, settings.without_theta(), workers
            )
        else:
            # Already in flight: ride along — no dispatch, no pool thread.
            # θ is not part of the fingerprint, so requests for *different*
            # θs of one shape coalesce here too, and each binds its own θ
            # when the flight lands.
            counters.coalesced += 1
            led = self._led.get(key)
            if led is not None and led[1][3] is flight:  # led here: keep it alive
                led[2].append(waiter)
        # ``add_done_callback`` (never ``asyncio.wrap_future``): cancelling
        # this waiter must not propagate into the flight others share.  The
        # flight resolves on whichever thread ran it; hop to the loop with
        # ``_settle(waiter, role, canonical, key, theta, cache, generation,
        # flight)``.
        flight.add_done_callback(
            partial(
                self._loop.call_soon_threadsafe,
                self._settle, waiter, role, canonical, key, theta, cache, generation,
            )
        )
        return await waiter

    # --------------------------------------------------------------- admission

    def _admission_verdict(self, state: TenantStats) -> str | None:
        """The rejection reason for this request, or ``None`` to admit."""
        if len(self._waiters) >= self.max_pending:
            return "queue-full"
        if state.outstanding >= self.tenant_cap:
            return "tenant-share"
        return None

    def _retry_after_s(self) -> float:
        """Estimated wait until a slot frees: queue depth over drain rate."""
        rounds_ahead = 1 + len(self._led) // self._gateway.gateway_threads
        return rounds_ahead * self._ewma_dispatch_s

    def _on_waiter_done(
        self, state: TenantStats, key: str, waiter: asyncio.Future
    ) -> None:
        """Single accounting point for every way a waiter can finish.

        When the last waiter of a flight this front-end leads cancels, the
        flight's pool task is cancelled; if it had not started, the flight
        is withdrawn and its DP never runs.  A started run completes and
        fills the cache; only the cancelled waiters' answers are discarded.
        """
        self._waiters.discard(waiter)
        state.outstanding -= 1
        if waiter.cancelled():
            self._counters.cancelled += 1
            state.cancelled += 1
            led = self._led.get(key)
            if led is not None and all(w.done() for w in led[2]) and led[0].cancel():
                del self._led[key]
                self._gateway.withdraw(led[1])
        elif waiter.exception() is not None:
            state.failed += 1
        else:
            state.completed += 1

    # ---------------------------------------------------------------- dispatch

    def _dispatch(
        self,
        flight: LedFlight,
        waiter: asyncio.Future,
        settings: OptimizerSettings,
        workers: int,
    ) -> None:
        """Submit a freshly led flight, alone, to the gateway's handler pool."""
        assert self._loop is not None
        key = flight[2]
        future = self._gateway.submit_claimed(flight, settings, workers)
        self._led[key] = (future, flight, [waiter])
        counters = self._counters
        counters.dispatched_batches += 1
        counters.batch_sizes[1] = counters.batch_sizes.get(1, 0) + 1
        future.add_done_callback(
            partial(
                self._loop.call_soon_threadsafe,
                self._on_dispatch_done, key, self._loop.time(),
            )
        )

    def _on_dispatch_done(self, key: str, started: float, future: Future[None]) -> None:
        """Forget a finished dispatch and feed its time to the EWMA.

        Its waiters are settled by the flight's own callbacks
        (:meth:`_settle`).  A cancelled dispatch was already forgotten and
        withdrawn by :meth:`_on_waiter_done`; a later flight for the same
        key may lead afresh, so only this dispatch's own entry is dropped.
        """
        assert self._loop is not None
        led = self._led.get(key)
        if led is not None and led[0] is future:
            del self._led[key]
        if future.cancelled():
            return
        elapsed = max(self._loop.time() - started, 1e-6)
        self._ewma_dispatch_s += 0.25 * (elapsed - self._ewma_dispatch_s)
        future.result()  # run failures travel on the flights; this is bugs only

    def _settle(
        self,
        waiter: asyncio.Future,
        role: str,
        canonical: CanonicalForm,
        key: str,
        theta: float | None,
        cache: TieredPlanCache,
        generation: int,
        flight: Future[CacheEntry],
    ) -> None:
        """Deliver a resolved flight to one waiter: its numbering, its θ.

        A waiter cancelled meanwhile is skipped — only its own answer is
        discarded.  Each answer is memoized under its ``(key, θ,
        numbering)``, beside the shard ``cache`` and the ``generation`` read
        before the claim, so the next identical request is an edge-memo hit
        while the entry stays live.
        """
        if waiter.done():
            return
        error = flight.exception()
        if error is not None:
            waiter.set_exception(error)
            return
        result = self._gateway.finish(role, flight, canonical, key, theta)
        self._remember((key, theta, canonical.numbering), result, cache, generation)
        waiter.set_result(result)

    def _remember(
        self,
        memo_key: tuple[str, float | None, tuple[int, ...]],
        result: ServiceResult,
        cache: TieredPlanCache,
        generation: int,
    ) -> None:
        """LRU-memoize a served answer for its (fingerprint, θ, numbering).

        A defensive copy is stored, never the object handed to a caller:
        callers may legitimately mutate their result's ``plans`` list in
        place (sorting, filtering), and the memo must not serve those
        mutations to later requesters.  The frozen plan objects themselves
        are shared.
        """
        self._served[memo_key] = (_cached_copy(result), cache, generation)
        self._served.move_to_end(memo_key)
        while len(self._served) > RESULT_MEMO_SIZE:
            self._served.popitem(last=False)

    # ------------------------------------------------------------------- stats

    def stats(self) -> AsyncGatewayStats:
        """Snapshot the front-end counters plus the wrapped gateway's."""
        counters = self._counters
        return dataclasses.replace(
            counters,
            queue_depth=sum(
                not (led[0].running() or led[0].done()) for led in self._led.values()
            ),
            outstanding=len(self._waiters),
            in_flight_batches=len(self._led),
            batch_sizes=dict(counters.batch_sizes),
            tenants={
                tenant: dataclasses.replace(state)
                for tenant, state in counters.tenants.items()
            },
            gateway=self._gateway.stats(),
        )

    @property
    def gateway(self) -> ShardedOptimizerGateway:
        """The wrapped threaded gateway (for its shards and stats)."""
        return self._gateway

    # --------------------------------------------------------------- lifecycle

    def _check_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise RuntimeError(
                "AsyncOptimizerGateway is bound to the event loop that first "
                "used it; create one instance per loop"
            )

    async def close(self) -> None:
        """Stop admitting, drain every dispatched flight and waiter, release.

        Queued flights still run (their waiters get real answers, not
        cancellations); every led dispatch and every outstanding waiter is
        awaited, and then the wrapped gateway, when owned, is closed.
        Idempotent; concurrent requests racing ``close`` either complete or
        see the closed error at admission.
        """
        if self._closed:
            return
        self._check_loop()
        self._closed = True
        while self._led or self._waiters:
            dispatches = [asyncio.wrap_future(led[0]) for led in self._led.values()]
            await asyncio.wait({*self._waiters, *dispatches})
        if self._own_gateway:
            self._gateway.close()

    async def __aenter__(self) -> "AsyncOptimizerGateway":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
