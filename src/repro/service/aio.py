"""An asyncio front-end over the sharded gateway: batching and backpressure.

The threaded :class:`~repro.service.gateway.ShardedOptimizerGateway` costs
one OS thread per concurrently waiting request; a serving tier that faces
thousands of connections wants requests to be *queued*, not *parked on
threads*.  :class:`AsyncOptimizerGateway` is that tier:

* **adaptive micro-batching** — a cache miss does not dispatch immediately.
  The flight it leads joins a per-``(settings, workers, shard)`` window that
  flushes as one sub-batch on that shard when the window is ``max_batch``
  flights deep or ``batch_window_ms`` old.  The window is *adaptive*: while
  the dispatch backend is idle the window flushes on the next event-loop
  tick (batching would only add latency), and every batch completion drains
  the queued windows immediately (the backend just proved it has capacity)
  — so the configured window is an upper bound paid only under sustained
  load, not a tax on every request;
  The fast path serves through the threaded gateway's ``serve_if_cached``,
  so on a tiered shard cache a *disk* hit bypasses admission control and
  batching exactly like a memory hit — after a warm restart the whole
  previously-seen working set is fast-path traffic, not a miss storm;
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
  timeout, task cancellation) releases its admission slot at once; a
  still-queued flight whose waiters all cancelled is withdrawn before
  dispatch (the DP never runs), and a cancellation after dispatch simply
  discards that waiter's answer — the flight, its other waiters, and the
  in-flight gauges are untouched;
* **coalescing without a second table** — singleflight lives in the
  threaded gateway's one flight table.  A request whose fingerprint is
  already in flight (queued here, dispatched, or led by a thread) attaches
  a callback to that flight's future: no batch slot, no dispatch thread.
  *One DP run per unique fingerprint*, no matter how the traffic arrives;
* **a served-result edge memo** — the shard caches store plans in
  *canonical* numbering and relabel them on every hit; the front-end
  additionally keeps a small LRU of fully-relabeled answers keyed by
  fingerprint (render once, serve many).  A hot client repeating the same
  query object skips canonical relabeling entirely — the single-threaded
  event loop makes this a plain dictionary, no locking.  Plans are frozen,
  so served answers share plan objects safely; only the result envelope is
  copied per response.

Everything above happens on the event loop — the only blocking work (the
DP sub-batches) runs on a small dispatch thread pool, so the loop stays
responsive at any queue depth.  :meth:`AsyncOptimizerGateway.stats`
extends the threaded gateway's snapshot with queue depth, a batch-size
histogram, rejection counters, and per-tenant accounting.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
from collections import Counter, OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.config import OptimizerSettings
from repro.query.query import Query
from repro.service.fingerprint import CanonicalForm
from repro.service.gateway import GatewayStats, LedFlight, ShardedOptimizerGateway
from repro.service.service import CacheEntry, ServiceResult, resolve


class GatewayOverloadedError(RuntimeError):
    """The request was rejected by admission control; retry after a delay.

    ``reason`` is ``"queue-full"`` (the global pending bound is exhausted)
    or ``"tenant-share"`` (this tenant alone holds its full share of slots).
    ``retry_after_s`` estimates when capacity frees up, from the batching
    window and an exponentially weighted average of recent batch service
    times — a client honoring it converges on the gateway's actual drain
    rate instead of hammering a full queue.
    """

    def __init__(self, reason: str, retry_after_s: float, tenant: str) -> None:
        super().__init__(
            f"optimizer gateway overloaded ({reason}) for tenant "
            f"{tenant!r}; retry after {retry_after_s:.3f}s"
        )
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.tenant = tenant


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
    already in the table instead of leading one; ``batched`` counts
    *flights* dispatched inside batches, and ``batch_sizes`` histograms
    flights per dispatched batch, so the operator can see whether the
    window actually aggregates traffic or degenerates to singleton batches.
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
    batched: int = 0
    rejected_queue_full: int = 0
    rejected_tenant_share: int = 0
    cancelled: int = 0
    queue_depth: int = 0
    outstanding: int = 0
    dispatched_batches: int = 0
    in_flight_batches: int = 0
    batch_sizes: dict[int, int] = field(default_factory=Counter)
    tenants: dict[str, TenantStats] = field(default_factory=dict)
    gateway: GatewayStats = field(default_factory=GatewayStats)

    @property
    def rejections(self) -> int:
        """Total rejected requests across both admission-control reasons."""
        return self.rejected_queue_full + self.rejected_tenant_share

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready front-end counters (the wrapped gateway prints its own)."""
        return {
            "fast_path_hits": self.fast_path_hits,
            "result_memo_hits": self.result_memo_hits,
            "admitted": self.admitted,
            "coalesced": self.coalesced,
            "batched": self.batched,
            "dispatched_batches": self.dispatched_batches,
            "batch_sizes": {
                str(size): count for size, count in sorted(self.batch_sizes.items())
            },
            "rejections": {
                "queue_full": self.rejected_queue_full,
                "tenant_share": self.rejected_tenant_share,
            },
            "cancelled": self.cancelled,
            "tenants": {
                tenant: dataclasses.asdict(stats)
                for tenant, stats in sorted(self.tenants.items())
            },
        }


class _Window:
    """The open micro-batch for one ``(settings, workers, shard)`` group.

    ``flights`` holds the led flights not yet dispatched, by fingerprint,
    each with the asyncio waiters that still want it — the only place a
    queued flight's liveness is recorded.
    """

    __slots__ = ("flights", "timer")

    def __init__(self) -> None:
        self.flights: dict[str, tuple[LedFlight, list[asyncio.Future]]] = {}
        self.timer: asyncio.TimerHandle | None = None


class AsyncOptimizerGateway:
    """Asyncio front door over a :class:`ShardedOptimizerGateway`.

    Args:
        gateway: the threaded sharded gateway to serve through.  ``None``
            builds one from ``gateway_kwargs`` and owns it (closed with this
            front-end); a passed-in gateway is borrowed and left open unless
            ``own_gateway=True``.
        batch_window_ms: upper bound on how long a queued miss waits for
            companions before its micro-batch dispatches.  Paid only while
            the dispatch backend is busy; an idle backend flushes on the
            next event-loop tick.
        max_batch: flush a window early once it holds this many unique
            fingerprints.
        max_pending: bound on outstanding admitted requests (queued plus
            dispatched, not yet answered); beyond it requests are rejected
            with ``reason="queue-full"``.
        tenant_share: fraction of ``max_pending`` a single tenant may hold
            (at least one slot).  The remainder stays available to other
            tenants no matter how hot one tenant runs.
        result_memo_size: entries in the served-result edge memo (fully
            relabeled answers by fingerprint, LRU beyond); ``0`` disables
            it.  The memo never changes an answer — results are a pure
            function of the fingerprint — it only skips re-relabeling, but
            a memo-served answer does not refresh the shard cache's LRU
            recency for that key.
        dispatch_threads: size of the thread pool running dispatched
            batches; defaults to the wrapped gateway's shard count (one
            batch per shard in flight).
        own_gateway: close ``gateway`` when this front-end closes.
        **gateway_kwargs: forwarded to :class:`ShardedOptimizerGateway` when
            ``gateway`` is ``None``.

    Single-loop discipline: all bookkeeping runs on the event loop that
    first calls :meth:`optimize`; using the instance from a second loop is
    an error.  The dispatch pool threads only execute the gateway's
    ``run_claimed`` (itself thread-safe); flights report back to the loop
    through their futures' callbacks.
    """

    def __init__(
        self,
        gateway: ShardedOptimizerGateway | None = None,
        *,
        batch_window_ms: float = 2.0,
        max_batch: int = 16,
        max_pending: int = 128,
        tenant_share: float = 0.5,
        result_memo_size: int = 1024,
        dispatch_threads: int | None = None,
        own_gateway: bool = False,
        **gateway_kwargs: object,
    ) -> None:
        if batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be >= 0, got {batch_window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if not 0.0 < tenant_share <= 1.0:
            raise ValueError(f"tenant_share must be in (0, 1], got {tenant_share}")
        if result_memo_size < 0:
            raise ValueError(f"result_memo_size must be >= 0, got {result_memo_size}")
        if gateway is None:
            gateway = ShardedOptimizerGateway(**gateway_kwargs)  # type: ignore[arg-type]
            own_gateway = True
        self._gateway = gateway
        self._own_gateway = own_gateway
        self.batch_window_s = batch_window_ms / 1e3
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.tenant_cap = max(1, math.floor(max_pending * tenant_share))
        self._executor = ThreadPoolExecutor(
            max_workers=(
                dispatch_threads if dispatch_threads is not None else gateway.n_shards
            ),
            thread_name_prefix="aio-dispatch",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        #: Open micro-batches by (settings, workers, shard index).
        self._windows: dict[tuple[OptimizerSettings, int, int], _Window] = {}
        self._dispatches: set[asyncio.Future] = set()
        #: Admitted requests not yet answered (the ``outstanding`` gauge).
        self._waiters: set[asyncio.Future] = set()
        #: Fully-relabeled answers by (fingerprint, θ): value is (numbering
        #: the plans are in, result to copy from).  θ is part of the memo key
        #: because one θ-free fingerprint serves many bound answers; touched
        #: only on the loop.
        self._served: OrderedDict[
            tuple[str, float | None], tuple[tuple[int, ...], ServiceResult]
        ] = OrderedDict()
        self.result_memo_size = result_memo_size
        self._counters = AsyncGatewayStats()
        #: EWMA of batch service time, seeding the retry-after estimate.
        self._ewma_batch_s = max(self.batch_window_s, 1e-3)

    # ----------------------------------------------------------------- request

    async def optimize(
        self,
        query: Query,
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
        tenant: str = "default",
    ) -> ServiceResult:
        """Optimize one query; hits return immediately, misses micro-batch.

        Raises :class:`GatewayOverloadedError` when admission control
        rejects the request (the caller should back off ``retry_after_s``),
        and propagates the optimization's own error if the DP fails.
        Cancelling the returned awaitable releases the admission slot and,
        when this waiter was a queued flight's last, withdraws the flight.
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

        memo = self._served.get((key, theta))
        if memo is not None and memo[0] == canonical.numbering:
            # Edge-memo hit: the fully-relabeled answer for this exact
            # numbering (and θ binding) was already rendered — serve a fresh
            # envelope over the shared frozen plans.
            self._served.move_to_end((key, theta))
            counters.fast_path_hits += 1
            counters.result_memo_hits += 1
            state.completed += 1
            return dataclasses.replace(
                memo[1], plans=list(memo[1].plans), cached=True
            )
        served = self._gateway.serve_if_cached(canonical, key, theta=theta)
        if served is None:
            reason = self._admission_verdict(state)
            if reason is not None:
                state.rejected += 1
                if reason == "queue-full":
                    counters.rejected_queue_full += 1
                else:
                    counters.rejected_tenant_share += 1
                raise GatewayOverloadedError(reason, self._retry_after_s(), tenant)
            role, flight = self._gateway.claim(key)
            if role == "hit":  # the entry landed between the probe and the claim
                served = self._gateway.finish(role, flight, canonical, key, theta)
        if served is not None:
            counters.fast_path_hits += 1
            state.completed += 1
            self._remember((key, theta), canonical.numbering, served)
            return served

        assert self._loop is not None
        waiter: asyncio.Future[ServiceResult] = self._loop.create_future()
        counters.admitted += 1
        state.outstanding += 1
        self._waiters.add(waiter)
        waiter.add_done_callback(partial(self._on_waiter_done, state))
        if role == "lead":
            # Queue θ-free: the run must produce the unbound frontier (and a
            # single envelope entry), whatever θ this waiter asked.
            self._enqueue(
                (query, canonical, key, flight), waiter, settings.without_theta(), workers
            )
        else:
            # Already in flight: ride along — no batch slot, no dispatch
            # thread.  θ is not part of the fingerprint, so requests for
            # *different* θs of one shape coalesce here too, and each binds
            # its own θ when the flight lands.
            counters.coalesced += 1
            for window in self._windows.values():
                if key in window.flights:  # still queued: keep it alive
                    window.flights[key][1].append(waiter)
                    break
        # ``add_done_callback`` (never ``asyncio.wrap_future``): cancelling
        # this waiter must not propagate into the flight others share.  The
        # flight resolves on whichever thread ran it; hop to the loop with
        # ``_settle(waiter, role, canonical, key, theta, flight)``.
        flight.add_done_callback(
            partial(
                self._loop.call_soon_threadsafe,
                self._settle, waiter, role, canonical, key, theta,
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
        batches_ahead = 1 + len(self._waiters) // self.max_batch
        return self.batch_window_s + batches_ahead * self._ewma_batch_s

    def _on_waiter_done(self, state: TenantStats, waiter: asyncio.Future) -> None:
        """Single accounting point for every way a waiter can finish."""
        self._waiters.discard(waiter)
        state.outstanding -= 1
        if waiter.cancelled():
            self._counters.cancelled += 1
            state.cancelled += 1
        elif waiter.exception() is not None:
            state.failed += 1
        else:
            state.completed += 1

    # ---------------------------------------------------------------- batching

    def _enqueue(
        self,
        flight: LedFlight,
        waiter: asyncio.Future,
        settings: OptimizerSettings,
        workers: int,
    ) -> None:
        """Place a freshly led flight in its group's window; decide when to flush."""
        assert self._loop is not None
        key = flight[2]
        group = (settings, workers, self._gateway.shard_for(key))
        window = self._windows.get(group)
        if window is None:
            window = self._windows[group] = _Window()
        window.flights[key] = (flight, [waiter])
        if len(window.flights) >= self.max_batch:
            self._flush(group)
        elif not self._dispatches:
            # Adaptive fast path: the backend is idle, so waiting out the
            # window would be pure added latency.  Flush on the next loop
            # tick — late enough that every task already runnable on this
            # tick (a burst arriving "simultaneously") can still join.
            if window.timer is not None:
                window.timer.cancel()
            window.timer = self._loop.call_later(0.0, self._flush, group)
        elif window.timer is None:
            window.timer = self._loop.call_later(
                self.batch_window_s, self._flush, group
            )

    def _flush(self, group: tuple[OptimizerSettings, int, int]) -> None:
        """Dispatch one group's window as a single sub-batch on its shard."""
        assert self._loop is not None
        window = self._windows.pop(group, None)
        if window is None:
            return
        if window.timer is not None:
            window.timer.cancel()
        live: list[LedFlight] = []
        for flight, waiters in window.flights.values():
            if all(waiter.done() for waiter in waiters):
                self._gateway.withdraw(flight)  # every waiter cancelled: never run
            else:
                live.append(flight)
        if not live:
            return
        settings, workers, shard_index = group
        counters = self._counters
        counters.dispatched_batches += 1
        counters.batched += len(live)
        counters.batch_sizes[len(live)] += 1
        dispatch = self._loop.run_in_executor(
            self._executor,
            self._gateway.run_claimed,
            shard_index,
            live,
            settings,
            workers,
        )
        self._dispatches.add(dispatch)
        dispatch.add_done_callback(partial(self._on_batch_done, self._loop.time()))

    def _on_batch_done(self, started: float, dispatch: asyncio.Future) -> None:
        """Account a finished batch; then drain the queue.

        The batch's waiters are settled by their flights' own callbacks
        (:meth:`_settle`), scheduled before this one.
        """
        assert self._loop is not None
        self._dispatches.discard(dispatch)
        elapsed = max(self._loop.time() - started, 1e-6)
        self._ewma_batch_s += 0.25 * (elapsed - self._ewma_batch_s)
        # The backend just freed capacity: drain queued windows immediately
        # rather than letting them ripen to their timers.
        for group in list(self._windows):
            self._flush(group)
        dispatch.result()  # run failures travel on the flights; this is bugs only

    def _settle(
        self,
        waiter: asyncio.Future,
        role: str,
        canonical: CanonicalForm,
        key: str,
        theta: float | None,
        flight: Future[CacheEntry],
    ) -> None:
        """Deliver a resolved flight to one waiter: its numbering, its θ.

        A waiter cancelled meanwhile is skipped — only its own answer is
        discarded.  Each answer is memoized under its ``(key, θ)`` so the
        next identical request is an edge-memo hit.
        """
        if waiter.done():
            return
        error = flight.exception()
        if error is not None:
            waiter.set_exception(error)
            return
        result = self._gateway.finish(role, flight, canonical, key, theta)
        self._remember((key, theta), canonical.numbering, result)
        waiter.set_result(result)

    def _remember(
        self,
        key: tuple[str, float | None],
        numbering: tuple[int, ...],
        result: ServiceResult,
    ) -> None:
        """LRU-memoize a served answer for its (fingerprint, θ, numbering).

        A defensive copy is stored, never the object handed to a caller:
        callers may legitimately mutate their result's ``plans`` list in
        place (sorting, filtering), and the memo must not serve those
        mutations to later requesters.  The frozen plan objects themselves
        are shared.
        """
        if self.result_memo_size == 0:
            return
        self._served[key] = (
            numbering,
            dataclasses.replace(result, plans=list(result.plans)),
        )
        self._served.move_to_end(key)
        while len(self._served) > self.result_memo_size:
            self._served.popitem(last=False)

    # ------------------------------------------------------------------- stats

    def stats(self) -> AsyncGatewayStats:
        """Snapshot the front-end counters plus the wrapped gateway's."""
        counters = self._counters
        return dataclasses.replace(
            counters,
            queue_depth=sum(len(window.flights) for window in self._windows.values()),
            outstanding=len(self._waiters),
            in_flight_batches=len(self._dispatches),
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
        """Stop admitting, flush and drain every queued request, release.

        Queued flights are dispatched (their waiters get real answers, not
        cancellations), in-flight batches and every outstanding waiter are
        awaited, and then the dispatch pool — plus the wrapped gateway,
        when owned — is shut down.  Idempotent; concurrent requests racing
        ``close`` either complete or see the closed error at admission.
        """
        if self._closed:
            return
        self._check_loop()
        self._closed = True
        for group in list(self._windows):
            self._flush(group)
        while self._dispatches or self._waiters:
            await asyncio.wait(self._dispatches | self._waiters)
        self._executor.shutdown(wait=True)
        if self._own_gateway:
            self._gateway.close()

    async def __aenter__(self) -> "AsyncOptimizerGateway":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
