"""Seeded multi-tenant optimizer traffic: generation and replay.

Serving-layer behavior — misses coalescing, admission control
rejecting, tenants contending — only shows under traffic whose *shape*
resembles production: a few fingerprints dominating (Zipf popularity),
requests arriving in bursts rather than a smooth stream, several tenants of
very different intensity, and a mix of optimization features (plain,
interesting-orders, parametric) keyed to different cache entries.  This
module generates exactly that shape **deterministically**: the same
:class:`TrafficProfile` always produces the same schedule, so a soak test
that replays it asserts exact counter values, and a benchmark replays the
identical request stream against two serving stacks.

A schedule is a plain list of :class:`TrafficRequest` values ordered by
arrival offset; :func:`replay_threaded` drives it through the threaded
:class:`~repro.service.gateway.ShardedOptimizerGateway` with a herd of
client threads, and :func:`replay_async` drives the identical schedule
through an :class:`~repro.service.aio.AsyncOptimizerGateway` with a herd of
client tasks, honoring ``retry_after_s`` on admission rejections.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from dataclasses import dataclass, field

import random

from repro.config import PARAMETRIC_OBJECTIVES, OptimizerSettings
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind, Query
from repro.service.fingerprint import fingerprint
from repro.service.service import ServiceResult

#: The optimizer-feature mix a serving tier sees: each feature is a distinct
#: ``OptimizerSettings`` value, hence a distinct fingerprint per query.
FEATURE_SETTINGS: dict[str, OptimizerSettings] = {
    "plain": OptimizerSettings(),
    "orders": OptimizerSettings(consider_orders=True),
    "parametric": OptimizerSettings(
        objectives=PARAMETRIC_OBJECTIVES, parametric=True
    ),
}


def settings_for(feature: str) -> OptimizerSettings:
    """The :class:`OptimizerSettings` a feature name stands for."""
    try:
        return FEATURE_SETTINGS[feature]
    except KeyError:
        raise ValueError(
            f"unknown feature {feature!r}; choose from {sorted(FEATURE_SETTINGS)}"
        ) from None


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's share of the traffic stream."""

    name: str
    #: Relative traffic intensity (probability weight per request).
    weight: float = 1.0


@dataclass(frozen=True)
class TrafficProfile:
    """Everything that determines a generated schedule, seed included.

    The defaults make a small, fast profile suitable for tier-1 soak tests;
    benchmarks scale ``n_requests``/``n_unique``/``tables`` up explicitly.
    """

    n_requests: int = 128
    #: Size of the unique query pool that Zipf popularity ranks over.
    n_unique: int = 12
    tables: tuple[int, int] = (4, 6)
    kinds: tuple[JoinGraphKind, ...] = (
        JoinGraphKind.STAR,
        JoinGraphKind.CHAIN,
        JoinGraphKind.CYCLE,
    )
    #: Zipf skew ``s``: rank ``r`` is drawn with weight ``1 / r**s``.
    zipf_skew: float = 1.2
    tenants: tuple[TenantProfile, ...] = (
        TenantProfile("alpha", weight=4.0),  # the hot tenant
        TenantProfile("beta", weight=2.0),
        TenantProfile("gamma", weight=1.0),
    )
    #: Feature mix as (name, weight) pairs over :data:`FEATURE_SETTINGS`.
    features: tuple[tuple[str, float], ...] = (
        ("plain", 0.6),
        ("orders", 0.25),
        ("parametric", 0.15),
    )
    #: Worker counts requested by clients (fingerprints hash the *resolved*
    #: partition count, so distinct requests here may still share entries).
    workers: tuple[int, ...] = (2, 4, 8)
    #: Bursty arrivals: bursts of ~``burst_mean`` requests with
    #: ``intra_gap_ms`` mean spacing, separated by ``inter_gap_ms`` lulls.
    burst_mean: float = 8.0
    intra_gap_ms: float = 0.05
    inter_gap_ms: float = 2.0
    #: θ values drawn (uniformly) for parametric-feature requests.  Empty
    #: (default) leaves parametric requests unbound — the pre-envelope
    #: behavior — so existing seeded schedules replay unchanged; a non-empty
    #: tuple makes each parametric request ask for a concrete θ, exercising
    #: the serve-from-envelope path.
    parametric_thetas: tuple[float, ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class TrafficRequest:
    """One scheduled arrival."""

    #: Arrival offset from replay start, seconds (non-decreasing in a schedule).
    at_s: float
    tenant: str
    query: Query
    feature: str
    n_workers: int
    #: Popularity rank of the query in the profile's pool (0 = hottest).
    rank: int
    #: θ binding for a parametric request (``None`` = unbound).  θ is not
    #: part of the fingerprint, so requests differing only in θ share one
    #: cache entry — the envelope — by design.
    theta: float | None = None

    @property
    def settings(self) -> OptimizerSettings:
        """The settings this request optimizes under."""
        base = settings_for(self.feature)
        if self.theta is None:
            return base
        return base.replace(theta=self.theta)


def generate_traffic(profile: TrafficProfile = TrafficProfile()) -> list[TrafficRequest]:
    """Generate the deterministic schedule a profile describes.

    The query pool is generated first (so pool contents depend only on the
    seed and pool parameters), then popularity, tenant, feature, worker
    count, and arrival gaps are drawn per request from one seeded stream.
    """
    if profile.n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if profile.n_unique < 1:
        raise ValueError("n_unique must be >= 1")
    for feature, __ in profile.features:
        settings_for(feature)  # validate early

    rng = random.Random(profile.seed)
    generator = SteinbrunnGenerator(profile.seed, clustered_tables=True)
    low, high = profile.tables
    pool = [
        generator.query(rng.randint(low, high), rng.choice(profile.kinds))
        for __ in range(profile.n_unique)
    ]

    ranks = list(range(profile.n_unique))
    rank_weights = [1.0 / (rank + 1) ** profile.zipf_skew for rank in ranks]
    tenant_names = [tenant.name for tenant in profile.tenants]
    tenant_weights = [tenant.weight for tenant in profile.tenants]
    feature_names = [name for name, __ in profile.features]
    feature_weights = [weight for __, weight in profile.features]

    schedule: list[TrafficRequest] = []
    at_s = 0.0
    burst_left = 0
    for __ in range(profile.n_requests):
        if burst_left <= 0:
            at_s += rng.expovariate(1.0) * profile.inter_gap_ms / 1e3
            burst_left = 1 + int(rng.expovariate(1.0 / max(profile.burst_mean, 1e-9)))
        else:
            at_s += rng.expovariate(1.0) * profile.intra_gap_ms / 1e3
        burst_left -= 1
        rank = rng.choices(ranks, weights=rank_weights)[0]
        feature = rng.choices(feature_names, weights=feature_weights)[0]
        theta = (
            rng.choice(profile.parametric_thetas)
            if feature == "parametric" and profile.parametric_thetas
            else None
        )
        schedule.append(
            TrafficRequest(
                at_s=at_s,
                tenant=rng.choices(tenant_names, weights=tenant_weights)[0],
                query=pool[rank],
                feature=feature,
                n_workers=rng.choice(profile.workers),
                rank=rank,
                theta=theta,
            )
        )
    return schedule


def unique_fingerprints(schedule: list[TrafficRequest]) -> set[str]:
    """The distinct cache keys a schedule touches.

    Distinct ``(query, feature, workers)`` combinations can still collide —
    worker counts that resolve to the same partition count share a
    fingerprint by design — so tests assert DP-run counts against this, not
    against naive tuple counting.
    """
    return {
        fingerprint(request.query, request.settings, request.n_workers)
        for request in schedule
    }


def latency_percentiles(
    values_ms: list[float], points: tuple[float, ...] = (50, 90, 99)
) -> dict[str, float]:
    """Nearest-rank percentiles of a latency sample, in milliseconds.

    Nearest-rank: the p-th percentile of N ordered values is the value at
    rank ``ceil(p/100 * N)`` (1-based), i.e. index ``ceil(p/100 * N) - 1``.
    """
    ordered = sorted(values_ms)
    if not ordered:
        return {f"p{point:g}": 0.0 for point in points}
    return {
        f"p{point:g}": ordered[
            min(
                len(ordered) - 1,
                max(0, math.ceil(len(ordered) * point / 100.0) - 1),
            )
        ]
        for point in points
    }


@dataclass
class ReplayReport:
    """What a replay observed, aligned with the schedule order."""

    results: list[ServiceResult]
    latencies_ms: list[float]
    wall_s: float
    #: Admission rejections that were retried (async replay only).
    retries: int = 0
    clients: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def throughput_qps(self) -> float:
        """Completed requests per second of replay wall time."""
        return len(self.results) / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentiles(self, points: tuple[float, ...] = (50, 90, 99)) -> dict[str, float]:
        """Latency percentiles in milliseconds, nearest-rank."""
        return latency_percentiles(self.latencies_ms, points)


def _client_slices(schedule: list[TrafficRequest], n_clients: int) -> list[list[int]]:
    """Round-robin schedule indices over clients, preserving arrival order."""
    slices: list[list[int]] = [[] for __ in range(n_clients)]
    for index in range(len(schedule)):
        slices[index % n_clients].append(index)
    return slices


def replay_threaded(
    gateway,
    schedule: list[TrafficRequest],
    n_clients: int = 8,
    paced: bool = False,
) -> ReplayReport:
    """Drive a schedule through a threaded gateway with a client-thread herd.

    Each client thread submits its round-robin slice of the schedule in
    arrival order via ``gateway.optimize``.  With ``paced=True`` a client
    sleeps until each request's ``at_s`` offset; the default replays as fast
    as the gateway allows (the throughput-measurement mode).
    """
    results: list[ServiceResult | None] = [None] * len(schedule)
    latencies: list[float] = [0.0] * len(schedule)
    errors: list[BaseException | None] = [None] * n_clients
    barrier = threading.Barrier(n_clients + 1)

    def client(indices: list[int], slot: int) -> None:
        barrier.wait()
        started = time.perf_counter()
        try:
            for index in indices:
                request = schedule[index]
                if paced:
                    delay = request.at_s - (time.perf_counter() - started)
                    if delay > 0:
                        time.sleep(delay)
                begin = time.perf_counter()
                results[index] = gateway.optimize(
                    request.query, request.settings, request.n_workers
                )
                latencies[index] = (time.perf_counter() - begin) * 1e3
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors[slot] = error

    threads = [
        threading.Thread(target=client, args=(indices, slot))
        for slot, indices in enumerate(_client_slices(schedule, n_clients))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    for error in errors:
        if error is not None:
            raise error
    assert all(result is not None for result in results)
    return ReplayReport(
        results=results,  # type: ignore[arg-type]
        latencies_ms=latencies,
        wall_s=wall_s,
        clients=n_clients,
    )


async def replay_async(
    agateway,
    schedule: list[TrafficRequest],
    n_clients: int = 8,
    paced: bool = False,
    max_attempts: int = 200,
) -> ReplayReport:
    """Drive a schedule through the async gateway with a client-task herd.

    The same round-robin slicing as :func:`replay_threaded`, so the two
    replays are comparable request-for-request.  Admission rejections
    (:class:`~repro.service.aio.GatewayOverloadedError`) are honored: the
    client sleeps the advertised ``retry_after_s`` and resubmits, up to
    ``max_attempts`` per request; retries are counted in the report.
    """
    from repro.service.aio import GatewayOverloadedError

    results: list[ServiceResult | None] = [None] * len(schedule)
    latencies: list[float] = [0.0] * len(schedule)
    retries = 0
    loop = asyncio.get_running_loop()
    started = loop.time()

    async def client(indices: list[int]) -> None:
        nonlocal retries
        for index in indices:
            request = schedule[index]
            if paced:
                delay = request.at_s - (loop.time() - started)
                if delay > 0:
                    await asyncio.sleep(delay)
            begin = loop.time()
            for attempt in range(max_attempts):
                try:
                    results[index] = await agateway.optimize(
                        request.query,
                        request.settings,
                        request.n_workers,
                        tenant=request.tenant,
                    )
                    break
                except GatewayOverloadedError as rejection:
                    retries += 1
                    if attempt == max_attempts - 1:
                        raise
                    await asyncio.sleep(rejection.retry_after_s)
            latencies[index] = (loop.time() - begin) * 1e3

    await asyncio.gather(
        *[client(indices) for indices in _client_slices(schedule, n_clients)]
    )
    wall_s = loop.time() - started
    assert all(result is not None for result in results)
    return ReplayReport(
        results=results,  # type: ignore[arg-type]
        latencies_ms=latencies,
        wall_s=wall_s,
        retries=retries,
        clients=n_clients,
    )
