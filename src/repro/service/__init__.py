"""Optimizer-as-a-service: fingerprinting, plan caching, batched serving.

The paper's MPQ makes one optimization fast by fanning its partitions out to
workers; this package makes a *stream* of optimizations fast by recognizing
repeated (or isomorphic) queries and keeping worker processes warm between
requests.  See :class:`OptimizerService` for the single-service front door,
:class:`ShardedOptimizerGateway` for the concurrency-safe sharded gateway
over it, and :class:`AsyncOptimizerGateway` for the asyncio front-end that
parks waiting requests on futures and adds per-tenant backpressure on top.  The
out-of-process layer crosses machine boundaries:
:class:`ShardServer` serves one shard over a unix socket or TCP port,
:class:`NetworkOptimizerGateway` routes fingerprints to shard servers on a
consistent-hash ring with per-shard circuit breakers, and :class:`ShardFleet`
supervises a fleet of shard processes — restarting crashes with backoff and
rebalancing the ring live by shipping moved keys' cache entries to their
new owner before routers learn the new topology.

One cache class serves every door: :class:`TieredPlanCache`, a bounded
in-memory LRU that can sit over a persistent :class:`DiskTier`, so cached
plans — each carrying a :class:`Provenance` record — survive restarts and
can be selectively invalidated (:class:`InvalidationPredicate`) when a
backend or cost model changes.  Its :class:`CacheStats` counts memory and
disk hits alike.

Parametric queries are canonicalized **θ-free**: the cost-weight parameter
θ never enters a fingerprint, so one cached *envelope* entry (the whole
lower-envelope frontier plus its :class:`~repro.core.envelope.EnvelopeIndex`
breakpoint index) answers every θ of a query shape by binary search instead
of a DP run — through every front door above, local or networked.
"""

from repro.service.aio import (
    AsyncGatewayStats,
    AsyncOptimizerGateway,
    GatewayOverloadedError,
    TenantStats,
)
from repro.service.fingerprint import (
    CanonicalForm,
    canonicalize,
    fingerprint,
    fingerprint_canonical,
    settings_signature,
)
from repro.service.fleet import (
    FleetError,
    FleetRebalanceError,
    ShardFleet,
    ShardHandle,
    run_shard_fleet,
)
from repro.service.gateway import GatewayStats, ShardedOptimizerGateway
from repro.service.net import (
    Address,
    CircuitBreaker,
    ConsistentHashRing,
    NetworkOptimizerGateway,
    RemoteOptimizationError,
    ShardUnavailableError,
)
from repro.service.provenance import (
    InvalidationPredicate,
    Provenance,
    aggregate_worker_stats,
)
from repro.service.remap import invert, remap_plan
from repro.service.server import ShardServer, run_shard_server
from repro.service.service import OptimizerService, ServiceResult, ShardStats
from repro.service.tiers import (
    ENVELOPE_ENTRY,
    SCALAR_ENTRY,
    CacheEntry,
    CacheStats,
    DiskTier,
    DiskTierLockedError,
    TieredPlanCache,
)

__all__ = [
    "AsyncGatewayStats",
    "AsyncOptimizerGateway",
    "GatewayOverloadedError",
    "TenantStats",
    "CacheEntry",
    "CacheStats",
    "DiskTier",
    "DiskTierLockedError",
    "TieredPlanCache",
    "Address",
    "CircuitBreaker",
    "ConsistentHashRing",
    "NetworkOptimizerGateway",
    "RemoteOptimizationError",
    "ShardUnavailableError",
    "ShardServer",
    "run_shard_server",
    "FleetError",
    "FleetRebalanceError",
    "ShardFleet",
    "ShardHandle",
    "run_shard_fleet",
    "Provenance",
    "InvalidationPredicate",
    "aggregate_worker_stats",
    "CanonicalForm",
    "canonicalize",
    "fingerprint",
    "fingerprint_canonical",
    "settings_signature",
    "GatewayStats",
    "ShardedOptimizerGateway",
    "ShardStats",
    "invert",
    "remap_plan",
    "OptimizerService",
    "ServiceResult",
    "ENVELOPE_ENTRY",
    "SCALAR_ENTRY",
]
