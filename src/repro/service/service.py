"""The optimizer-as-a-service front-end.

:class:`OptimizerService` turns the one-shot :func:`repro.optimize_mpq` into
a long-lived service suited to heavy query-optimization traffic:

* every request is canonicalized and fingerprinted
  (:mod:`repro.service.fingerprint`), so repeated — or merely isomorphic —
  queries are answered from a bounded LRU cache
  (:mod:`repro.service.cache`) in O(plan size) instead of O(DP);
* cache misses run the paper's Algorithm 1 on a pluggable executor; with a
  :class:`~repro.cluster.executors.PersistentProcessPoolExecutor`,
  :meth:`OptimizerService.optimize_batch` interleaves partition tasks from
  many concurrent queries onto one warm worker pool, so no query waits for
  another query's stragglers and no request pays pool startup;
* cached plans are stored in canonical table numbering and remapped to each
  requester's numbering on the way out (:mod:`repro.service.remap`), which
  keeps hits correct even when two clients number the same relations
  differently.

This is the substrate every other front door builds on: a gateway shard is
an ``OptimizerService`` owning a fingerprint range, and all doors turn a
request into a cache key with :func:`resolve` and an entry into an answer
with :meth:`OptimizerService.answer` — each decision has this one home.
"""

from __future__ import annotations

# Imported eagerly: evaluating ``concurrent.futures.process`` lazily inside
# an ``except`` clause raises AttributeError (masking the real error) when
# the submodule was never imported — e.g. a serial executor raising before
# any process pool existed.
from concurrent.futures.process import BrokenProcessPool
import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.simulator import (
    DEFAULT_CLUSTER,
    ClusterModel,
    SimulatedTiming,
    simulate_mpq_run,
)
from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.core.constraints import usable_partitions
from repro.core.envelope import (
    FULL_THETA_DOMAIN,
    EnvelopeIndex,
    best_index_at,
    build_envelope_index,
)
from repro.core.master import MasterResult, PartitionExecutor
from repro.core.worker import PartitionResult, registry_generation
from repro.cluster.executors import SerialPartitionExecutor
from repro.cost.pruning import final_prune, make_pruning
from repro.plans.plan import Plan, plan_tie_key
from repro.query.query import Query
from repro.service.cache import CacheStats, CacheTier, PlanCache
from repro.service.fingerprint import (
    CanonicalForm,
    canonicalize,
    fingerprint_canonical,
    settings_signature,
)
from repro.service.provenance import Provenance, aggregate_worker_stats
from repro.service.remap import invert, remap_plan


#: ``CacheEntry.kind`` values: a scalar entry caches one optimization's
#: plan frontier; an envelope entry caches a parametric run's whole
#: lower-envelope frontier plus its breakpoint index, so every θ of the
#: query shape is answered from the one entry.
SCALAR_ENTRY = "scalar"
ENVELOPE_ENTRY = "envelope"


@dataclass
class CacheEntry:
    """What the cache retains per fingerprint: plans in canonical numbering.

    Storing plans canonically (rather than in the first requester's
    numbering) makes serving any isomorphic request a single remap; the
    simulated accounting is that of the original run, which is exactly what
    an identical request would have measured.  Public because the sharded
    gateway (:mod:`repro.service.gateway`) hands entries from a completed
    in-flight run directly to coalesced waiters.

    An entry is the cache's unit of *derived artifact*, not necessarily a
    single answer: an :data:`ENVELOPE_ENTRY` stores a parametric run's full
    lower-envelope frontier plus its breakpoint index, from which a
    θ-specific request is answered by O(log n) lookup
    (:meth:`select_index`) instead of a DP run.
    """

    canonical_plans: list[Plan]
    n_partitions: int
    simulated: SimulatedTiming
    #: Enumeration backend that computed the cached plans; replayed on hits
    #: so a cached answer stays attributable to the core that produced it.
    backend_used: str = ""
    #: How this entry came to be (backend, resolved settings signature,
    #: registry generation, creation time, aggregated worker stats).  What a
    #: persistent tier persists alongside the plans, and what invalidation
    #: predicates evaluate against.  ``None`` only for hand-built entries.
    provenance: Provenance | None = None
    #: :data:`SCALAR_ENTRY` or :data:`ENVELOPE_ENTRY`.
    kind: str = SCALAR_ENTRY
    #: Breakpoint index over ``canonical_plans`` for envelope entries.
    envelope: EnvelopeIndex | None = None
    #: The shard server's encoded canonical answers, one per selected plan
    #: (:meth:`repro.service.server.ShardServer._lookup_frame`).  It rides
    #: the entry object so it dies with it: an entry that is invalidated,
    #: re-run, re-read from disk or imported is a new object with an empty
    #: memo (``init=False`` keeps ``dataclasses.replace`` from sharing one).
    wire_memo: dict[int | None, bytes] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def select_index(self, theta: float) -> int:
        """Position of the θ-optimal plan in ``canonical_plans``.

        Envelope entries bisect their breakpoint index; an entry without
        one (a scalar-kind parametric entry from a pre-envelope log) falls
        back to the linear reference rule — same selection, just O(n).
        """
        costs = [plan.cost for plan in self.canonical_plans]
        if self.envelope is not None:
            return self.envelope.select(costs, theta)
        return best_index_at(costs, theta)


@dataclass
class ServiceResult:
    """One request's answer: plans in the request's own table numbering."""

    plans: list[Plan]
    n_partitions: int
    fingerprint: str
    #: Whether this answer was served from the plan cache.
    cached: bool
    #: Simulated cluster accounting of the (possibly cached) optimization run.
    simulated_time_ms: float
    network_bytes: int
    #: Enumeration backend that produced the plans (for a cache hit: the
    #: backend of the original run).  Empty only for hand-built results.
    backend_used: str = ""
    #: The θ this result was bound to: ``plans`` holds exactly the one plan
    #: optimal at this parameter value.  ``None`` for unbound results (the
    #: whole frontier, parametric or not).
    theta: float | None = None

    @property
    def best(self) -> Plan:
        """Cheapest plan by the first metric (the plan a DBMS would run).

        Ties are broken by the deterministic cross-backend rule of
        :func:`repro.plans.plan.plan_tie_key` — cached answers therefore
        pick the same best plan as a fresh run on any backend.
        """
        if not self.plans:
            raise ValueError("optimization produced no plan")
        return min(self.plans, key=plan_tie_key)


@dataclass(frozen=True)
class ShardStats:
    """One service's (one gateway shard's) observable state at snapshot time.

    ``cache`` is whatever the service's tier snapshots —
    :class:`~repro.service.cache.CacheStats` for the plain LRU,
    :class:`~repro.service.tiers.TieredStats` for a tiered cache; both
    expose ``hits``/``misses``/``evictions``/``hit_rate`` and ``to_dict``.
    """

    shard: int
    cache: CacheStats
    entries: int
    #: θ-bindings served from a cached envelope (no DP run) on this shard.
    envelope_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """The shard cache's hit rate (0.0 before any lookup)."""
        return self.cache.hit_rate

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready: the shard's own counters over its cache's ``to_dict``."""
        return {
            "shard": self.shard,
            "entries": self.entries,
            "envelope_hits": self.envelope_hits,
            **self.cache.to_dict(),
        }


def relabel(plans: list[Plan], numbering: tuple[int, ...]) -> list[Plan]:
    """Canonical plans in the numbering of the requester ``numbering`` came from.

    ``numbering`` is that requester's ``CanonicalForm.numbering``.  The one
    place answers leave canonical numbering: :meth:`OptimizerService.answer`
    in process, the network client for a shard's canonical ``lookup`` reply.
    """
    mapping = invert(numbering)
    return [remap_plan(plan, mapping) for plan in plans]


def resolve(
    door,
    query: Query,
    settings: OptimizerSettings | None,
    n_workers: int | None,
) -> tuple[OptimizerSettings, int, CanonicalForm, str, float | None]:
    """Turn a request into its θ-free cache key: the one resolver of every door.

    Defaults (``door.settings`` / ``door.n_workers`` of whichever front
    door received the request) → canonical form → θ-free fingerprint → θ,
    returned as the plain tuple ``(settings, workers, canonical, key,
    theta)``: the hit path allocates no per-request object beyond it.  The
    fingerprint never reads θ, so every θ of one query shape resolves to
    the same key (and the same cached envelope); θ rides alongside for
    :meth:`OptimizerService.answer` to bind.
    """
    settings = settings if settings is not None else door.settings
    workers = n_workers if n_workers is not None else door.n_workers
    canonical = canonicalize(query)
    key = fingerprint_canonical(canonical, settings, workers)
    return settings, workers, canonical, key, settings.theta


class OptimizerService:
    """A long-lived optimizer serving a stream of queries with plan caching.

    Args:
        n_workers: default parallelism per query (overridable per call).
        settings: default :class:`~repro.config.OptimizerSettings`.
        executor: how partition tasks physically run.  Defaults to the
            in-process serial executor (deterministic, zero setup); pass a
            :class:`~repro.cluster.executors.PersistentProcessPoolExecutor`
            for true parallelism with warm workers — ``optimize_batch`` then
            batches all queries' partition tasks onto the one pool.
        cache_capacity: bound on resident cached fingerprints (LRU beyond).
        cache: a ready-made cache tier to serve through instead of the
            default in-memory LRU — e.g. a
            :class:`~repro.service.tiers.TieredPlanCache` whose disk tier
            survives restarts.  When given, ``cache_capacity`` is ignored;
            anything satisfying :class:`~repro.service.cache.CacheTier`
            works, since the service only uses the protocol surface.
        cluster: simulated-cluster parameters for the reported accounting.
    """

    def __init__(
        self,
        n_workers: int = 8,
        settings: OptimizerSettings = DEFAULT_SETTINGS,
        executor: PartitionExecutor | None = None,
        cache_capacity: int = 256,
        cluster: ClusterModel = DEFAULT_CLUSTER,
        cache: CacheTier[CacheEntry] | None = None,
    ) -> None:
        self.n_workers = n_workers
        self.settings = settings
        self.executor = executor if executor is not None else SerialPartitionExecutor()
        self.cluster = cluster
        self.cache: CacheTier[CacheEntry] = (
            cache if cache is not None else PlanCache(capacity=cache_capacity)
        )
        self._counter_lock = threading.Lock()
        self._envelope_hits = 0

    @property
    def envelope_hits(self) -> int:
        """θ-specific answers served from a materialized envelope (no DP)."""
        with self._counter_lock:
            return self._envelope_hits

    def stats(self, shard: int = 0) -> ShardStats:
        """Cache counters and entry count (one atomic hold of the tier's own
        lock, so the pair is untorn) plus ``envelope_hits``."""
        cache_stats, entries = self.cache.snapshot_with_size()
        return ShardStats(shard, cache_stats, entries, self.envelope_hits)

    # ------------------------------------------------------------------ single

    def optimize(
        self,
        query: Query,
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> ServiceResult:
        """Optimize one query, serving repeated/isomorphic requests from cache.

        The fingerprint is θ-free, so a θ-bound parametric request hits the
        same entry as every other θ of its shape; the hit is answered by
        envelope lookup, and only the first request per shape runs a DP.
        """
        settings, workers, canonical, key, theta = resolve(
            self, query, settings, n_workers
        )
        entry = self.cache.get(key)
        cached = entry is not None
        if entry is None:
            [entry] = self.run_misses([(query, canonical, key)], settings, workers)
        return self.answer(entry, canonical, key, theta, cached)

    # ------------------------------------------------------------------- batch

    def optimize_batch(
        self,
        queries: Iterable[Query],
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> list[ServiceResult]:
        """Optimize many queries, batching their partition tasks together.

        Lookup order is the input order; duplicate (or isomorphic) queries
        within the batch are optimized once and the rest served as cache
        hits.  When the executor exposes ``submit_partitions`` (the
        persistent pool), *all* missing queries' partition tasks are
        submitted before any result is awaited, so the warm workers drain
        one interleaved task queue instead of running query-by-query.
        """
        requests = list(queries)
        resolved = [resolve(self, query, settings, n_workers) for query in requests]
        found = [self.cache.get(key) for *__, key, __ in resolved]
        # One representative query per missing fingerprint actually runs.
        leaders: dict[str, int] = {}
        for index, ((*__, key, __), entry) in enumerate(zip(resolved, found)):
            if entry is None:
                leaders.setdefault(key, index)
        ran: dict[str, CacheEntry] = {}
        if leaders:
            settings, workers = resolved[0][:2]
            items = [
                (requests[index], resolved[index][2], key)
                for key, index in leaders.items()
            ]
            ran = dict(zip(leaders, self.run_misses(items, settings, workers)))
        results = []
        for index, ((*__, canonical, key, theta), entry) in enumerate(
            zip(resolved, found)
        ):
            led = leaders.get(key) == index
            if entry is None:
                # Served from the run's own entry — present even when the
                # cache retains nothing (capacity=0) or already evicted it.
                entry = ran[key]
                if not led:
                    # Isomorphic duplicate within the batch: its lookup
                    # counted a miss (the entry did not exist yet);
                    # reclassify it as the hit it ultimately was, so the
                    # operator-facing hit rate agrees with the ``cached``
                    # flags on the results.
                    self.cache.reclassify_miss_as_hit()
            results.append(self.answer(entry, canonical, key, theta, cached=not led))
        return results

    # ----------------------------------------------------------------- helpers

    def run_misses(
        self,
        items: Sequence[tuple[Query, CanonicalForm, str]],
        settings: OptimizerSettings,
        workers: int,
    ) -> list[CacheEntry]:
        """Optimize queries already known to be absent from the cache.

        Each item is ``(query, canonical form, fingerprint)`` — the caller
        has done the lookup (and, for the gateway, the in-flight
        registration).  Partition tasks from all items interleave on the
        executor when it supports batching; every completed run is cached
        under its fingerprint before its entry is returned.

        The DP always runs θ-free — a θ binding on ``settings`` is stripped
        here, so the run materializes the full envelope and *one* run
        answers every θ of the shape; callers bind per requester
        (:meth:`answer`).  Handing the entry back (rather than making
        callers re-peek the cache) is what lets the gateway serve coalesced
        followers their own θ even when the cache retains nothing.
        """
        settings = settings.without_theta()
        gathered = self._run_many(
            [(query, workers, settings) for query, __, __ in items]
        )
        return [
            self._complete_run(query, canonical, key, settings, workers, partition_results)
            for (query, canonical, key), partition_results in zip(items, gathered)
        ]

    def _run_many(
        self, tasks: Sequence[tuple[Query, int, OptimizerSettings]]
    ) -> list[list[PartitionResult]]:
        """Run several queries' partition tasks, interleaved when possible."""
        partition_counts = [
            usable_partitions(query.n_tables, workers, settings.plan_space)
            for query, workers, settings in tasks
        ]
        submit = getattr(self.executor, "submit_partitions", None)
        if submit is None:
            return [
                self.executor.map_partitions(query, n_partitions, settings)
                for (query, __, settings), n_partitions in zip(tasks, partition_counts)
            ]
        futures = [
            submit(query, n_partitions, settings)
            for (query, __, settings), n_partitions in zip(tasks, partition_counts)
        ]
        try:
            return [
                [future.result() for future in query_futures]
                for query_futures in futures
            ]
        except BrokenProcessPool:
            # A worker died mid-batch; every in-flight future on the broken
            # pool is lost.  Fall back to query-by-query map_partitions,
            # which carries the executor's own rebuild-on-break recovery.
            close = getattr(self.executor, "close", None)
            if close is not None:
                close()
            return [
                self.executor.map_partitions(query, n_partitions, settings)
                for (query, __, settings), n_partitions in zip(tasks, partition_counts)
            ]

    def _complete_run(
        self,
        query: Query,
        canonical: CanonicalForm,
        key: str,
        settings: OptimizerSettings,
        workers: int,
        partition_results: list[PartitionResult],
    ) -> CacheEntry:
        """Final-prune a miss's partition results and cache them as an entry.

        A parametric run's frontier is cached as an :data:`ENVELOPE_ENTRY`:
        the breakpoint index is extracted once here (and serialized with the
        entry, never recomputed downstream), and the provenance records the
        θ-domain the envelope covers.  ``settings`` is already θ-free (see
        :meth:`run_misses`).
        """
        pruning = make_pruning(settings, n_tables=query.n_tables)
        plans = final_prune(pruning, (result.plans for result in partition_results))
        master = MasterResult(
            plans=plans,
            n_partitions=len(partition_results),
            requested_workers=workers,
            partition_results=partition_results,
        )
        simulated = simulate_mpq_run(self.cluster, query, master)
        canonical_plans = [remap_plan(plan, canonical.numbering) for plan in plans]
        if settings.parametric and plans:
            kind = ENVELOPE_ENTRY
            envelope = build_envelope_index(canonical_plans)
            theta_domain = FULL_THETA_DOMAIN
        else:
            kind = SCALAR_ENTRY
            envelope = None
            theta_domain = None
        provenance = Provenance(
            backend_used=master.backend_used,
            settings_signature=settings_signature(settings),
            registry_generation=registry_generation(),
            created_at_s=time.time(),
            n_partitions=master.n_partitions,
            worker_stats=aggregate_worker_stats(
                [result.stats for result in partition_results]
            ),
            theta_domain=theta_domain,
        )
        entry = CacheEntry(
            canonical_plans=canonical_plans,
            n_partitions=master.n_partitions,
            simulated=simulated,
            backend_used=master.backend_used,
            provenance=provenance,
            kind=kind,
            envelope=envelope,
        )
        self.cache.put(key, entry)
        return entry

    def answer(
        self,
        entry: CacheEntry,
        canonical: CanonicalForm | None,
        key: str,
        theta: float | None,
        cached: bool = True,
    ) -> ServiceResult:
        """Turn an entry into one requester's answer: the one θ-bind site.

        θ-narrow → relabel → flags.  With ``theta``, the entry's breakpoint
        index picks the θ-optimal plan first, so only that one plan is
        relabeled from canonical numbering into the requester's.  Every
        front door's hit, follower and leader answers funnel through here;
        ``cached`` is ``False`` only for the request whose DP run produced
        ``entry``, and each θ bound without a run counts one
        ``envelope_hits``.  ``canonical=None`` leaves the plans canonical
        (the entry's own objects): the shard server answers a ``lookup``
        that way and the requester, who holds the numbering, relabels.
        """
        plans = entry.canonical_plans
        if theta is not None:
            plans = [plans[entry.select_index(theta)]]
            if cached:
                with self._counter_lock:
                    self._envelope_hits += 1
        if canonical is not None:
            plans = relabel(plans, canonical.numbering)
        return ServiceResult(
            plans=plans,
            n_partitions=entry.n_partitions,
            fingerprint=key,
            cached=cached,
            simulated_time_ms=entry.simulated.total_ms,
            network_bytes=entry.simulated.network_bytes,
            backend_used=entry.backend_used,
            theta=theta,
        )

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release executor resources and any cache-tier file handles."""
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()
        cache_close = getattr(self.cache, "close", None)
        if cache_close is not None:
            cache_close()

    def __enter__(self) -> "OptimizerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
