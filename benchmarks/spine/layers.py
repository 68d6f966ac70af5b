"""Per-layer measurement from outside: stage spans, door ladder, counters.

Nothing in ``src/`` is instrumented.  A layer is measured by calling its
public functions on a request's own data and timing the call:

* :class:`StageObserver` hangs on a door's ``observe`` hook.  After each
  request it opens a root span, records the door call under it, and then
  replays — on that same request and its actual answer — every public stage
  function of the door's pipeline in pipeline order, each in a child span
  (``canonicalize`` → ``fingerprint_canonical`` → cache ``peek`` → envelope
  ``select_index`` → ``remap_plan`` in process; the query/settings/result
  codecs and the frame codec for the wire).
* :func:`door_ladder` replays one standard hit sample through the bare
  service, the threaded gateway, the asyncio gateway, a tiered gateway and
  (a third of it) the network gateway.  Every traced run does this whatever
  its workload (the driver wants every per-layer metric from every traced
  run); the workload's own traced round goes to its trace file, and the
  workload's own stack overrides the ladder's for the *counters* of the
  layers it has.

``service.net.unattributed_us`` = network round-trip p50 − Σ p50 of the
codec stages called in isolation (request encode + decode, result encode +
decode, two frame encodes, two frame decodes) − ``service.service.hit_us``:
what is left is sockets, the server's event loop, the handler-thread hop and
queueing.  A later in-program timeline can be compared against exactly this.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from pathlib import Path

from repro.bench.traffic import TrafficRequest, latency_percentiles
from repro.cluster.network import decode_frame_payload, encode_frame
from repro.cluster.serialization import (
    plans_from_wire,
    plans_to_wire,
    settings_from_wire,
    settings_to_wire,
)
from repro.query.io import query_from_dict, query_to_dict
from repro.service import (
    AsyncOptimizerGateway,
    OptimizerService,
    ShardedOptimizerGateway,
)
from repro.service.fingerprint import canonicalize, fingerprint_canonical
from repro.service.net import result_from_wire, result_to_wire
from repro.service.remap import invert, remap_plan
from repro.service.tiers import DiskTier

import stacks
from measure import ProcessTree
from schedules import permute_query, serving_schedule, shuffled
from tracer import Tracer

#: The standard hit sample of the ladder: 8 shapes (5–8 tables, two kinds).
LADDER_SHAPES = 8
#: One request in this many also pays a never-seen relabelling's
#: canonicalisation (≈ 2x a hit), to keep the traced round affordable.
FRESH_EVERY = 4

_FRAME_HEADER = 4


class StageObserver:
    """Record root, door and shadow-stage spans for every request of a door.

    ``kind`` selects the pipeline: ``"memory"`` / ``"tiered"`` (in-process
    doors; ``gateway`` gives access to the shard caches through the public
    ``peek``) or ``"net"`` (the wire's codec stages).
    """

    def __init__(
        self,
        tracer: Tracer,
        kind: str,
        gateway: ShardedOptimizerGateway | None = None,
        seed: int = 0,
    ) -> None:
        self.tracer = tracer
        self.kind = kind
        self.gateway = gateway
        self._rng = random.Random(f"observer:{seed}")
        self._count = 0
        #: Frame sizes seen by the wire stages (request, response).
        self.request_bytes: list[int] = []
        self.response_bytes: list[int] = []
        #: Last ``disk_hits`` seen per tiered shard cache: a rise across a
        #: request means the door answered it from the disk tier.
        self._disk_hits: dict[int, int] = {}

    def __call__(
        self, request: TrafficRequest, result: object, started: float, ended: float
    ) -> None:
        tracer = self.tracer
        self._count += 1
        rid = self._count
        start_ns = int(started * 1e9)
        root = tracer.add("request", start_ns, 0, -1, rid)
        tracer.add("door", start_ns, int(ended * 1e9), root, rid)
        if not isinstance(result, BaseException):
            self._stages(request, result, root, rid)
        tracer.end(root)

    def _stages(self, request: TrafficRequest, result, root: int, rid: int) -> None:
        tracer = self.tracer
        query = request.query
        settings = request.settings

        span = tracer.begin("service.fingerprint.canonicalize_memo", root, rid)
        canonical = canonicalize(query)
        tracer.end(span)
        span = tracer.begin("service.fingerprint.fingerprint", root, rid)
        key = fingerprint_canonical(canonical, settings, request.n_workers)
        tracer.end(span)
        if rid % FRESH_EVERY == 0:
            fresh = permute_query(query, shuffled(query.n_tables, self._rng))
            span = tracer.begin("service.fingerprint.canonicalize_fresh", root, rid)
            canonicalize(fresh)
            tracer.end(span)

        if self.kind == "net":
            self._wire_stages(request, result, root, rid)
        else:
            self._cache_stages(request, canonical, key, root, rid)

        span = tracer.begin("cluster.serialization.plan_codec", root, rid)
        plans_from_wire(plans_to_wire(result.plans))
        tracer.end(span)

    def _cache_stages(self, request, canonical, key: str, root: int, rid: int) -> None:
        tracer = self.tracer
        assert self.gateway is not None
        cache = self.gateway.shards[self.gateway.shard_for(key)].cache
        span = tracer.begin("service.cache.memory_get", root, rid)
        entry = cache.peek(key)
        tracer.end(span)
        if self.kind == "tiered":
            # The door's own disk read promoted the entry, so ``peek`` now
            # finds it in memory; repeat the disk read the door just paid.
            disk_hits = cache.stats.disk_hits
            if disk_hits > self._disk_hits.get(id(cache), 0):
                span = tracer.begin("service.tiers.disk_get", root, rid)
                entry = cache.disk.peek(key)
                tracer.end(span)
            self._disk_hits[id(cache)] = disk_hits
        if entry is None:
            return
        plans = entry.canonical_plans
        if request.theta is not None:
            span = tracer.begin("core.envelope.select", root, rid)
            plans = [plans[entry.select_index(request.theta)]]
            tracer.end(span)
        span = tracer.begin("service.remap.remap_plan", root, rid)
        mapping = invert(canonical.numbering)
        for plan in plans:
            remap_plan(plan, mapping)
        tracer.end(span)

    def _wire_stages(self, request: TrafficRequest, result, root: int, rid: int) -> None:
        tracer = self.tracer
        span = tracer.begin("service.net.request_encode", root, rid)
        payload = {
            "op": "optimize",
            "query": query_to_dict(request.query),
            "settings": settings_to_wire(request.settings),
            "workers": request.n_workers,
            "tenant": request.tenant,
        }
        tracer.end(span)
        span = tracer.begin("cluster.network.encode_frame", root, rid)
        frame = encode_frame(payload)
        tracer.end(span)
        self.request_bytes.append(len(frame))
        span = tracer.begin("cluster.network.decode_frame", root, rid)
        decoded = decode_frame_payload(frame[_FRAME_HEADER:])
        tracer.end(span)
        span = tracer.begin("service.net.request_decode", root, rid)
        query_from_dict(decoded["query"])
        settings_from_wire(decoded["settings"])
        tracer.end(span)

        span = tracer.begin("service.net.result_encode", root, rid)
        response = {"ok": True, "result": result_to_wire(result)}
        tracer.end(span)
        span = tracer.begin("cluster.network.encode_frame", root, rid)
        frame = encode_frame(response)
        tracer.end(span)
        self.response_bytes.append(len(frame))
        span = tracer.begin("cluster.network.decode_frame", root, rid)
        decoded = decode_frame_payload(frame[_FRAME_HEADER:])
        tracer.end(span)
        span = tracer.begin("service.net.result_decode", root, rid)
        result_from_wire(decoded["result"])
        tracer.end(span)


def observed_replay(
    door, requests: list[TrafficRequest], observer: StageObserver | None
) -> tuple[list, list[float]]:
    """Replay ``requests`` through ``door`` in one block, observed or not."""
    door.observe = observer
    try:
        return door.run_block(requests)
    finally:
        door.observe = None


# ---------------------------------------------------------------------- ladder


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p50_us(latencies_s: list[float]) -> float:
    return latency_percentiles(latencies_s, (50,))["p50"] * 1e6


def unique_requests(requests: list[TrafficRequest]) -> list[TrafficRequest]:
    """The first request of every distinct (shape, feature, workers)."""
    seen = set()
    firsts = []
    for request in requests:
        key = (request.query.name, request.feature, request.n_workers)
        if key not in seen:
            seen.add(key)
            firsts.append(request)
    return firsts


def door_ladder(seed: int, n_requests: int, tree: ProcessTree) -> dict[str, float]:
    """The standard hit sample through every door; returns per-layer metrics."""
    sample = serving_schedule(seed, n_requests, n_shapes=LADDER_SHAPES)
    fill = unique_requests(sample)
    tracer = Tracer()
    out: dict[str, float] = {}

    # -- asyncio gateway, threaded gateway, bare service: one shared cache,
    #    filled through the asyncio door so its batching counters mean something
    aio = stacks.build_async()
    try:
        started = time.perf_counter()
        aio.run_block(fill)
        out["service.aio.fill_s"] = time.perf_counter() - started
        gateway = aio.gateway.gateway
        _, latencies = stacks.ServiceDoor(gateway).run_block(sample)
        out["service.service.hit_us"] = _p50_us(latencies)
        _, latencies = observed_replay(
            stacks.ThreadedDoor(gateway),
            sample,
            StageObserver(tracer, "memory", gateway, seed),
        )
        out["service.gateway.hit_us_p50"] = _p50_us(latencies)
        _, latencies = aio.run_block(sample)
        out["service.aio.hit_us_p50"] = _p50_us(latencies)
        out["service.aio.door_overhead_us"] = (
            out["service.aio.hit_us_p50"] - out["service.service.hit_us"]
        )
        out.update(gateway_counters(gateway))
        out.update(aio_counters(aio.gateway))
        out.update(_miss_small_ms(fill[::3]))
        out.update(_tier_rung(gateway, sample, tracer, seed))
    finally:
        aio.close()

    # -- the wire
    net = stacks.build_net(clients=1)
    try:
        tree.refresh()
        net.run_block(fill)
        cpu_before = tree.children_cpu_s()
        observer = StageObserver(tracer, "net", seed=seed)
        wire_sample = sample[: len(sample) // 3]
        _, latencies = observed_replay(net, wire_sample, observer)
        server_cpu_s = tree.children_cpu_s() - cpu_before
        out["service.net.request_bytes_p50"] = statistics.median(observer.request_bytes)
        out["service.net.response_bytes_p50"] = statistics.median(observer.response_bytes)
        out.update(net_counters(net, server_cpu_s, len(wire_sample)))
        round_trip_us = _p50_us(latencies)
    finally:
        net.close()
        tree.refresh()

    out.update(stage_metrics(tracer))
    out["service.net.unattributed_us"] = (
        round_trip_us
        - out["service.net.request_codec_us"]
        - out["service.net.result_codec_us"]
        - 2 * out["cluster.network.encode_frame_us"]
        - 2 * out["cluster.network.decode_frame_us"]
        - out["service.service.hit_us"]
    )
    return out


def _miss_small_ms(fill: list[TrafficRequest]) -> dict[str, float]:
    """Bare-service misses on the sample's own small shapes (a fresh cache)."""
    service = OptimizerService(cache_capacity=0)
    walls = []
    for request in fill:
        started = time.perf_counter()
        service.optimize(request.query, request.settings, request.n_workers)
        walls.append(time.perf_counter() - started)
    service.close()
    return {"service.service.miss_small_ms": statistics.median(walls) * 1e3}


def _tier_rung(
    gateway: ShardedOptimizerGateway,
    sample: list[TrafficRequest],
    tracer: Tracer,
    seed: int,
) -> dict[str, float]:
    """A tiered gateway seeded from the warm one through the public cache API.

    Memory holds 4 entries per shard, so most of the sample reads the disk
    tier.  Also times ``put`` per entry, a reopen over the written logs and
    a compaction.
    """
    out: dict[str, float] = {}
    cache_dir = stacks.scratch_dir("ladder-tier")
    tiered = stacks.build_tiered(cache_dir, memory_capacity=4)
    try:
        put_us = []
        for source, target in zip(gateway.shards, tiered.gateway.shards):
            for key in source.cache.keys():
                entry = source.cache.peek(key)
                started = time.perf_counter()
                target.cache.put(key, entry)
                put_us.append((time.perf_counter() - started) * 1e6)
        observed_replay(
            tiered, sample, StageObserver(tracer, "tiered", tiered.gateway, seed)
        )
        out["service.tiers.disk_put_us"] = statistics.median(put_us)
        out.update(tier_counters(tiered.gateway))
        disks = [shard.cache.disk for shard in tiered.gateway.shards]
        out["service.tiers.log_bytes_per_entry"] = sum(
            disk.log_bytes() for disk in disks
        ) / max(1, sum(len(disk) for disk in disks))
    finally:
        tiered.close()
    out.update(reopen_and_compact(cache_dir))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def reopen_and_compact(cache_dir: Path) -> dict[str, float]:
    """Time recovery of every shard log in ``cache_dir``, then compaction."""
    paths = sorted(cache_dir.glob("shard-*.log"))
    started = time.perf_counter()
    disks = [DiskTier(path) for path in paths]
    reopen_s = time.perf_counter() - started
    started = time.perf_counter()
    for disk in disks:
        disk.compact()
    compact_s = time.perf_counter() - started
    for disk in disks:
        disk.close()
    return {"service.tiers.reopen_s": reopen_s, "service.tiers.compact_s": compact_s}


# -------------------------------------------------------------------- counters


def gateway_counters(gateway: ShardedOptimizerGateway) -> dict[str, float]:
    stats = gateway.stats()
    entries = sum(shard.entries for shard in stats.shards)
    return {
        "service.service.dp_runs": stats.optimizations,
        "service.service.dp_runs_per_fingerprint": stats.optimizations / max(1, entries),
        "service.service.envelope_hits": stats.envelope_hits,
        "service.cache.hit_share": stats.hit_rate,
        "service.cache.evictions": stats.evictions,
        "service.gateway.coalesced": stats.coalesced,
        "service.gateway.peak_in_flight": stats.peak_in_flight,
    }


def tier_counters(gateway: ShardedOptimizerGateway) -> dict[str, float]:
    snapshots = [shard.cache.snapshot() for shard in gateway.shards]
    lookups = max(1, sum(s.lookups for s in snapshots))
    return {
        "service.tiers.memory_hit_share": sum(s.memory_hits for s in snapshots) / lookups,
        "service.tiers.disk_hit_share": sum(s.disk_hits for s in snapshots) / lookups,
        "service.tiers.promotions": sum(s.promotions for s in snapshots),
        "service.tiers.demotions": sum(s.demotions for s in snapshots),
        "service.tiers.disk_writes": sum(s.disk_writes for s in snapshots),
    }


def aio_counters(gateway: AsyncOptimizerGateway) -> dict[str, float]:
    stats = gateway.stats()
    batches = sum(stats.batch_sizes.values())
    return {
        "service.aio.fast_path_share": stats.fast_path_hits / max(1, stats.requests),
        "service.aio.result_memo_share": stats.result_memo_hits / max(1, stats.requests),
        "service.aio.batch_size_mean": (
            sum(size * count for size, count in stats.batch_sizes.items()) / batches
            if batches
            else 0.0
        ),
        "service.aio.coalesced": stats.coalesced,
        "service.aio.rejections": stats.rejections,
    }


def net_counters(net: stacks.NetDoor, server_cpu_s: float, requests: int) -> dict[str, float]:
    stats = net.gateway.stats()
    shards = stats["shards"].values()
    return {
        "service.server.served": sum(s.get("served", 0) for s in shards),
        "service.server.rejected_overload": sum(
            s.get("rejected_overload", 0) for s in shards
        ),
        "service.server.protocol_errors": sum(s.get("protocol_errors", 0) for s in shards),
        # Every overload/drain rejection is one client-side retry
        # (``overload_retries`` is set high enough that none surfaces).
        "service.net.overload_retries": sum(
            s.get("rejected_overload", 0) + s.get("rejected_draining", 0) for s in shards
        ),
        "service.net.breaker_opens": stats["breaker_rejections"],
        "service.server.cpu_ms_per_request": server_cpu_s / max(1, requests) * 1e3,
        "service.fleet.spawn_s": net.spawn_s,
    }


def net_dp_runs(net: stacks.NetDoor) -> int:
    """DP runs summed over the fleet's shard servers."""
    return sum(
        shard.get("optimizations", 0) for shard in net.gateway.stats()["shards"].values()
    )


def stage_metrics(tracer: Tracer) -> dict[str, float]:
    """Median span duration per stage, under the per-layer metric names."""
    spans = tracer.durations_us()

    def median_of(name: str) -> float:
        return _median(spans.get(name, []))

    return {
        "service.fingerprint.canonicalize_fresh_us": median_of(
            "service.fingerprint.canonicalize_fresh"
        ),
        "service.fingerprint.canonicalize_memo_us": median_of(
            "service.fingerprint.canonicalize_memo"
        ),
        "service.fingerprint.fingerprint_us": median_of("service.fingerprint.fingerprint"),
        "service.remap.remap_plan_us": median_of("service.remap.remap_plan"),
        "core.envelope.select_us": median_of("core.envelope.select"),
        "service.cache.memory_get_us": median_of("service.cache.memory_get"),
        "service.tiers.disk_get_us": median_of("service.tiers.disk_get"),
        "cluster.serialization.plan_codec_us": median_of("cluster.serialization.plan_codec"),
        "cluster.network.encode_frame_us": median_of("cluster.network.encode_frame"),
        "cluster.network.decode_frame_us": median_of("cluster.network.decode_frame"),
        "service.net.request_codec_us": median_of("service.net.request_encode")
        + median_of("service.net.request_decode"),
        "service.net.result_codec_us": median_of("service.net.result_encode")
        + median_of("service.net.result_decode"),
    }
