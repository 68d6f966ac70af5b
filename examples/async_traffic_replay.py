"""Traffic-replay quickstart: seeded multi-tenant load on the async gateway.

Generates a deterministic Zipf/bursty multi-tenant schedule, replays it
through the asyncio front-end with a herd of client tasks, and prints the
serving-side picture an operator would look at: throughput, latency
percentiles, dispatches and coalescing, admission-control activity, and per-tenant
accounting.  Run with::

    PYTHONPATH=src python examples/async_traffic_replay.py
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.traffic import (
    TrafficProfile,
    generate_traffic,
    replay_async,
    unique_fingerprints,
)
from repro.service import AsyncOptimizerGateway


async def main() -> None:
    profile = TrafficProfile(
        n_requests=256,
        n_unique=16,
        tables=(5, 7),
        zipf_skew=1.2,
        seed=42,
    )
    schedule = generate_traffic(profile)
    uniques = unique_fingerprints(schedule)
    print(
        f"schedule: {len(schedule)} requests over "
        f"{schedule[-1].at_s * 1e3:.0f} ms of simulated arrivals, "
        f"{len(uniques)} unique fingerprints, "
        f"tenants {sorted({r.tenant for r in schedule})}"
    )

    async with AsyncOptimizerGateway(
        n_shards=4,
        n_workers=8,
        max_pending=64,       # deliberately snug: expect some backpressure
        tenant_share=0.5,
    ) as front:
        report = await replay_async(front, schedule, n_clients=32)
        stats = front.stats()

    percentiles = report.latency_percentiles((50, 90, 99))
    print(
        f"replayed in {report.wall_s * 1e3:.1f} ms "
        f"({report.throughput_qps:.0f} req/s), "
        f"retries after rejection: {report.retries}"
    )
    print(
        f"latency p50/p90/p99: {percentiles['p50']:.2f}/"
        f"{percentiles['p90']:.2f}/{percentiles['p99']:.2f} ms"
    )
    print(
        f"DP runs: {stats.gateway.optimizations} "
        f"(exactly one per unique fingerprint: "
        f"{stats.gateway.optimizations == len(uniques)})"
    )
    print(
        f"dispatches: {stats.dispatched_batches} led misses, "
        f"{stats.coalesced} coalesced, {stats.fast_path_hits} fast-path hits"
    )
    print(
        f"admission: {stats.rejected_queue_full} queue-full + "
        f"{stats.rejected_tenant_share} tenant-share rejections"
    )
    for tenant, tenant_stats in sorted(stats.tenants.items()):
        print(
            f"  tenant {tenant:>6}: {tenant_stats.requests} requests, "
            f"{tenant_stats.completed} completed, "
            f"{tenant_stats.rejected} rejected"
        )


if __name__ == "__main__":
    asyncio.run(main())
