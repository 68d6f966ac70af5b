"""The four serving stacks, built through their public APIs, and their clients.

Load shape (closed loop — callers are sessions that wait for their plan):

* in-process threaded doors get **one** client thread: two client threads on
  the threaded gateway measure the GIL convoy, not the door;
* the asyncio door gets 8 client *tasks* on one thread;
* the network door gets ``nproc`` client threads that block in ``recv``.

Every door exposes ``run_block(chunk) -> (results, latencies_s)``: it drives
one block of requests with that client shape and returns, per request, the
:class:`~repro.service.ServiceResult` (or the exception it raised) and its
wall time.  A failed request is data, not a crash: it is counted by the
correctness gate after the round.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

from repro.bench.traffic import TrafficRequest
from repro.service import (
    AsyncOptimizerGateway,
    NetworkOptimizerGateway,
    ShardedOptimizerGateway,
)
from repro.service.fingerprint import fingerprint
from repro.service.fleet import ShardFleet
from repro.service.tiers import DiskTier, TieredPlanCache

N_SHARDS = 2
#: "Memory tier larger than the pool": no eviction on the hit workloads.
BIG_CACHE = 4096
ASYNC_CLIENTS = 8

OUT = Path(__file__).resolve().parent / "out"


def scratch_dir(label: str) -> Path:
    """A fresh per-process directory under ``out/``, as a short relative path.

    Relative because unix-socket paths are capped near 100 bytes and the
    checkout may live anywhere; shard subprocesses inherit the cwd.
    """
    path = Path(os.path.relpath(OUT / f"{label}-{os.getpid()}"))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


#: ``observe(request, result, started_s, ended_s)``: the traced run's hook,
#: called in the client's own context right after each request.
Observer = Callable[[TrafficRequest, object, float, float], None]


def _timed(
    call, request: TrafficRequest, observe: Observer | None
) -> tuple[object, float]:
    started = time.perf_counter()
    try:
        result = call(request.query, request.settings, request.n_workers)
    except Exception as error:  # noqa: BLE001 - a failed request is a datum
        result = error
    ended = time.perf_counter()
    if observe is not None:
        observe(request, result, started, ended)
    return result, ended - started


def _serial_block(
    chunk: list[TrafficRequest], call_for, observe: Observer | None
) -> tuple[list, list[float]]:
    """One client thread: each request through ``call_for(request)``, in order."""
    results = []
    latencies = []
    for request in chunk:
        result, latency = _timed(call_for(request), request, observe)
        results.append(result)
        latencies.append(latency)
    return results, latencies


class ThreadedDoor:
    """``ShardedOptimizerGateway.optimize`` from one client thread."""

    def __init__(self, gateway: ShardedOptimizerGateway) -> None:
        self.gateway = gateway
        self.observe: Observer | None = None

    def run_block(self, chunk: list[TrafficRequest]) -> tuple[list, list[float]]:
        call = self.gateway.optimize
        return _serial_block(chunk, lambda request: call, self.observe)

    def close(self) -> None:
        self.gateway.close()


class ServiceDoor:
    """Bare ``OptimizerService.optimize`` on the shard that owns each key —
    the floor under every door (no singleflight, no gauges, no routing).

    Borrows a threaded door's gateway; routing to the owning shard is looked
    up before the clock starts, so the service call alone is timed.
    """

    def __init__(self, gateway: ShardedOptimizerGateway) -> None:
        self.gateway = gateway
        self.observe: Observer | None = None

    def _owner(self, request: TrafficRequest):
        key = fingerprint(request.query, request.settings, request.n_workers)
        return self.gateway.shards[self.gateway.shard_for(key)].optimize

    def run_block(self, chunk: list[TrafficRequest]) -> tuple[list, list[float]]:
        return _serial_block(chunk, self._owner, self.observe)


class AsyncDoor:
    """``AsyncOptimizerGateway.optimize`` from 8 client tasks on one loop."""

    def __init__(self, gateway: AsyncOptimizerGateway, clients: int = ASYNC_CLIENTS) -> None:
        self.gateway = gateway
        self.clients = clients
        self.loop = asyncio.new_event_loop()
        self.observe: Observer | None = None

    async def _client(self, chunk, indices, results, latencies) -> None:
        optimize = self.gateway.optimize
        for index in indices:
            request = chunk[index]
            started = time.perf_counter()
            try:
                results[index] = await optimize(
                    request.query, request.settings, request.n_workers, request.tenant
                )
            except Exception as error:  # noqa: BLE001 - a failed request is a datum
                results[index] = error
            ended = time.perf_counter()
            if self.observe is not None:
                self.observe(request, results[index], started, ended)
            latencies[index] = ended - started

    async def _block(self, chunk) -> tuple[list, list[float]]:
        results: list = [None] * len(chunk)
        latencies = [0.0] * len(chunk)
        await asyncio.gather(
            *[
                self._client(
                    chunk, range(slot, len(chunk), self.clients), results, latencies
                )
                for slot in range(self.clients)
            ]
        )
        return results, latencies

    def run_block(self, chunk: list[TrafficRequest]) -> tuple[list, list[float]]:
        return self.loop.run_until_complete(self._block(chunk))

    def close(self) -> None:
        if not self.loop.is_closed():
            self.loop.run_until_complete(self.gateway.close())
            self.loop.close()


class NetDoor:
    """``NetworkOptimizerGateway.optimize`` from ``clients`` blocking threads,
    over unix sockets to a supervised :class:`ShardFleet`."""

    def __init__(
        self,
        fleet: ShardFleet,
        gateway: NetworkOptimizerGateway,
        clients: int,
        run_dir: Path,
        spawn_s: float,
    ) -> None:
        self.fleet = fleet
        self.gateway = gateway
        self.clients = clients
        self.run_dir = run_dir
        #: Fleet spawn-to-ready time of this stack.
        self.spawn_s = spawn_s
        self.observe: Observer | None = None
        self._pool = ThreadPoolExecutor(max_workers=clients, thread_name_prefix="client")

    def _client(self, chunk: list[TrafficRequest]) -> list[tuple[object, float]]:
        call = self.gateway.optimize
        return [_timed(call, request, self.observe) for request in chunk]

    def run_block(self, chunk: list[TrafficRequest]) -> tuple[list, list[float]]:
        slices = [chunk[slot :: self.clients] for slot in range(self.clients)]
        outcomes = list(self._pool.map(self._client, slices))
        results: list = [None] * len(chunk)
        latencies = [0.0] * len(chunk)
        for slot, outcome in enumerate(outcomes):
            for offset, (result, latency) in enumerate(outcome):
                results[slot + offset * self.clients] = result
                latencies[slot + offset * self.clients] = latency
        return results, latencies

    def close(self) -> None:
        """Stop clients, router and fleet; remove the sockets.  Idempotent."""
        self._pool.shutdown(wait=True)
        self.gateway.close()
        self.fleet.stop()
        shutil.rmtree(self.run_dir, ignore_errors=True)


# --------------------------------------------------------------------- builders


def build_async() -> AsyncDoor:
    """``hot_hits``: asyncio front-end over 2 in-process shards."""
    return AsyncDoor(
        AsyncOptimizerGateway(n_shards=N_SHARDS, cache_capacity=BIG_CACHE)
    )


def build_tiered(cache_dir: Path, memory_capacity: int) -> ThreadedDoor:
    """``spill_tiered``: each shard a write-through memory-over-disk cache.

    The logs in ``cache_dir`` outlive ``close()`` (that is the point of the
    reopen check); whoever chose the directory removes it.
    """
    return ThreadedDoor(
        ShardedOptimizerGateway(
            n_shards=N_SHARDS,
            cache_factory=lambda index: TieredPlanCache(
                memory_capacity=memory_capacity,
                disk=DiskTier(cache_dir / f"shard-{index}.log"),
            ),
        )
    )


def build_net(clients: int) -> NetDoor:
    """``net_herd``: a 2-shard fleet on unix sockets behind the router.

    ``overload_retries`` rides out admission bursts so no operation of the
    workload fails.
    """
    run_dir = scratch_dir("net")
    started = time.perf_counter()
    fleet = ShardFleet(
        n_shards=N_SHARDS,
        socket_dir=run_dir,
        n_workers=1,
        cache_capacity=BIG_CACHE,
        max_in_flight=16,
        # Shard servers' own output goes to files, not into this process's
        # stdout (whose last line is the result the driver parses).
        log_dir=run_dir / "logs",
    )
    try:
        fleet.start()
        spawn_s = time.perf_counter() - started
        gateway = NetworkOptimizerGateway(fleet.endpoints(), overload_retries=50)
    except BaseException:
        fleet.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        raise
    return NetDoor(fleet, gateway, clients, run_dir, spawn_s)
