"""The shard server process: one optimizer shard behind a socket.

Each :class:`ShardServer` owns a complete optimizer stack — a
:class:`~repro.service.gateway.ShardedOptimizerGateway` (``n_shards=1``,
giving it the in-process singleflight table), a worker pool, and optionally
a per-shard :class:`~repro.service.tiers.DiskTier` cache log — and serves
it over the length-prefixed frame protocol of
:mod:`repro.cluster.network` on a unix socket or TCP port.  The client-side
router (:mod:`repro.service.net`) routes each fingerprint to exactly one
such process, so the shard's singleflight is the *global* singleflight for
the keys it owns: one DP run per unique fingerprint, across any number of
client processes.

Protocol (all frames are strict-JSON objects):

* on connect the server sends a **hello** frame
  ``{"op": "hello", "format": "repro-net", "version": 4, "shard_id": ...}``;
  a client that reads anything else hangs up
  (:func:`repro.service.net.handshake`);
* **lookup** ``{"op": "lookup", "key": <fingerprint>, "theta": θ|null}`` —
  what a client sends first.  A shard whose cache holds the key answers
  ``{"ok": true, "theta": θ, "canonical": <result>}`` (``theta`` omitted
  when unbound): the θ-narrowed plans in *canonical* numbering, which the
  client relabels with the numbering it computed the key from.  No query
  is decoded and nothing is canonicalised; a memory-resident key is
  answered on the event loop from bytes memoised on its cache entry, a
  disk-resident one on a handler thread.  An absent key is ``{"ok":
  false, "error": {"type": "unknown-key", ...}}`` and counts nothing — the
  client follows with **optimize**;
* **optimize** ``{"op": "optimize", "query": ..., "settings": ...,
  "workers": n}`` → ``{"ok": true, "result": ...}`` (plans in the
  requester's numbering) or ``{"ok": false, "error": {"type": ...,
  "message": ..., "retry_after_s": ...}}``.  Error types: ``overloaded``
  (admission control: in-flight optimizations at ``max_in_flight``;
  ``retry_after_s`` estimates one service time), ``draining`` (shutdown in
  progress), ``bad-request`` (malformed query or settings),
  ``optimization-failed`` (the DP itself raised).  The only path a miss
  can take: the shard canonicalises and fingerprints the query itself;
* **health** → ``{"ok": true, "status": "serving"|"draining",
  "in_flight": n, "shard_id": ...}``;
* **snapshot** — cache-state shipping for live rebalancing, four modes:
  ``{"op": "snapshot", "mode": "keys"}`` lists the shard's live cache
  keys; ``mode="export"`` (optional ``"keys": [...]`` subset) returns the
  entries as a self-identifying snapshot payload (the same ``put`` records
  :meth:`~repro.service.tiers.DiskTier.export_snapshot` writes);
  ``mode="import"`` merges a shipped payload through the cache's normal
  write path (durable under write-through before the ack); ``mode="evict"``
  drops a key list (the rebalancer's post-import sweep of the old owner).
  Snapshot work runs on a dedicated control thread, so shipping proceeds
  while every DP handler thread is busy;
* **stats** → ``{"ok": true, "stats": {...}}`` including the internal
  gateway's ``optimizations`` counter — the number of DP runs this process
  actually paid, which the cross-process one-run-per-fingerprint tests sum
  over shards;
* **drain** → finish in-flight optimizations, flush and close the cache
  (the disk tier's log handles), answer ``{"ok": true, "drained": true}``,
  then stop accepting and exit the serve loop.

Blocking DP runs execute on a bounded handler thread pool via
``run_in_executor``; the asyncio loop itself only frames, dispatches,
enforces admission, and answers memory-resident lookups (a dict probe and
a byte splice — cheaper than the thread hop), so health checks stay
responsive while every handler thread is deep in an enumeration.  A connection that violates the protocol
(torn frame, malformed JSON, oversized frame) gets a best-effort
``protocol`` error frame and is closed; other connections are unaffected.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any

from repro.cluster.network import (
    FrameError,
    encode_body,
    encode_frame,
    frame_body,
    read_frame,
)
from repro.cluster.serialization import (
    settings_from_wire,
    snapshot_from_wire,
    snapshot_to_wire,
)
from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.query.io import query_from_dict
from repro.service.gateway import ShardedOptimizerGateway
from repro.service.net import PROTOCOL_FORMAT, PROTOCOL_VERSION, Address, result_to_wire
from repro.service.tiers import TieredPlanCache, shard_cache_factory
from repro.util.readers import read, read_float, read_int


class ShardServer:
    """Serve one optimizer shard over the frame protocol.

    Args:
        listen: endpoint spec — ``unix:/path/to.sock`` or ``host:port``.
        shard_id: this shard's name/number, echoed in the hello frame and
            health responses (purely observational; routing lives in the
            client's ring).
        n_workers: default per-query parallelism of the embedded service.
        settings: default :class:`OptimizerSettings` (requests carry their
            own settings; these fill in when a request omits them).
        cache_capacity: in-memory plan-cache capacity.
        cache_dir: when set, the shard persists its cache to
            ``cache_dir/shard-<shard_id>.log`` through a
            :class:`~repro.service.tiers.TieredPlanCache` — the single-writer
            lock (PR 7) makes two shard processes sharing one log fail fast
            instead of corrupting it.
        max_in_flight: admission bound on concurrently *running*
            optimizations; requests beyond it are rejected ``overloaded``
            with a ``retry_after_s`` estimating one service time; the
            blocking-DP thread pool has this many threads.
        inject_latency_s: fault injection for tests and benchmarks — every
            optimize and lookup sleeps this long before running, simulating
            a degraded shard.  0 (default) injects nothing.
    """

    def __init__(
        self,
        listen: str,
        shard_id: int = 0,
        n_workers: int = 8,
        settings: OptimizerSettings = DEFAULT_SETTINGS,
        cache_capacity: int = 256,
        cache_dir: str | Path | None = None,
        max_in_flight: int = 8,
        inject_latency_s: float = 0.0,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if inject_latency_s < 0:
            raise ValueError(f"inject_latency_s must be >= 0, got {inject_latency_s}")
        self.address = Address.parse(listen)
        self.shard_id = shard_id
        self.max_in_flight = max_in_flight
        self.inject_latency_s = inject_latency_s
        self._handler_pool = ThreadPoolExecutor(
            max_workers=max_in_flight,
            thread_name_prefix=f"shard-{shard_id}",
        )
        # Snapshot shipping must not queue behind saturated DP handlers —
        # a rebalance races live traffic by design — so control-plane work
        # gets its own (single) thread.  Cache tiers are internally locked;
        # concurrent access from both pools is safe.
        self._control_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"shard-{shard_id}-ctl"
        )
        cache_factory = None
        if cache_dir is not None:
            # The embedded gateway's only shard is index 0; the log is named
            # after this server's place in the fleet instead.
            open_log = shard_cache_factory(cache_dir, cache_capacity)
            cache_factory = lambda __: open_log(shard_id)  # noqa: E731

        self.gateway = ShardedOptimizerGateway(
            n_shards=1,
            n_workers=n_workers,
            settings=settings,
            cache_capacity=cache_capacity,
            cache_factory=cache_factory,
            gateway_threads=max_in_flight,
        )
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._service_time_ewma_s = 0.05
        self._connections: set[asyncio.StreamWriter] = set()
        # Counters below are all written on the event loop only.
        self._served = 0
        self._rejected_overload = 0
        self._rejected_draining = 0
        self._protocol_errors = 0
        self._snapshot_exported = 0
        self._snapshot_imported = 0

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the listening socket and begin accepting connections."""
        if self.address.kind == "unix":
            Path(self.address.path).unlink(missing_ok=True)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.address.path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.address.host, port=self.address.port
            )

    async def serve_forever(self) -> None:
        """Serve until :meth:`drain` (or :meth:`stop`) completes."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._stopped.wait()

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: reject new work, finish in-flight, flush, stop.

        Returns ``True`` when every in-flight optimization finished within
        ``timeout_s`` (the cache is then flushed and closed); ``False`` on
        timeout — the server still stops, but stragglers are abandoned.
        """
        drained = await self._quiesce(timeout_s)
        await self.stop()
        return drained

    async def _quiesce(self, timeout_s: float) -> bool:
        """Reject new work, wait out in-flight runs, flush and close the cache.

        Separate from :meth:`stop` so a drain *request* can be answered on
        its own connection after the flush but before the listener and that
        connection are torn down.
        """
        self._draining = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
        except asyncio.TimeoutError:
            return False
        # Flush: the gateway close drains its handler pool and closes every
        # shard service, which closes the tiered cache and with it the disk
        # tier's log handles (and releases the writer lock).
        await asyncio.get_running_loop().run_in_executor(None, self.gateway.close)
        return True

    async def stop(self) -> None:
        """Stop accepting and wake :meth:`serve_forever`.  Idempotent."""
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        # Closing live client connections here lets their handler tasks end
        # on a clean EOF instead of being cancelled at loop teardown.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        self._handler_pool.shutdown(wait=False)
        self._control_pool.shutdown(wait=False)
        if self.address.kind == "unix":
            Path(self.address.path).unlink(missing_ok=True)
        self._stopped.set()

    # --------------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            await self._send(
                writer,
                {
                    "op": "hello",
                    "format": PROTOCOL_FORMAT,
                    "version": PROTOCOL_VERSION,
                    "shard_id": self.shard_id,
                },
            )
            while True:
                try:
                    payload = await read_frame(reader)
                except FrameError as error:
                    # A torn/oversized/malformed frame desynchronizes the
                    # byte stream: answer (best-effort) and drop only this
                    # connection; the listener and every other connection
                    # keep serving.
                    self._protocol_errors += 1
                    with contextlib.suppress(Exception):
                        await self._send(
                            writer,
                            self._error("protocol", str(error)),
                        )
                    return
                if payload is None:
                    return  # clean close between frames
                try:
                    response = await self._dispatch(payload)
                except Exception as error:  # noqa: BLE001 - surfaced as a typed frame
                    # A handler bug must cost one request, not the
                    # connection (the client would read a bare EOF).
                    response = self._error("internal", f"{type(error).__name__}: {error}")
                if isinstance(response, bytes):  # pre-encoded
                    writer.write(response)
                    await writer.drain()
                else:
                    await self._send(writer, response)
                if isinstance(response, dict) and "drained" in response:
                    # The drain response was this connection's last frame;
                    # now that the client has its answer, stop the listener
                    # and every other connection.
                    await self.stop()
                    return
        except (ConnectionError, asyncio.CancelledError):
            return
        finally:
            self._connections.discard(writer)
            # Close without awaiting wait_closed(): awaiting inside this
            # finally re-raises CancelledError at loop teardown, turning a
            # clean shutdown into logged stream-callback exceptions.
            with contextlib.suppress(Exception):
                writer.close()

    async def _send(self, writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
        writer.write(encode_frame(payload))
        await writer.drain()

    # ----------------------------------------------------------------- dispatch

    async def _dispatch(self, payload: dict[str, Any]) -> dict[str, Any] | bytes:
        op = payload.get("op")
        if op == "lookup":
            return await self._handle_lookup(payload)
        if op == "optimize":
            return await self._admitted(self._optimize_frame, payload)
        if op == "health":
            return {
                "ok": True,
                "status": "draining" if self._draining else "serving",
                "in_flight": self._in_flight,
                "shard_id": self.shard_id,
            }
        if op == "stats":
            return {"ok": True, "stats": self._stats()}
        if op == "snapshot":
            return await self._handle_snapshot(payload)
        if op == "drain":
            try:
                timeout_s = read_float(payload, "timeout_s", 30.0, low=0.0)
            except ValueError as error:
                return self._error("bad-request", f"malformed drain request: {error}")
            return {"ok": True, "drained": await self._quiesce(timeout_s)}
        return self._error("bad-request", f"unknown op {op!r}")

    async def _handle_snapshot(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Serve one cache-shipping request on the control thread.

        ``export``/``keys``/``evict`` stay available while draining (a
        shard being decommissioned must still give its entries away);
        ``import`` is refused — a draining shard's cache is on its way out,
        and acking a shipment it will not serve would let the rebalancer
        count entries as moved that are actually lost.
        """
        mode = payload.get("mode")
        loop = asyncio.get_running_loop()
        try:
            if mode == "keys":
                keys = await loop.run_in_executor(
                    self._control_pool, self._cache().keys
                )
                return {"ok": True, "keys": keys, "shard_id": self.shard_id}
            if mode == "export":
                wanted = read(payload, "keys", list, None, item=partial(read, kind=str))
                records = await loop.run_in_executor(
                    self._control_pool, self._cache().export_records, wanted
                )
                self._snapshot_exported += len(records)
                return {
                    "ok": True,
                    "snapshot": snapshot_to_wire(records),
                    "shard_id": self.shard_id,
                }
            if mode == "import":
                if self._draining:
                    return self._error(
                        "draining",
                        "shard is draining; ship elsewhere",
                        retry_after_s=1.0,
                    )
                records = snapshot_from_wire(read(payload, "snapshot", dict))
                imported = await loop.run_in_executor(
                    self._control_pool, self._cache().import_records, records
                )
                self._snapshot_imported += imported
                return {"ok": True, "imported": imported, "shard_id": self.shard_id}
            if mode == "evict":
                wanted = read(payload, "keys", list, item=partial(read, kind=str))
                evicted = await loop.run_in_executor(
                    self._control_pool, self._snapshot_evict, wanted
                )
                return {"ok": True, "evicted": evicted, "shard_id": self.shard_id}
        except ValueError as error:
            return self._error("bad-request", f"malformed snapshot request: {error}")
        except Exception as error:  # noqa: BLE001 - surfaced as a typed frame
            return self._error(
                "snapshot-failed", f"{type(error).__name__}: {error}"
            )
        return self._error("bad-request", f"unknown snapshot mode {mode!r}")

    def _cache(self) -> TieredPlanCache:
        """This shard's cache (the embedded gateway runs one shard)."""
        return self.gateway.shards[0].cache

    def _snapshot_evict(self, keys: list[str]) -> int:
        return sum(map(self._cache().evict, keys))

    async def _handle_lookup(self, payload: dict[str, Any]) -> dict[str, Any] | bytes:
        """Answer by fingerprint alone; ``unknown-key`` sends the client to ``optimize``.

        Only what is I/O-free by contract runs here on the loop: ``peek``
        says the key is memory-resident, so the probe and the byte splice
        cost less than a thread hop and skip admission (as asyncio-door
        hits do).  Anything else — a tiered cache's disk read, or a plain
        miss — goes to the handler pool under admission, counted in
        ``_in_flight`` so a drain waits for it before closing the cache.
        """
        try:
            key = read(payload, "key", str)
            theta = read_float(payload, "theta", None, low=0.0, high=1.0)
        except ValueError as error:
            return self._error("bad-request", f"malformed lookup request: {error}")
        if self.inject_latency_s > 0:
            # A degraded shard is slow for everything — but never by
            # blocking the loop.
            await asyncio.sleep(self.inject_latency_s)
        if self._draining or self._cache().peek(key) is None:
            # (``_admitted`` is also who refuses a draining shard's work.)
            return await self._admitted(self._lookup_frame, key, theta)
        served, frame = self._lookup_frame(key, theta)
        self._served += served
        return frame

    def _lookup_frame(
        self, key: str, theta: float | None
    ) -> tuple[bool, bytes | dict[str, Any]]:
        """Probe the cache for ``key``: whether it was served, and the frame.

        A hit is one logical request (one cache hit, one gateway request,
        one ``envelope_hits`` when θ-bound); a miss counts nothing — the
        ``optimize`` frame that follows counts the one miss.  The encoded
        canonical answer is memoised on the entry per selected plan (the
        entry owns its plans, so a plan's ``id`` names its index for the
        memo's whole life); θ rides outside those bytes, so a parametric
        answer still comes back carrying its θ.
        """
        shard, entry = self.gateway.probe(key)
        if entry is None:
            return False, self._error("unknown-key", f"no cached entry for {key[:12]}…")
        result = shard.answer(entry, None, key, theta)
        slot = None if theta is None else id(result.plans[0])
        answer = entry.wire_memo.get(slot)
        if answer is None:
            result.theta = None
            answer = entry.wire_memo[slot] = encode_body(result_to_wire(result))
        head = {"ok": True} if theta is None else {"ok": True, "theta": theta}
        body = encode_body(head)[:-1] + b',"canonical":' + answer + b"}"
        return True, frame_body(body)

    async def _admitted(self, work, *args: Any) -> dict[str, Any] | bytes:
        """Run blocking ``work(*args) -> (served, frame)`` on the handler
        pool, under admission control and counted in ``_in_flight``."""
        if self._draining:
            self._rejected_draining += 1
            return self._error(
                "draining", "shard is draining; route elsewhere", retry_after_s=1.0
            )
        if self._in_flight >= self.max_in_flight:
            self._rejected_overload += 1
            return self._error(
                "overloaded",
                f"{self._in_flight} optimizations in flight "
                f"(limit {self.max_in_flight})",
                retry_after_s=max(0.005, self._service_time_ewma_s),
            )
        self._in_flight += 1
        self._idle.clear()
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            served, frame = await loop.run_in_executor(
                self._handler_pool, work, *args
            )
            # Counted here, on the loop, like every other server counter.
            self._served += served
            return frame
        except Exception as error:  # noqa: BLE001 - surfaced as a typed frame
            return self._error("optimization-failed", f"{type(error).__name__}: {error}")
        finally:
            elapsed = time.monotonic() - started
            self._service_time_ewma_s = (
                0.8 * self._service_time_ewma_s + 0.2 * elapsed
            )
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()

    def _optimize_frame(
        self, payload: dict[str, Any]
    ) -> tuple[bool, bytes | dict[str, Any]]:
        """Parse, optimize, and encode the response on a handler thread.

        Returns whether the request was served (an ``ok`` frame) alongside
        the frame; a DP failure propagates to :meth:`_admitted`, which
        types it.

        Keeping the codec work off the event loop matters under load: the
        loop thread then only shuttles opaque bytes (and tiny error
        frames), so a pending frame read or write never waits behind
        another request's JSON encoding for the GIL while DP threads are
        busy.
        """
        if self.inject_latency_s > 0:
            # Fault injection: a degraded shard answers correctly, slowly.
            time.sleep(self.inject_latency_s)
        try:
            query = query_from_dict(read(payload, "query", dict))
            settings = read(payload, "settings", dict, None)
            settings = None if settings is None else settings_from_wire(settings)
            workers = read_int(payload, "workers", None, low=1)
        except ValueError as error:
            return False, self._error("bad-request", f"malformed optimize request: {error}")
        result = self.gateway.optimize(query, settings, workers)
        response = {"ok": True, "result": result_to_wire(result)}
        return True, encode_frame(response)

    @staticmethod
    def _error(
        error_type: str, message: str, retry_after_s: float | None = None
    ) -> dict[str, Any]:
        error: dict[str, Any] = {"type": error_type, "message": message}
        if retry_after_s is not None:
            error["retry_after_s"] = retry_after_s
        return {"ok": False, "error": error}

    def _stats(self) -> dict[str, Any]:
        gateway = self.gateway.stats()
        return {
            "shard_id": self.shard_id,
            "status": "draining" if self._draining else "serving",
            "served": self._served,
            "rejected_overload": self._rejected_overload,
            "rejected_draining": self._rejected_draining,
            "protocol_errors": self._protocol_errors,
            "snapshot_exported": self._snapshot_exported,
            "snapshot_imported": self._snapshot_imported,
            "in_flight": self._in_flight,
            "requests": gateway.requests,
            "optimizations": gateway.optimizations,
            "coalesced": gateway.coalesced,
            "cache_hits": gateway.hits,
            "cache_misses": gateway.misses,
            "envelope_hits": gateway.envelope_hits,
        }


async def _run_until_signalled(server: ShardServer) -> None:
    """Serve, draining gracefully on SIGTERM/SIGINT."""
    import signal

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.drain())
            )
    await server.serve_forever()


def run_shard_server(listen: str, **kwargs: Any) -> None:
    """Blocking entry point used by ``python -m repro shard-server``.

    ``kwargs`` are :class:`ShardServer`'s.
    """
    # A shard server mixes an IO loop with CPU-bound DP handler threads;
    # at the default 5 ms GIL switch interval every loop wakeup (accept,
    # frame read, response write) can stall behind a DP thread's full
    # quantum.  A shorter interval trades a little enumeration throughput
    # for far lower protocol latency under load.
    sys.setswitchinterval(1e-3)
    asyncio.run(_run_until_signalled(ShardServer(listen, **kwargs)))
