"""Client side of the out-of-process gateway: routing, pooling, breaking.

The sharded gateway (:mod:`repro.service.gateway`) scales to one process's
threads; the ROADMAP's millions-of-users shape needs shard *processes* —
each with its own GIL, worker pool, and persistent cache log — behind a
front door.  :mod:`repro.service.server` is the shard process; this module
is the front door:

* :class:`ConsistentHashRing` — fingerprint routing over live shards with
  virtual nodes, so adding or removing a shard remaps only the keys
  adjacent to its ring positions instead of reshuffling the whole space.
  Routing is deterministic per fingerprint, which is what keeps request
  coalescing *shard-local*: every client racing one fingerprint lands on
  the same shard server, whose in-process singleflight then pays exactly
  one DP run — the system invariant holds across process boundaries;
* :class:`CircuitBreaker` — per-shard failure containment.  ``closed``
  until :data:`BREAKER_FAILURES` consecutive transport failures, then ``open``
  (requests fail fast with :class:`ShardUnavailableError`, no connection
  attempted) for :data:`BREAKER_RESET_S`, then ``half-open`` (exactly one probe
  allowed through; success closes the breaker, failure reopens it);
* :class:`NetworkOptimizerGateway` — the router.  ``optimize`` fingerprints
  the query, routes it on the ring, and speaks the length-prefixed frame
  protocol (:mod:`repro.cluster.network`) over a per-shard pool of blocking
  sockets (thread-safe: each client thread checks a connection out, so a
  64-thread herd multiplexes over at most 64 sockets).  Server-side
  overload and drain rejections surface as
  :class:`~repro.service.aio.GatewayOverloadedError` carrying the server's
  ``retry_after_s``; transport failures count against the shard's breaker
  and surface as :class:`ShardUnavailableError` with a ``retry_after_s`` of
  the breaker's next probe.  Shards can be added/removed live,
  :meth:`~NetworkOptimizerGateway.check_health` drives breaker recovery,
  and :meth:`~NetworkOptimizerGateway.drain` gracefully quiesces every shard
  (stop accepting, finish in-flight, flush cache logs) before shutdown.
  Each attempt goes to exactly one shard, the key's ring owner, so no
  request's work is ever duplicated on a second shard.

The wire asks by **fingerprint first**.  ``optimize`` has already computed
the canonical form and the cache key, so it sends a ~100-byte ``lookup``
frame carrying only the key (and θ); a shard whose cache holds the key
answers with the plans in *canonical* numbering and this client decodes
them straight into the requester's numbering with the
``canonical.numbering`` it already holds.  Only an ``unknown-key`` reply
makes the client ship the full ``optimize`` frame, whose reply comes back
in the requester's numbering —
the shard then canonicalises and fingerprints the query itself, trusting
nothing the client computed.
"""

from __future__ import annotations

import bisect
import hashlib
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.cluster.network import FrameError, recv_frame, send_frame
from repro.cluster.serialization import (
    plans_from_wire,
    plans_to_wire,
    settings_to_wire,
)
from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.query.io import query_to_dict
from repro.query.query import Query
from repro.service.aio import GatewayOverloadedError
from repro.service.fingerprint import CanonicalForm
from repro.service.remap import invert
from repro.service.service import ServiceResult, resolve
from repro.util.readers import read, read_float, read_int

#: Protocol identity exchanged in the hello frame; peers reject mismatches.
PROTOCOL_FORMAT = "repro-net"
PROTOCOL_VERSION = 4

#: Virtual nodes per shard on every :class:`ConsistentHashRing`.  Part of
#: the protocol like the version: a fleet and its routers must place the
#: same keys on the same shards, so the count is fixed, not configured.
RING_REPLICAS = 64

#: Floor on the overload-retry sleep.  A shard advertising
#: ``retry_after_s=0`` (or a malformed field defaulting low) must not turn
#: the retry loop into a busy-spin that hammers the shard it is waiting on.
OVERLOAD_RETRY_FLOOR_S = 0.005

#: Consecutive transport failures that open a shard's breaker.
BREAKER_FAILURES = 3

#: Seconds an open breaker refuses before it admits one half-open probe.
BREAKER_RESET_S = 1.0


# ------------------------------------------------------------------ addresses


@dataclass(frozen=True)
class Address:
    """One shard endpoint: a unix-socket path or a TCP host/port."""

    kind: str  # "unix" | "tcp"
    path: str = ""
    host: str = ""
    port: int = 0

    @classmethod
    def parse(cls, spec: str) -> "Address":
        """Parse ``unix:/path/to.sock`` or ``host:port`` (``:port`` = localhost)."""
        if spec.startswith("unix:"):
            path = spec[len("unix:") :]
            if not path:
                raise ValueError(f"empty unix-socket path in {spec!r}")
            return cls(kind="unix", path=path)
        host, separator, port = spec.rpartition(":")
        if not separator or not (port.isascii() and port.isdigit() and int(port) <= 65535):
            raise ValueError(
                f"bad address {spec!r}: expected unix:/path or host:port (port 0-65535)"
            )
        return cls(kind="tcp", host=host or "127.0.0.1", port=int(port))

    def connect(self, timeout_s: float) -> socket.socket:
        """Open a blocking socket to this endpoint."""
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout_s)
                sock.connect(self.path)
            except BaseException:
                sock.close()
                raise
            return sock
        sock = socket.create_connection((self.host, self.port), timeout=timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


def handshake(sock: socket.socket) -> None:
    """Read and validate a freshly connected shard's hello frame.

    The one place the protocol identity is enforced: a peer announcing
    anything but :data:`PROTOCOL_FORMAT` at :data:`PROTOCOL_VERSION` is
    refused with :class:`FrameError` (the caller owns — and closes — the
    socket).  There is no negotiation: router and shards ship from one
    checkout.
    """
    hello = recv_frame(sock)
    if (
        hello is None
        or hello.get("format") != PROTOCOL_FORMAT
        or hello.get("version") != PROTOCOL_VERSION
    ):
        raise FrameError(
            f"peer {sock.getpeername()!r} did not speak "
            f"{PROTOCOL_FORMAT} v{PROTOCOL_VERSION} (hello: {hello!r})"
        )


# ---------------------------------------------------------------- result codec


def result_to_wire(result: ServiceResult) -> dict[str, Any]:
    """JSON-compatible encoding of a :class:`ServiceResult` (lossless)."""
    return {
        "plans": plans_to_wire(result.plans),
        "n_partitions": result.n_partitions,
        "fingerprint": result.fingerprint,
        "cached": result.cached,
        "backend_used": result.backend_used,
        # The θ this answer was bound at (omitted when unbound) — clients
        # can audit that a routed parametric request came back bound.
        **({"theta": result.theta} if result.theta is not None else {}),
    }


def result_from_wire(
    data: dict[str, Any], mapping: tuple[int, ...] | None = None
) -> ServiceResult:
    """Inverse of :func:`result_to_wire`; raises ``ValueError`` when malformed.

    ``mapping`` (``mapping[old] = new``) decodes the plans straight into
    another table numbering — see :func:`plans_from_wire`.
    """
    return ServiceResult(
        plans=plans_from_wire(read(data, "plans", list), mapping),
        n_partitions=read_int(data, "n_partitions", low=1),
        fingerprint=read(data, "fingerprint", str),
        cached=read(data, "cached", bool),
        backend_used=read(data, "backend_used", str, ""),
        theta=read_float(data, "theta", None, low=0.0, high=1.0),
    )


# -------------------------------------------------------------------- errors


class ShardUnavailableError(ConnectionError):
    """The shard owning this fingerprint cannot serve right now.

    Raised when the shard's circuit breaker is open (no connection is even
    attempted) or when a transport failure just occurred.  ``retry_after_s``
    is when the breaker will next let a probe through — a client honoring
    it converges on the shard's actual recovery instead of hammering a dead
    socket.
    """

    def __init__(self, shard: str, reason: str, retry_after_s: float) -> None:
        super().__init__(
            f"shard {shard!r} unavailable ({reason}); retry after "
            f"{retry_after_s:.3f}s"
        )
        self.shard = shard
        self.reason = reason
        self.retry_after_s = retry_after_s


class RemoteOptimizationError(RuntimeError):
    """The shard served the request but the optimization itself failed."""

    def __init__(self, shard: str, error_type: str, message: str) -> None:
        super().__init__(f"shard {shard!r} reported {error_type}: {message}")
        self.shard = shard
        self.error_type = error_type


# --------------------------------------------------------------- hash ring


class ConsistentHashRing:
    """Consistent hashing of fingerprints onto named shards.

    Each shard contributes :data:`RING_REPLICAS` virtual nodes at sha256-derived
    positions in the 32-bit key space (the same space the in-process
    gateway's range router uses); a fingerprint routes to the first virtual
    node clockwise from its own 32-bit prefix.  Adding or removing one
    shard therefore remaps only ``~1/n`` of the keys — every other
    fingerprint keeps its shard, and with it its warm cache entries.
    """

    def __init__(self) -> None:
        self._points: list[int] = []
        self._owners: list[str] = []
        self._shards: set[str] = set()

    @staticmethod
    def _position(label: str) -> int:
        return int.from_bytes(
            hashlib.sha256(label.encode()).digest()[:4], "big"
        )

    def add(self, shard: str) -> None:
        """Add a shard's virtual nodes; idempotent."""
        if shard in self._shards:
            return
        self._shards.add(shard)
        for replica in range(RING_REPLICAS):
            point = self._position(f"{shard}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard)

    def remove(self, shard: str) -> None:
        """Remove a shard's virtual nodes; unknown names are a no-op."""
        if shard not in self._shards:
            return
        self._shards.discard(shard)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != shard
        ]
        self._points = [point for point, __ in keep]
        self._owners = [owner for __, owner in keep]

    def route(self, key: str) -> str:
        """The shard owning fingerprint ``key``; deterministic per ring state."""
        if not self._points:
            raise LookupError("hash ring is empty; no shards registered")
        point = int(key[:8], 16)
        index = bisect.bisect(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def shards(self) -> list[str]:
        """Registered shard names, sorted."""
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)


# ----------------------------------------------------------- circuit breaker


class CircuitBreaker:
    """Closed / open / half-open failure containment for one shard.

    :data:`BREAKER_FAILURES` *consecutive* failures open the breaker; while
    open, :meth:`allow` refuses instantly.  After :data:`BREAKER_RESET_S`
    the next :meth:`allow` admits exactly one half-open probe: its success
    closes the breaker, its failure reopens it for another timeout.
    Thread-safe — many client threads consult one breaker.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a request may proceed; may admit the half-open probe."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= BREAKER_RESET_S:
                    self._state = "half-open"
                    return True
                return False
            return False  # half-open: one probe is already in flight

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == "half-open"
                or self._consecutive_failures >= BREAKER_FAILURES
            ):
                self._state = "open"
                self._opened_at = self._clock()

    def retry_after_s(self) -> float:
        """Seconds until the next probe is admitted (0 when not open)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(0.0, self._opened_at + BREAKER_RESET_S - self._clock())


# ------------------------------------------------------------ shard link


class _ShardLink:
    """One shard's connection pool plus its circuit breaker."""

    def __init__(
        self,
        name: str,
        address: Address,
        breaker: CircuitBreaker,
        connect_timeout_s: float,
        request_timeout_s: float,
    ) -> None:
        self.name = name
        self.address = address
        self.breaker = breaker
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self._idle: list[socket.socket] = []
        self._closed = False
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        sock = self.address.connect(self.connect_timeout_s)
        try:
            sock.settimeout(self.request_timeout_s)
            handshake(sock)
        except BaseException:
            sock.close()
            raise
        return sock

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip on a pooled connection.

        Transport failures close the connection and propagate (the caller
        records them against the breaker); a clean round trip returns the
        connection to the pool for the next caller.

        Safe against concurrent :meth:`close` (a live shard removal): a
        request that checked its socket out before the close finishes its
        round trip undisturbed — close only sweeps *idle* sockets — and a
        request arriving after the close fails typed
        (:class:`ConnectionError`, which the gateway maps to
        :class:`ShardUnavailableError`) instead of opening a fresh socket
        into an orphaned pool.
        """
        with self._lock:
            if self._closed:
                raise ConnectionError(
                    f"shard {self.name!r} was removed from the ring"
                )
            sock = self._idle.pop() if self._idle else None
        if sock is None:
            sock = self._connect()
        try:
            send_frame(sock, payload)
            response = recv_frame(sock)
        except BaseException:
            sock.close()
            raise
        if response is None:
            sock.close()
            raise FrameError(
                f"shard {self.name!r} closed the connection mid-request"
            )
        # Mark-and-sweep return: a socket coming home to a closed link is
        # retired on the spot (close() already swept the idle pool and will
        # not run again), never leaked into a pool nobody drains.
        with self._lock:
            retire = self._closed
            if not retire:
                self._idle.append(sock)
        if retire:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        return response

    def close(self) -> None:
        """Mark the link closed and sweep idle sockets.

        In-flight round trips keep their checked-out sockets and complete
        (or fail) on their own; each is retired when returned.  Idempotent.
        """
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for sock in idle:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass


# ---------------------------------------------------------------- the router


class NetworkOptimizerGateway:
    """Route optimization requests to out-of-process shard servers.

    Args:
        shards: shard endpoints — a mapping of name to address spec, or an
            iterable of address specs (named ``shard-0`` … in order).
            Specs are ``unix:/path/to.sock`` or ``host:port``.
        settings: default :class:`OptimizerSettings` for requests.
        n_workers: default per-query parallelism requested of shards.
        connect_timeout_s / request_timeout_s: socket bounds; a shard that
            stops answering fails the request (and counts against its
            breaker) instead of hanging the client thread.
        overload_retries: how many times :meth:`optimize` resubmits after a
            shard's ``overloaded`` rejection, sleeping the advertised
            ``retry_after_s`` between attempts (clamped to
            [:data:`OVERLOAD_RETRY_FLOOR_S`, 1.0] — a shard advertising 0
            must not busy-spin the client).  The default 0 surfaces every
            rejection as :class:`GatewayOverloadedError` so callers apply
            their own policy; a thread-herd replayer sets this high enough
            to ride out admission-control bursts.
    """

    def __init__(
        self,
        shards: dict[str, str] | Iterable[str],
        settings: OptimizerSettings = DEFAULT_SETTINGS,
        n_workers: int = 8,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 60.0,
        overload_retries: int = 0,
    ) -> None:
        if not isinstance(shards, dict):
            shards = {
                f"shard-{index}": spec for index, spec in enumerate(shards)
            }
        if not shards:
            raise ValueError("at least one shard endpoint is required")
        self.settings = settings
        self.n_workers = n_workers
        self._connect_timeout_s = connect_timeout_s
        self._request_timeout_s = request_timeout_s
        self._overload_retries = overload_retries
        self._ring = ConsistentHashRing()
        self._links: dict[str, _ShardLink] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: Client-side counters, guarded by ``_lock``; ``stats()`` copies them.
        self._counters = {"requests": 0, "breaker_rejections": 0}
        for name, spec in shards.items():
            self.add_shard(name, spec)

    # --------------------------------------------------------------- topology

    def add_shard(self, name: str, spec: str) -> None:
        """Register a shard endpoint and place it on the ring."""
        link = _ShardLink(
            name=name,
            address=Address.parse(spec),
            breaker=CircuitBreaker(),
            connect_timeout_s=self._connect_timeout_s,
            request_timeout_s=self._request_timeout_s,
        )
        with self._lock:
            if name in self._links:
                raise ValueError(f"shard {name!r} is already registered")
            self._links[name] = link
            self._ring.add(name)

    def remove_shard(self, name: str) -> None:
        """Take a shard off the ring and close its pooled connections.

        Only keys adjacent to its virtual nodes remap; in-flight requests
        already talking to the shard complete (or fail) on their own.
        """
        with self._lock:
            link = self._links.pop(name, None)
            self._ring.remove(name)
        if link is not None:
            link.close()

    def shard_names(self) -> list[str]:
        """Registered shard names, sorted."""
        with self._lock:
            return self._ring.shards()

    def shard_for(self, key: str) -> str:
        """The shard name owning fingerprint ``key`` under the current ring."""
        with self._lock:
            return self._ring.route(key)

    # ---------------------------------------------------------------- serving

    def optimize(
        self,
        query: Query,
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
        tenant: str = "default",
    ) -> ServiceResult:
        """Optimize one query on the shard owning its fingerprint.

        Thread-safe.  Raises :class:`ShardUnavailableError` when the owning
        shard's breaker is open or the transport fails,
        :class:`GatewayOverloadedError` when the shard rejects for overload
        or drain (both carry ``retry_after_s``), and
        :class:`RemoteOptimizationError` when the shard's own optimization
        failed.

        The owning shard is first asked for the key alone (``lookup``); the
        full query ships only when the shard answers ``unknown-key``.
        """
        settings, workers, canonical, key, theta = resolve(
            self, query, settings, n_workers
        )
        with self._lock:
            # Once per call, not per attempt: the lookup, the optimize frame
            # a miss follows it with, and overload retries (which re-route)
            # are all the same request.
            self._counters["requests"] += 1

        payload: dict[str, Any] = {"op": "lookup", "key": key, "theta": theta}
        retries_left = self._overload_retries
        while True:
            # Re-route every attempt: the ring may have changed, and after a
            # removal the key's new owner is who should see the retry.
            shard_name, response = self._attempt(key, payload)
            if response.get("ok"):
                return self._result(response, canonical)
            error = self._typed_error(shard_name, response, tenant)
            if isinstance(error, GatewayOverloadedError):
                if retries_left == 0:
                    raise error
                retries_left -= 1
                # Clamp below as well as above: a shard advertising
                # retry_after_s=0 would otherwise busy-spin this loop,
                # hammering the exact shard that asked for breathing room.
                time.sleep(
                    min(max(error.retry_after_s, OVERLOAD_RETRY_FLOOR_S), 1.0)
                )
            elif payload["op"] == "lookup" and error.error_type == "unknown-key":
                # The miss path, and the only one: the shard sees the whole
                # query and runs (or coalesces onto) the DP.
                payload = {
                    "op": "optimize",
                    "query": query_to_dict(query),
                    "settings": settings_to_wire(settings),
                    "workers": workers,
                }
            else:
                raise error

    @staticmethod
    def _result(response: dict[str, Any], canonical: CanonicalForm) -> ServiceResult:
        """Decode an ``ok`` response into the requester's numbering.

        An ``optimize`` reply is already there; a ``lookup`` reply carries
        the shard's canonical answer (θ beside it, outside the bytes the
        shard memoises) and is decoded straight into the requester's
        numbering through ``invert(canonical.numbering)`` — the mapping
        ``relabel`` applies in process, without building the canonical
        plans first.
        """
        answer = read(response, "canonical", dict, None)
        if answer is None:
            return result_from_wire(read(response, "result", dict))
        answer = {**answer, "theta": read_float(response, "theta", None)}
        return result_from_wire(answer, invert(canonical.numbering))

    def optimize_batch(
        self,
        queries: Iterable[Query],
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> list[ServiceResult]:
        """Optimize many queries, fanning out across shard connections.

        A thin convenience over :meth:`optimize` — coalescing and caching
        happen shard-side, so a plain thread fan-out already gets one DP
        run per unique fingerprint.  Results return in input order; the
        first failure propagates after all requests finish.
        """
        requests = list(queries)
        if not requests:
            return []
        with ThreadPoolExecutor(
            max_workers=min(16, len(requests)), thread_name_prefix="net-batch"
        ) as pool:
            futures = [
                pool.submit(self.optimize, query, settings, n_workers)
                for query in requests
            ]
            return [future.result() for future in futures]

    def _route(self, key: str) -> _ShardLink:
        """The link of the shard owning ``key`` under the current ring."""
        with self._lock:
            if self._closed:
                raise RuntimeError("network gateway is closed")
            return self._links[self._ring.route(key)]

    def _attempt(self, key: str, payload: dict[str, Any]) -> tuple[str, dict[str, Any]]:
        """One routed request attempt; returns (shard, response)."""
        link = self._route(key)
        return link.name, self._call(link, payload)

    def _call(self, link: _ShardLink, payload: dict[str, Any]) -> dict[str, Any]:
        """One breaker-guarded request against a shard."""
        if not link.breaker.allow():
            with self._lock:
                self._counters["breaker_rejections"] += 1
            raise ShardUnavailableError(
                link.name,
                "circuit breaker open",
                max(link.breaker.retry_after_s(), 1e-3),
            )
        try:
            response = link.request(payload)
        except (OSError, FrameError) as error:
            link.breaker.record_failure()
            raise ShardUnavailableError(
                link.name,
                f"transport failure: {error}",
                max(link.breaker.retry_after_s(), 1e-3),
            ) from error
        link.breaker.record_success()
        return response

    @staticmethod
    def _typed_error(shard: str, response: dict[str, Any], tenant: str) -> Exception:
        """Map a shard's error response onto the client-side exception.

        ``tenant`` is the caller's own label: it never crosses the wire.
        """
        error = read(response, "error", dict, {})
        error_type = read(error, "type", str, "unknown")
        if error_type in ("overloaded", "draining"):
            return GatewayOverloadedError(
                error_type, read_float(error, "retry_after_s", 0.05, low=0.0), tenant
            )
        return RemoteOptimizationError(
            shard, error_type, read(error, "message", str, "no message")
        )

    # ----------------------------------------------------------------- health

    def check_health(self) -> dict[str, dict[str, Any]]:
        """Probe every shard once; returns per-shard health/breaker state.

        A reachable shard reports its server-side status (``serving`` or
        ``draining``) and closes its breaker; an unreachable one, or one
        whose reply does not read, records a breaker failure.  Open-breaker
        shards are probed only when their reset timeout has elapsed (the
        half-open rule), so a dead shard is not hammered.
        """
        with self._lock:
            links = list(self._links.values())
        report: dict[str, dict[str, Any]] = {}
        for link in links:
            entry: dict[str, Any] = {"address": str(link.address)}
            if not link.breaker.allow():
                entry["reachable"] = False
                entry["status"] = "circuit-open"
            else:
                try:
                    response = link.request({"op": "health"})
                    status = read(response, "status", str)
                    in_flight = read_int(response, "in_flight", low=0)
                except (OSError, ValueError) as error:  # FrameError included
                    link.breaker.record_failure()
                    entry["reachable"] = False
                    entry["status"] = f"unreachable: {error}"
                else:
                    link.breaker.record_success()
                    entry["reachable"] = True
                    entry["status"] = status
                    entry["in_flight"] = in_flight
            entry["breaker"] = link.breaker.state
            report[link.name] = entry
        return report

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict[str, Any]:
        """Client-side counters plus each reachable shard's server stats.

        A shard that cannot be reached, or whose reply does not read, is
        reported ``reachable: False`` with the reason under ``error``.
        """
        with self._lock:
            counters = dict(self._counters)
            links = list(self._links.values())
        shards: dict[str, Any] = {}
        for link in links:
            entry: dict[str, Any] = {
                "address": str(link.address),
                "breaker": link.breaker.state,
            }
            if link.breaker.allow():
                try:
                    shard_stats = read(link.request({"op": "stats"}), "stats", dict)
                except (OSError, ValueError) as error:  # FrameError included
                    link.breaker.record_failure()
                    entry["reachable"] = False
                    entry["error"] = str(error)
                else:
                    link.breaker.record_success()
                    entry["reachable"] = True
                    entry.update(shard_stats)
            else:
                entry["reachable"] = False
            shards[link.name] = entry
        return {**counters, "shards": shards}

    # --------------------------------------------------------------- lifecycle

    def drain(self, timeout_s: float = 30.0) -> dict[str, bool]:
        """Gracefully quiesce every shard: finish in-flight, flush, stop.

        Returns per-shard success.  A shard that cannot be reached (already
        dead, breaker open) is reported ``False`` rather than raising — the
        point of drain is best-effort quiescence before shutdown.
        """
        with self._lock:
            links = list(self._links.values())
        report: dict[str, bool] = {}
        for link in links:
            try:
                response = link.request({"op": "drain", "timeout_s": timeout_s})
                report[link.name] = read(response, "drained", bool, False)
            except (OSError, FrameError, ValueError):
                report[link.name] = False
        return report

    def close(self) -> None:
        """Release every pooled connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            links = list(self._links.values())
        for link in links:
            link.close()

    def __enter__(self) -> "NetworkOptimizerGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
