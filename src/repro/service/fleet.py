"""The shard-fleet supervisor: processes, restarts, live rebalancing.

:mod:`repro.service.server` is one shard process and
:mod:`repro.service.net` is the client-side router over many of them; this
module is the missing operational layer between the two — the thing that
actually *runs* a fleet:

* **supervision** — :class:`ShardFleet` spawns N ``python -m repro
  shard-server`` processes (one unix socket each, optional per-shard disk
  cache logs), health-watches them, and restarts a crashed shard with
  exponential backoff (``backoff_base_s * 2^consecutive-crashes``, capped).
  A restarted shard re-binds the same endpoint, so connected routers need
  no topology change: their circuit breaker opens on the crash, then
  re-admits the shard through its half-open probe once the replacement
  answers.  With ``cache_dir`` set, the replacement recovers its warm plan
  cache from its own disk log before serving;
* **membership republication** — routers registered via
  :meth:`ShardFleet.attach_router` receive every topology change
  (:meth:`~repro.service.net.NetworkOptimizerGateway.add_shard` /
  ``remove_shard``) the moment it commits, and ``membership_path`` (the CLI
  sets it) mirrors the current endpoint map to a JSON file after every
  change so out-of-process routers can follow along;
* **live ring rebalancing with snapshot shipping** — :meth:`add_shard` and
  :meth:`remove_shard` move the affected keys' *cache entries* before they
  move the keys.  The fleet asks each source shard for its live keys
  (``snapshot``/``keys``), computes which ones the post-change ring would
  re-own, exports exactly those entries (``snapshot``/``export`` — the
  same ``put`` records :meth:`~repro.service.tiers.DiskTier.export_snapshot`
  writes), imports them into the new owner (``snapshot``/``import``,
  durable under write-through before the ack), and only *then* republishes
  the ring to every attached router.  A moved key's first request on its
  new owner is therefore a cache hit — zero extra DP runs — and until the
  flip, traffic kept hitting the old owner, whose entries were still in
  place.  After the flip the old owner's moved entries are swept
  best-effort (``snapshot``/``evict``).  Any failure before the flip
  aborts the whole rebalance with :class:`FleetRebalanceError` and rolls
  back: no router learned anything, no source entry was evicted, and (for
  :meth:`add_shard`) the half-provisioned shard process is torn down.

The shipment runs in two passes: keys warmed on a source *during* the
first pass are picked up by the second, shrinking the cold-key window of a
rebalance racing live traffic to the gap between the final pass and the
ring flip.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from repro.cluster.network import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameError,
    recv_frame,
    send_frame,
)
from repro.cluster.serialization import snapshot_from_wire, snapshot_to_wire
from repro.service.net import (
    Address,
    ConsistentHashRing,
    NetworkOptimizerGateway,
    handshake,
)

#: Identity of the membership file written at ``membership_path``.
MEMBERSHIP_FORMAT = "repro-fleet"
MEMBERSHIP_VERSION = 1


class FleetError(RuntimeError):
    """A fleet-level operation failed (spawn, control call, lifecycle)."""


class FleetRebalanceError(FleetError):
    """A rebalance aborted before the ring flip; routing and caches are
    unchanged (the entries stayed on their old owners)."""


@dataclass
class ShardHandle:
    """One supervised shard process and its restart bookkeeping."""

    name: str
    spec: str
    argv: list[str]
    process: subprocess.Popen | None = None
    log_path: Path | None = None
    log_file: IO[bytes] | None = None
    restarts: int = 0
    consecutive_crashes: int = 0
    next_restart_at: float = 0.0
    last_spawn_at: float = 0.0

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class ShardFleet:
    """Spawn, supervise, and rebalance a fleet of shard-server processes.

    Args:
        n_shards: initial shard count (``shard-0`` … ``shard-<n-1>``), each
            listening on a unix socket under ``socket_dir``.
        socket_dir: directory for the fleet's unix sockets (and, via the
            CLI, its membership file).  Created if missing.
        cache_dir: when set, every shard persists its plan cache to
            ``cache_dir/shard-<i>.log`` — which is also what lets a
            restarted shard come back warm.
        n_workers / max_in_flight / cache_capacity: forwarded to every
            ``shard-server`` process.
        health_interval_s: supervisor poll cadence (process liveness and
            restart scheduling).
        backoff_base_s / backoff_cap_s: restart backoff — the k-th
            consecutive crash waits ``min(cap, base * 2^(k-1))`` before the
            replacement spawns.
        stable_reset_s: a shard alive this long has its crash streak
            forgiven (the next crash starts the backoff ladder over).
        ring_replicas: virtual nodes per shard for the fleet's *own* ring
            computation; must match the routers' ``ring_replicas`` or the
            fleet would ship entries to shards the routers never ask.
        spawn_timeout_s: how long a freshly spawned shard gets to answer
            its first health probe.
        log_dir: when set, each shard's stdout/stderr is appended to
            ``log_dir/<name>.log`` (CI uploads these on failure); default
            inherits the supervisor's own stderr.
        membership_path: when set, the current endpoint map is rewritten
            here (atomically) after every topology change.
        inject_latency_ms: per-shard fault injection (name → milliseconds),
            forwarded as ``--inject-latency-ms`` — benchmarks use it to
            build the deliberately slow shard the hedging gate needs.
    """

    def __init__(
        self,
        n_shards: int,
        socket_dir: str | os.PathLike,
        cache_dir: str | os.PathLike | None = None,
        n_workers: int = 4,
        max_in_flight: int = 16,
        cache_capacity: int = 256,
        health_interval_s: float = 0.2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        stable_reset_s: float = 5.0,
        ring_replicas: int = 64,
        spawn_timeout_s: float = 20.0,
        log_dir: str | os.PathLike | None = None,
        membership_path: str | os.PathLike | None = None,
        inject_latency_ms: dict[str, float] | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.socket_dir = Path(socket_dir)
        self.socket_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.n_workers = n_workers
        self.max_in_flight = max_in_flight
        self.cache_capacity = cache_capacity
        self.health_interval_s = health_interval_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.stable_reset_s = stable_reset_s
        self.ring_replicas = ring_replicas
        self.spawn_timeout_s = spawn_timeout_s
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self.membership_path = (
            Path(membership_path) if membership_path is not None else None
        )
        self.inject_latency_ms = dict(inject_latency_ms or {})
        self.max_frame_bytes = max_frame_bytes
        self._n_initial = n_shards
        self._next_index = n_shards
        self._handles: dict[str, ShardHandle] = {}
        self._routers: list[NetworkOptimizerGateway] = []
        self._lock = threading.RLock()
        #: Serializes topology changes; a rebalance is one critical section.
        self._rebalance_lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False
        self._restarts = 0
        self._snapshot_shipped = 0
        self._rebalances = 0

    # ----------------------------------------------------------------- spawning

    def _spec_for(self, name: str) -> str:
        return f"unix:{self.socket_dir / (name + '.sock')}"

    def _argv_for(self, name: str, shard_index: int) -> list[str]:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "shard-server",
            "--listen",
            self._spec_for(name),
            "--shard-id",
            str(shard_index),
            "--workers",
            str(self.n_workers),
            "--max-in-flight",
            str(self.max_in_flight),
            "--cache-size",
            str(self.cache_capacity),
        ]
        if self.cache_dir is not None:
            argv += ["--cache-dir", str(self.cache_dir)]
        latency_ms = self.inject_latency_ms.get(name, 0.0)
        if latency_ms > 0:
            argv += ["--inject-latency-ms", str(latency_ms)]
        return argv

    def _child_env(self) -> dict[str, str]:
        """Ensure the child can import :mod:`repro` wherever we were run from."""
        import repro

        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{package_root}{os.pathsep}{existing}" if existing else package_root
            )
        return env

    def _spawn_process(self, handle: ShardHandle) -> None:
        if self.log_dir is not None and handle.log_file is None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
            handle.log_path = self.log_dir / f"{handle.name}.log"
            handle.log_file = open(handle.log_path, "ab")
        sink = handle.log_file if handle.log_file is not None else None
        handle.process = subprocess.Popen(
            handle.argv,
            stdout=sink,
            stderr=subprocess.STDOUT if sink is not None else None,
            env=self._child_env(),
        )
        handle.last_spawn_at = time.monotonic()

    def _wait_ready(self, handle: ShardHandle, timeout_s: float) -> None:
        """Block until the shard answers a health probe (or fail loudly)."""
        deadline = time.monotonic() + timeout_s
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            if handle.process is not None and handle.process.poll() is not None:
                raise FleetError(
                    f"shard {handle.name!r} exited with "
                    f"{handle.process.returncode} before becoming ready"
                    + (f" (log: {handle.log_path})" if handle.log_path else "")
                )
            try:
                response = self._shard_call(
                    handle.spec, {"op": "health"}, timeout_s=1.0
                )
            except (OSError, FrameError, FleetError) as error:
                last_error = error
                time.sleep(0.02)
                continue
            if response.get("status") in ("serving", "draining"):
                return
        raise FleetError(
            f"shard {handle.name!r} did not become ready within {timeout_s}s "
            f"(last error: {last_error})"
        )

    def start(self) -> None:
        """Spawn every shard, wait for readiness, start the supervisor."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self._n_initial):
                name = f"shard-{index}"
                handle = ShardHandle(
                    name=name,
                    spec=self._spec_for(name),
                    argv=self._argv_for(name, index),
                )
                self._handles[name] = handle
        for handle in list(self._handles.values()):
            self._spawn_process(handle)
        for handle in list(self._handles.values()):
            self._wait_ready(handle, self.spawn_timeout_s)
        self._write_membership()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()

    # -------------------------------------------------------------- supervision

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.health_interval_s):
            try:
                self._check_once()
            except Exception:  # pragma: no cover - supervisor must never die
                pass

    def _check_once(self) -> None:
        now = time.monotonic()
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            if handle.alive():
                if (
                    handle.consecutive_crashes
                    and now - handle.last_spawn_at >= self.stable_reset_s
                ):
                    handle.consecutive_crashes = 0
                continue
            if handle.process is None:
                continue  # being provisioned by add_shard
            if handle.next_restart_at == 0.0:
                # Just observed the crash: schedule the replacement.
                handle.consecutive_crashes += 1
                delay = min(
                    self.backoff_cap_s,
                    self.backoff_base_s * (2 ** (handle.consecutive_crashes - 1)),
                )
                handle.next_restart_at = now + delay
                continue
            if now < handle.next_restart_at:
                continue
            handle.next_restart_at = 0.0
            with self._lock:
                if self._stop.is_set() or handle.name not in self._handles:
                    continue
                handle.restarts += 1
                self._restarts += 1
            self._spawn_process(handle)
            try:
                self._wait_ready(handle, self.spawn_timeout_s)
            except FleetError:
                # The replacement died too; the next poll schedules another
                # attempt one backoff step higher.
                pass

    # ------------------------------------------------------------ control plane

    def _shard_call(
        self, spec: str, payload: dict[str, Any], timeout_s: float = 30.0
    ) -> dict[str, Any]:
        """One fresh-connection request/response against a shard endpoint."""
        address = Address.parse(spec)
        sock = address.connect(timeout_s)
        try:
            sock.settimeout(timeout_s)
            handshake(sock, self.max_frame_bytes)
            send_frame(sock, payload, self.max_frame_bytes)
            response = recv_frame(sock, self.max_frame_bytes)
        finally:
            sock.close()
        if response is None:
            raise FrameError(f"endpoint {spec} closed the connection mid-request")
        if not response.get("ok"):
            error = response.get("error") or {}
            raise FleetError(
                f"shard at {spec} refused {payload.get('op')!r}/"
                f"{payload.get('mode')!r}: {error.get('type')}: "
                f"{error.get('message')}"
            )
        return response

    # ---------------------------------------------------------------- membership

    def endpoints(self) -> dict[str, str]:
        """Current shard name → endpoint spec map."""
        with self._lock:
            return {name: handle.spec for name, handle in self._handles.items()}

    def attach_router(self, router: NetworkOptimizerGateway) -> None:
        """Register a router for membership republication.

        The router must already know the fleet's current endpoints (build
        it from :meth:`endpoints`); from here on every committed topology
        change is pushed to it.
        """
        with self._lock:
            self._routers.append(router)

    def _publish_add(self, name: str, spec: str) -> None:
        with self._lock:
            routers = list(self._routers)
        for router in routers:
            try:
                router.add_shard(name, spec)
            except ValueError:
                pass  # already knew this shard
        self._write_membership()

    def _publish_remove(self, name: str) -> None:
        with self._lock:
            routers = list(self._routers)
        for router in routers:
            router.remove_shard(name)
        self._write_membership()

    def _write_membership(self) -> None:
        if self.membership_path is None:
            return
        payload = {
            "format": MEMBERSHIP_FORMAT,
            "version": MEMBERSHIP_VERSION,
            "shards": self.endpoints(),
        }
        temporary = self.membership_path.with_suffix(".tmp")
        temporary.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        os.replace(temporary, self.membership_path)

    # --------------------------------------------------------------- rebalancing

    def _ring_of(self, names: list[str]) -> ConsistentHashRing:
        ring = ConsistentHashRing(replicas=self.ring_replicas)
        for name in names:
            ring.add(name)
        return ring

    def _ship_into(
        self, new_name: str, new_spec: str, sources: dict[str, str]
    ) -> dict[str, list[str]]:
        """Ship every key the post-add ring re-owns to ``new_name``.

        Two passes close most of the window in which live traffic warms a
        source key after its listing.  Returns the moved keys per source
        (for the post-flip sweep).  Raises on any failure — the caller
        rolls back.
        """
        ring = self._ring_of([*sources, new_name])
        moved_by_source: dict[str, list[str]] = {}
        shipped: set[str] = set()
        for __ in range(2):
            for source, spec in sources.items():
                keys = self._shard_call(spec, {"op": "snapshot", "mode": "keys"})[
                    "keys"
                ]
                moved = [
                    key
                    for key in keys
                    if key not in shipped and ring.route(key) == new_name
                ]
                if not moved:
                    continue
                snapshot = self._shard_call(
                    spec, {"op": "snapshot", "mode": "export", "keys": moved}
                )["snapshot"]
                records = snapshot_from_wire(snapshot)
                if not records:
                    continue
                imported = self._shard_call(
                    new_spec,
                    {
                        "op": "snapshot",
                        "mode": "import",
                        "snapshot": snapshot_to_wire(records),
                    },
                )["imported"]
                with self._lock:
                    self._snapshot_shipped += int(imported)
                exported = [record["k"] for record in records]
                shipped.update(exported)
                moved_by_source.setdefault(source, []).extend(exported)
        return moved_by_source

    def _sweep(self, moved_by_source: dict[str, list[str]]) -> None:
        """Best-effort post-flip eviction of moved keys from old owners."""
        endpoints = self.endpoints()
        for source, keys in moved_by_source.items():
            spec = endpoints.get(source)
            if spec is None or not keys:
                continue
            try:
                self._shard_call(
                    spec, {"op": "snapshot", "mode": "evict", "keys": keys}
                )
            except (OSError, FrameError, FleetError):
                pass  # duplicates on a non-owner are harmless cache residents

    def add_shard(self, name: str | None = None) -> str:
        """Provision a shard, ship its keys' warm entries, then flip the ring.

        Ordering is the whole point: export → import → republish → sweep.
        Until the republish, routers keep sending moved keys to their old
        owners (whose entries are untouched); after it, the new owner
        already holds every shipped entry — so a rebalanced key pays zero
        extra DP runs.  Any failure before the republish tears the new
        process down and raises :class:`FleetRebalanceError`; nothing
        changed for routers or caches.
        """
        with self._rebalance_lock:
            with self._lock:
                if not self._started:
                    raise FleetError("fleet is not started")
                if name is None:
                    name = f"shard-{self._next_index}"
                if name in self._handles:
                    raise ValueError(f"shard {name!r} already exists")
                shard_index = self._next_index
                self._next_index += 1
                sources = {
                    handle.name: handle.spec for handle in self._handles.values()
                }
            handle = ShardHandle(
                name=name,
                spec=self._spec_for(name),
                argv=self._argv_for(name, shard_index),
            )
            try:
                self._spawn_process(handle)
                self._wait_ready(handle, self.spawn_timeout_s)
                moved_by_source = self._ship_into(name, handle.spec, sources)
            except (OSError, FrameError, FleetError, ValueError) as error:
                self._terminate(handle, drain=False)
                raise FleetRebalanceError(
                    f"provisioning shard {name!r} failed before the ring "
                    f"flip; routing and caches are unchanged: {error}"
                ) from error
            with self._lock:
                self._handles[name] = handle
                self._rebalances += 1
            self._publish_add(name, handle.spec)
            self._sweep(moved_by_source)
            return name

    def remove_shard(self, name: str) -> None:
        """Ship a leaving shard's entries to their next owners, then flip.

        The leaving shard serves traffic throughout the shipment; only
        after every target acked its import do routers drop it, so a moved
        key's first request on its new owner hits the shipped entry.  A
        dead shard (crashed, unreachable) is removed without shipping —
        with ``cache_dir`` its entries are in its log, not lost, just not
        migrated.  Failures during shipping raise
        :class:`FleetRebalanceError` and leave routing unchanged.
        """
        with self._rebalance_lock:
            with self._lock:
                handle = self._handles.get(name)
                if handle is None:
                    raise ValueError(f"unknown shard {name!r}")
                if len(self._handles) == 1:
                    raise FleetError("refusing to remove the last shard")
                targets = {
                    other.name: other.spec
                    for other in self._handles.values()
                    if other.name != name
                }
            if handle.alive():
                ring = self._ring_of(list(targets))
                try:
                    keys = self._shard_call(
                        handle.spec, {"op": "snapshot", "mode": "keys"}
                    )["keys"]
                    by_target: dict[str, list[str]] = {}
                    for key in keys:
                        by_target.setdefault(ring.route(key), []).append(key)
                    for target, moved in by_target.items():
                        snapshot = self._shard_call(
                            handle.spec,
                            {"op": "snapshot", "mode": "export", "keys": moved},
                        )["snapshot"]
                        records = snapshot_from_wire(snapshot)
                        if not records:
                            continue
                        imported = self._shard_call(
                            targets[target],
                            {
                                "op": "snapshot",
                                "mode": "import",
                                "snapshot": snapshot_to_wire(records),
                            },
                        )["imported"]
                        with self._lock:
                            self._snapshot_shipped += int(imported)
                except (OSError, FrameError, FleetError) as error:
                    raise FleetRebalanceError(
                        f"shipping shard {name!r}'s entries failed before the "
                        f"ring flip; it stays in the ring: {error}"
                    ) from error
            with self._lock:
                self._handles.pop(name, None)
                self._rebalances += 1
            self._publish_remove(name)
            self._terminate(handle, drain=True)

    # ---------------------------------------------------------------- lifecycle

    def _terminate(self, handle: ShardHandle, drain: bool) -> None:
        process = handle.process
        if process is not None and process.poll() is None:
            if drain:
                try:
                    self._shard_call(
                        handle.spec,
                        {"op": "drain", "timeout_s": 10.0},
                        timeout_s=15.0,
                    )
                except (OSError, FrameError, FleetError):
                    pass
            try:
                process.terminate()
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                process.kill()
                process.wait(timeout=10.0)
        if handle.log_file is not None:
            try:
                handle.log_file.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            handle.log_file = None
        address = Address.parse(handle.spec)
        if address.kind == "unix":
            Path(address.path).unlink(missing_ok=True)

    def stop(self) -> None:
        """Stop supervising and tear every shard down (drain best-effort)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            self._terminate(handle, drain=True)
        self._write_membership()

    def __enter__(self) -> "ShardFleet":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -------------------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        """Supervisor counters plus per-shard liveness/restart state."""
        with self._lock:
            return {
                "restarts": self._restarts,
                "snapshot_shipped": self._snapshot_shipped,
                "rebalances": self._rebalances,
                "shards": {
                    name: {
                        "listen": handle.spec,
                        "alive": handle.alive(),
                        "restarts": handle.restarts,
                        "pid": (
                            handle.process.pid
                            if handle.process is not None
                            else None
                        ),
                    }
                    for name, handle in self._handles.items()
                },
            }


def run_shard_fleet(
    n_shards: int,
    socket_dir: str | os.PathLike,
    **kwargs: Any,
) -> None:
    """Blocking entry point used by ``python -m repro shard-fleet``.

    Runs the supervisor until SIGTERM/SIGINT, then tears the fleet down.
    Prints the endpoint map as one JSON line once the fleet is ready so a
    wrapper script can connect routers, and the fleet stats as JSON on the
    way out.
    """
    import signal

    fleet = ShardFleet(n_shards=n_shards, socket_dir=socket_dir, **kwargs)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *__: stop.set())
        except ValueError:  # pragma: no cover - non-main thread
            pass
    fleet.start()
    print(json.dumps({"ready": True, "shards": fleet.endpoints()}), flush=True)
    try:
        stop.wait()
    finally:
        stats = fleet.stats()
        fleet.stop()
        print(json.dumps({"stopped": True, "stats": stats}), flush=True)
