"""The out-of-process gateway: framing, routing, breaking, real processes.

Four layers of test, cheapest first:

* **framing** — the length-prefixed strict-JSON codec over socketpairs:
  round trips, torn frames, oversized frames, non-standard constants;
* **routing and breaking** — the consistent-hash ring's determinism and
  minimal-remap property, the circuit breaker's closed → open →
  half-open state machine under a fake clock, and the gateway's request
  path over a stubbed transport (each frame sent once, to the key's owner);
* **protocol faults** — an in-process :class:`ShardServer` abused with
  half-written frames, oversized frames, and mid-request disconnects must
  answer with typed errors where it can and keep serving every other
  connection;
* **real processes** — ``python -m repro shard-server`` subprocesses over
  unix sockets: a 64-client traffic replay across two shard processes pays
  exactly one DP run per unique fingerprint (the system invariant,
  now across process boundaries), and killing a shard mid-traffic trips
  its breaker while the surviving shard keeps serving — no client hangs.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench.traffic import (
    TrafficProfile,
    generate_traffic,
    replay_threaded,
    unique_fingerprints,
)
from repro.cluster.network import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameError,
    OversizedFrameError,
    decode_frame_payload,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.config import DEFAULT_SETTINGS
from repro.query.generator import SteinbrunnGenerator
from repro.service import (
    CircuitBreaker,
    ConsistentHashRing,
    GatewayOverloadedError,
    NetworkOptimizerGateway,
    RemoteOptimizationError,
    ShardedOptimizerGateway,
    ShardServer,
    ShardUnavailableError,
)
import repro.service.net as net_module
from repro.service.net import (
    PROTOCOL_FORMAT,
    PROTOCOL_VERSION,
    Address,
    result_from_wire,
    result_to_wire,
)
from tests.test_service import permute_query, shuffled


# ---------------------------------------------------------------------- framing


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "x", "values": [1, 2.5, "three"], "nested": {"a": None}}
        assert decode_frame_payload(encode_frame(payload)[4:]) == payload

    def test_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, {"op": "ping", "n": 7})
            assert recv_frame(right) == {"op": "ping", "n": 7}

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        with right:
            left.close()
            assert recv_frame(right) is None

    def test_torn_header_raises(self):
        left, right = socket.socketpair()
        with right:
            left.sendall(b"\x00\x00")  # half a length prefix
            left.close()
            with pytest.raises(FrameError):
                recv_frame(right)

    def test_torn_body_raises(self):
        left, right = socket.socketpair()
        with right:
            left.sendall(struct.pack(">I", 100) + b"twenty bytes only...")
            left.close()
            with pytest.raises(FrameError):
                recv_frame(right)

    def test_oversized_encode_refused(self):
        with pytest.raises(OversizedFrameError):
            encode_frame({"blob": "x" * 100}, max_frame_bytes=50)

    def test_oversized_announcement_refused_before_allocation(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(struct.pack(">I", 1 << 30))
            with pytest.raises(OversizedFrameError):
                recv_frame(right, max_frame_bytes=1024)

    def test_malformed_json_raises(self):
        with pytest.raises(FrameError):
            decode_frame_payload(b"this is not json")

    def test_non_dict_payload_raises(self):
        with pytest.raises(FrameError):
            decode_frame_payload(b"[1, 2, 3]")

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
    def test_bare_nonfinite_tokens_rejected(self, token):
        # json.dumps would emit these for non-finite floats; the wire
        # refuses them — non-finite values travel as sentinel strings.
        with pytest.raises(FrameError):
            decode_frame_payload(b'{"cost": ' + token + b"}")

    def test_nan_payload_refused_on_encode(self):
        with pytest.raises(ValueError):
            encode_frame({"cost": float("nan")})

    def test_async_reader_matches_sync(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "a"}) + encode_frame({"op": "b"}))
            reader.feed_eof()
            from repro.cluster.network import read_frame

            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first == {"op": "a"}
        assert second == {"op": "b"}
        assert third is None

    def test_async_reader_torn_frame(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "a"})[:-3])
            reader.feed_eof()
            from repro.cluster.network import read_frame

            with pytest.raises(FrameError):
                await read_frame(reader)

        asyncio.run(scenario())


# --------------------------------------------------------------------- address


class TestAddress:
    def test_unix(self):
        address = Address.parse("unix:/run/mpq/shard.sock")
        assert address.kind == "unix"
        assert address.path == "/run/mpq/shard.sock"
        assert str(address) == "unix:/run/mpq/shard.sock"

    def test_tcp(self):
        address = Address.parse("10.0.0.3:7401")
        assert (address.kind, address.host, address.port) == ("tcp", "10.0.0.3", 7401)

    def test_bare_port_defaults_to_localhost(self):
        assert Address.parse(":7401").host == "127.0.0.1"

    @pytest.mark.parametrize(
        "bad", ["", "unix:", "nocolon", "host:notaport", "host:101211", "host:65536", "host:\u0663"]
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            Address.parse(bad)


# ------------------------------------------------------------------------- ring


class TestConsistentHashRing:
    def keys(self, n=400):
        import hashlib

        return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]

    def test_routing_is_deterministic(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c"):
            ring.add(shard)
        again = ConsistentHashRing()
        for shard in ("c", "a", "b"):  # insertion order must not matter
            again.add(shard)
        for key in self.keys():
            assert ring.route(key) == again.route(key)

    def test_every_shard_owns_keys(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c", "d"):
            ring.add(shard)
        owners = {ring.route(key) for key in self.keys()}
        assert owners == {"a", "b", "c", "d"}

    def test_removal_remaps_only_the_lost_shards_keys(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c", "d"):
            ring.add(shard)
        before = {key: ring.route(key) for key in self.keys()}
        ring.remove("c")
        for key, owner in before.items():
            if owner != "c":
                assert ring.route(key) == owner  # untouched keys stay put
            else:
                assert ring.route(key) != "c"

    def test_add_is_minimal_remap(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c"):
            ring.add(shard)
        before = {key: ring.route(key) for key in self.keys()}
        ring.add("d")
        moved = sum(
            1 for key, owner in before.items() if ring.route(key) != owner
        )
        # An added shard takes ~1/4 of the space; far below a full reshuffle.
        assert 0 < moved < len(before) / 2
        assert all(
            ring.route(key) == "d"
            for key, owner in before.items()
            if ring.route(key) != owner
        )

    def test_add_idempotent_remove_unknown_noop(self):
        ring = ConsistentHashRing()
        ring.add("a")
        ring.add("a")
        assert len(ring) == 1
        ring.remove("ghost")
        assert ring.shards() == ["a"]

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().route("00000000" + "0" * 56)


# ---------------------------------------------------------------------- breaker


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self):
        clock = FakeClock()
        return CircuitBreaker(clock=clock), clock

    def test_stays_closed_below_threshold(self):
        breaker, __ = self.make()
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, __ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # consecutive, not cumulative

    def test_opens_at_threshold_and_fails_fast(self):
        breaker, clock = self.make()
        for __ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert 0 < breaker.retry_after_s() <= 1.0
        clock.now += 0.5
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(0.5)

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self.make()
        for __ in range(3):
            breaker.record_failure()
        clock.now += 1.0
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # a second request is still refused

    def test_probe_success_closes(self):
        breaker, clock = self.make()
        for __ in range(3):
            breaker.record_failure()
        clock.now += 1.5
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_another_timeout(self):
        breaker, clock = self.make()
        for __ in range(3):
            breaker.record_failure()
        clock.now += 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.now += 1.0
        assert breaker.allow()  # next probe window


# ----------------------------------------------------------------- result codec


class TestResultCodec:
    def test_round_trip(self):
        import json

        query = SteinbrunnGenerator(2).query(5)
        with ShardedOptimizerGateway(n_shards=1) as gateway:
            result = gateway.optimize(query)
        decoded = result_from_wire(
            json.loads(json.dumps(result_to_wire(result), allow_nan=False))
        )
        assert decoded == result

    def test_malformed_fails_loudly(self):
        with pytest.raises(ValueError):
            result_from_wire({"plans": []})


# ------------------------------------------------------- in-process shard server


class ServerThread:
    """Run a :class:`ShardServer` on its own event loop in a daemon thread."""

    def __init__(self, listen: str, **kwargs) -> None:
        self.server = ShardServer(listen, **kwargs)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "server never started"

    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(main())

    def stop(self) -> None:
        if self._loop is not None and not self.server._stopped.is_set():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(10)
        self._thread.join(10)
        self.server.gateway.close()

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@pytest.fixture
def server(tmp_path):
    with ServerThread(f"unix:{tmp_path / 'shard.sock'}", n_workers=2) as running:
        yield running


@contextlib.contextmanager
def stub_endpoint(path: Path, reply: dict):
    """A peer on unix socket ``path`` that says hello, then answers every
    frame with ``reply``; yields its address spec."""
    stop = threading.Event()
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(8)
    listener.settimeout(0.05)

    def answer(conn: socket.socket) -> None:
        with conn, contextlib.suppress(OSError, FrameError):
            send_frame(
                conn,
                {"op": "hello", "format": PROTOCOL_FORMAT, "version": PROTOCOL_VERSION},
            )
            while recv_frame(conn) is not None:
                send_frame(conn, reply)

    def accept() -> None:
        while not stop.is_set():
            with contextlib.suppress(socket.timeout):
                conn, __ = listener.accept()
                threading.Thread(target=answer, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    try:
        yield f"unix:{path}"
    finally:
        stop.set()
        thread.join(5)
        listener.close()


def connect_raw(server: ServerThread) -> socket.socket:
    """A raw client socket past the hello handshake."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(server.server.address.path)
    hello = recv_frame(sock)
    assert hello is not None and hello["op"] == "hello"
    return sock


class TestProtocolFaults:
    def test_hello_handshake(self, server):
        with connect_raw(server):
            pass  # connect_raw already asserted the hello frame

    def test_half_written_frame_drops_only_that_connection(self, server):
        with connect_raw(server) as sock:
            sock.sendall(struct.pack(">I", 500) + b"only a fragment")
            sock.shutdown(socket.SHUT_WR)  # crash mid-frame
            # Best-effort error frame or plain close; either way no hang.
            sock.recv(4096)
        with connect_raw(server) as sock:  # the server keeps serving
            send_frame(sock, {"op": "health"})
            assert recv_frame(sock)["status"] == "serving"
        assert server.server._protocol_errors >= 1

    def test_oversized_frame_rejected_with_typed_error(self, server):
        with connect_raw(server) as sock:
            # The header alone is refused, before any body is allocated.
            sock.sendall(struct.pack(">I", DEFAULT_MAX_FRAME_BYTES + 1))
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "protocol"
            assert "limit" in response["error"]["message"]
            # The stream is desynchronized; the server hangs up on us.
            assert sock.recv(4096) == b""
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "health"})
            assert recv_frame(sock)["ok"] is True

    def test_malformed_json_rejected(self, server):
        with connect_raw(server) as sock:
            body = b"{definitely not json"
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = recv_frame(sock)
            assert response["error"]["type"] == "protocol"

    def test_bare_infinity_token_rejected(self, server):
        with connect_raw(server) as sock:
            body = b'{"op": "optimize", "cost": Infinity}'
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = recv_frame(sock)
            assert response["error"]["type"] == "protocol"
            assert "sentinel" in response["error"]["message"]

    def test_peer_disconnect_mid_request_leaves_server_serving(self, server):
        from repro.query.io import query_to_dict

        query = SteinbrunnGenerator(3).query(5)
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "optimize", "query": query_to_dict(query)})
            # Hang up before the (running) optimization can answer.
        time.sleep(0.3)
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "health"})
            assert recv_frame(sock)["status"] == "serving"

    def test_unknown_op_is_bad_request(self, server):
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "teleport"})
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"

    def test_malformed_optimize_is_bad_request(self, server):
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "optimize", "query": {"tables": "nope"}})
            response = recv_frame(sock)
            assert response["error"]["type"] == "bad-request"

    def test_out_of_range_predicate_table_is_bad_request(self, server):
        """Regression: without a selectivity the decoder indexed ``tables``
        first, and the ``IndexError`` came back as ``optimization-failed``."""
        from repro.query.io import query_to_dict

        query = query_to_dict(SteinbrunnGenerator(4).query(2))
        del query["predicates"][0]["selectivity"]
        query["predicates"][0]["left_table"] = 5
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "optimize", "query": query})
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"
            send_frame(sock, {"op": "health"})  # the connection is kept
            assert recv_frame(sock)["status"] == "serving"

    @pytest.mark.parametrize(
        "predicate",
        [{"left_table": 0.5}, {"right_column": "zz"}, {"selectivity": True}],
        ids=["fractional-table", "unknown-column", "boolean-selectivity"],
    )
    def test_misreadable_query_is_bad_request(self, server, predicate):
        """Regression: each of these used to be read as some other query
        (table 0, a column no table has, selectivity 1.0) and optimized."""
        from repro.query.io import query_to_dict

        query = query_to_dict(SteinbrunnGenerator(4).query(2))
        query["predicates"][0].update(predicate)
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "optimize", "query": query})
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"
            send_frame(sock, {"op": "health"})  # the connection is kept
            assert recv_frame(sock)["status"] == "serving"

    def test_overload_rejection_carries_retry_after(self, server):
        from repro.query.io import query_to_dict

        server.server._in_flight = server.server.max_in_flight  # saturate
        try:
            with connect_raw(server) as sock:
                send_frame(
                    sock,
                    {
                        "op": "optimize",
                        "query": query_to_dict(SteinbrunnGenerator(4).query(4)),
                    },
                )
                response = recv_frame(sock)
                assert response["error"]["type"] == "overloaded"
                assert response["error"]["retry_after_s"] > 0
        finally:
            server.server._in_flight = 0

    def test_draining_rejection(self, server):
        from repro.query.io import query_to_dict

        server.server._draining = True
        try:
            with connect_raw(server) as sock:
                send_frame(sock, {"op": "health"})
                assert recv_frame(sock)["status"] == "draining"
                send_frame(
                    sock,
                    {
                        "op": "optimize",
                        "query": query_to_dict(SteinbrunnGenerator(4).query(4)),
                    },
                )
                response = recv_frame(sock)
                assert response["error"]["type"] == "draining"
                assert response["error"]["retry_after_s"] > 0
        finally:
            server.server._draining = False

    def test_malformed_drain_timeout_is_bad_request(self, server):
        """Regression: ``float("abc")`` escaped ``_dispatch``; the client read
        a bare EOF and asyncio logged an unhandled task exception."""
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "drain", "timeout_s": "abc"})
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"
            # Nothing drained: same connection, same serving shard.
            send_frame(sock, {"op": "health"})
            assert recv_frame(sock)["status"] == "serving"

    @pytest.mark.parametrize(
        "frame",
        [
            {"op": "lookup"},
            {"op": "lookup", "key": 17},
            {"op": "lookup", "key": ["a" * 64]},
            {"op": "lookup", "key": "a" * 64, "theta": "0.5"},
            {"op": "lookup", "key": "a" * 64, "theta": True},
            {"op": "lookup", "key": "a" * 64, "theta": 1.5},
        ],
    )
    def test_malformed_lookup_is_bad_request(self, server, frame):
        with connect_raw(server) as sock:
            send_frame(sock, frame)
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"
            send_frame(sock, {"op": "health"})  # the connection is kept
            assert recv_frame(sock)["status"] == "serving"

    @pytest.mark.parametrize(
        "frame",
        [
            {"op": "optimize", "workers": True},
            {"op": "optimize", "workers": 2.9},
            {"op": "optimize", "workers": 0},
            {"op": "optimize", "settings": {"consider_orders": "false"}},
            {"op": "optimize", "settings": {"use_all_join_algorithms": [0]}},
            {"op": "snapshot", "mode": "export", "keys": [1]},
            {"op": "snapshot", "mode": "evict", "keys": [5]},
            {"op": "drain", "timeout_s": True},
            {"op": "drain", "timeout_s": -1},
        ],
    )
    def test_mutated_frame_is_bad_request_and_the_connection_serves_on(self, server, frame):
        """Each frame is a well-formed one with one field mutated; none may
        be misread (``true`` workers as 1, ``"false"`` as true) or reach the
        DP as ``optimization-failed``.  (Mutated lookups:
        ``test_malformed_lookup_is_bad_request``.)"""
        from repro.cluster.serialization import settings_to_wire
        from repro.query.io import query_to_dict

        query = query_to_dict(SteinbrunnGenerator(4).query(3))
        valid = {"op": "optimize", "query": query, "settings": settings_to_wire(DEFAULT_SETTINGS)}
        if frame["op"] == "optimize":
            frame = {**valid, **frame, "settings": {**valid["settings"], **frame.get("settings", {})}}
        with connect_raw(server) as sock:
            send_frame(sock, frame)
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request", response
            send_frame(sock, {**valid, "workers": 2})
            assert recv_frame(sock)["ok"] is True

    def test_unknown_key_lookup_is_typed_and_counts_nothing(self, server):
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "lookup", "key": "f" * 64, "theta": None})
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "unknown-key"
            send_frame(sock, {"op": "stats"})
            stats = recv_frame(sock)["stats"]
        assert stats["served"] == stats["requests"] == 0
        assert stats["cache_misses"] == stats["cache_hits"] == 0
        assert stats["in_flight"] == 0

    def test_lookup_while_draining_is_refused_like_optimize(self, server):
        server.server._draining = True
        try:
            with connect_raw(server) as sock:
                send_frame(sock, {"op": "lookup", "key": "f" * 64})
                response = recv_frame(sock)
                assert response["error"]["type"] == "draining"
                assert response["error"]["retry_after_s"] > 0
                send_frame(sock, {"op": "health"})
                assert recv_frame(sock)["status"] == "draining"
            assert server.server._rejected_draining == 1
        finally:
            server.server._draining = False

    def test_handler_bug_costs_one_request_not_the_connection(self, server, monkeypatch):
        def explode():
            raise RuntimeError("injected stats failure")

        monkeypatch.setattr(server.server, "_stats", explode)
        with connect_raw(server) as sock:
            send_frame(sock, {"op": "stats"})
            response = recv_frame(sock)
            assert response["error"]["type"] == "internal"
            assert "injected" in response["error"]["message"]
            send_frame(sock, {"op": "health"})
            assert recv_frame(sock)["ok"] is True

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_peer_is_refused_at_hello(self, version):
        """No negotiation: a peer announcing another protocol version fails
        the handshake with a clear message.  v2 replies still carried the
        modelled cluster timing; v3 replies carry plans as nested objects
        where v4 sends flat rows."""
        from repro.service.net import handshake

        assert PROTOCOL_VERSION == 4
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, {"op": "hello", "format": "repro-net", "version": version})
            with pytest.raises(FrameError, match="did not speak repro-net v4"):
                handshake(right)


class TestConnectLeaks:
    def test_failed_hello_closes_the_socket(self, tmp_path, monkeypatch):
        """Regression: a hello that timed out (or was torn) leaked the
        connected socket; so did a unix ``connect`` that raised."""

        opened: list[socket.socket] = []
        real_socket = socket.socket

        def tracking(*args, **kwargs):
            sock = real_socket(*args, **kwargs)
            opened.append(sock)
            return sock

        monkeypatch.setattr(net_module.socket, "socket", tracking)
        path = tmp_path / "mute.sock"
        with real_socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
            listener.bind(str(path))
            listener.listen(1)  # accepts the connection, never says hello
            link = net_module._ShardLink(
                "mute",
                Address.parse(f"unix:{path}"),
                CircuitBreaker(),
                connect_timeout_s=1.0,
                request_timeout_s=0.05,
            )
            with pytest.raises(OSError):
                link.request({"op": "health"})
        with pytest.raises(OSError):
            Address.parse(f"unix:{tmp_path / 'nobody.sock'}").connect(0.5)
        assert len(opened) == 2
        assert all(sock.fileno() == -1 for sock in opened)


# --------------------------------------------------------- client-side gateway


class TestNetworkGateway:
    def test_results_match_in_process_gateway(self, server, tmp_path):
        queries = SteinbrunnGenerator(6).queries(4, n_tables=5)
        with ShardedOptimizerGateway(n_shards=1, n_workers=2) as local:
            expected = [local.optimize(query) for query in queries]
        with NetworkOptimizerGateway(
            {"s0": f"unix:{tmp_path / 'shard.sock'}"}, n_workers=2
        ) as gateway:
            remote = [gateway.optimize(query) for query in queries]
        for local_result, remote_result in zip(expected, remote):
            assert remote_result.fingerprint == local_result.fingerprint
            assert remote_result.plans == local_result.plans
            assert remote_result.best.cost == local_result.best.cost

    def test_repeat_is_served_from_shard_cache(self, server, tmp_path):
        query = SteinbrunnGenerator(6).query(5)
        with NetworkOptimizerGateway(
            {"s0": f"unix:{tmp_path / 'shard.sock'}"}, n_workers=2
        ) as gateway:
            first = gateway.optimize(query)
            second = gateway.optimize(query)
        assert not first.cached
        assert second.cached
        assert second.plans == first.plans

    def test_overload_surfaces_as_typed_error(self, server, tmp_path):
        server.server._in_flight = server.server.max_in_flight
        try:
            with NetworkOptimizerGateway(
                {"s0": f"unix:{tmp_path / 'shard.sock'}"}, n_workers=2
            ) as gateway:
                with pytest.raises(GatewayOverloadedError) as excinfo:
                    gateway.optimize(SteinbrunnGenerator(8).query(4))
            assert excinfo.value.retry_after_s > 0
        finally:
            server.server._in_flight = 0

    def test_requests_counts_calls_not_overload_retries(self, tmp_path, monkeypatch):
        """Regression: ``stats()["requests"]`` was incremented per routed
        *attempt*, so one call rejected ``overloaded`` N times read N+1.

        No injected latency and no polling: the leader is held *inside* its
        DP on an event, and the client's first overload back-off — the one
        ``time.sleep`` in this scenario — is what releases it.
        """

        spec = f"unix:{tmp_path / 'busy.sock'}"
        first, second = SteinbrunnGenerator(21).queries(2, n_tables=4)
        entered, release = threading.Event(), threading.Event()
        real_sleep = time.sleep

        def back_off(seconds: float) -> None:
            release.set()
            real_sleep(seconds)

        with ServerThread(spec, n_workers=2, max_in_flight=1) as busy, (
            NetworkOptimizerGateway({"s0": spec}, n_workers=2, overload_retries=1000)
        ) as gateway:
            shard = busy.server.gateway.shards[0]
            run_misses = shard.run_misses

            def held(items, settings, workers):
                entered.set()
                assert release.wait(10), "no request was ever told to back off"
                return run_misses(items, settings, workers)

            monkeypatch.setattr(shard, "run_misses", held)
            holder = threading.Thread(target=gateway.optimize, args=(first,))
            holder.start()
            assert entered.wait(10)
            assert busy.server._in_flight == 1  # the shard is held busy
            monkeypatch.setattr(net_module.time, "sleep", back_off)
            assert gateway.optimize(second).plans  # rejected, retried, served
            holder.join(10)
            assert not holder.is_alive()
            stats = gateway.stats()
        assert stats["shards"]["s0"]["rejected_overload"] >= 1
        assert stats["requests"] == 2

    def test_remote_failure_is_typed(self, server, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("injected enumeration failure")

        monkeypatch.setattr(server.server.gateway, "optimize", explode)
        with NetworkOptimizerGateway(
            {"s0": f"unix:{tmp_path / 'shard.sock'}"}, n_workers=2
        ) as gateway:
            with pytest.raises(RemoteOptimizationError) as excinfo:
                gateway.optimize(SteinbrunnGenerator(5).query(4))
            assert excinfo.value.error_type == "optimization-failed"
            assert "injected" in str(excinfo.value)

    def test_dead_endpoint_trips_breaker_then_fails_fast(self, tmp_path, monkeypatch):
        monkeypatch.setattr(net_module, "BREAKER_RESET_S", 60.0)
        with NetworkOptimizerGateway(
            {"dead": f"unix:{tmp_path / 'nobody-home.sock'}"}
        ) as gateway:
            query = SteinbrunnGenerator(9).query(4)
            for __ in range(3):
                with pytest.raises(ShardUnavailableError):
                    gateway.optimize(query)
            started = time.perf_counter()
            with pytest.raises(ShardUnavailableError) as excinfo:
                gateway.optimize(query)
            assert time.perf_counter() - started < 0.1  # no connection attempt
            assert "circuit breaker open" in excinfo.value.reason
            assert excinfo.value.retry_after_s > 0
            assert gateway.stats()["breaker_rejections"] >= 1

    def test_breaker_recovers_through_half_open_probe(self, tmp_path, monkeypatch):
        monkeypatch.setattr(net_module, "BREAKER_FAILURES", 2)
        monkeypatch.setattr(net_module, "BREAKER_RESET_S", 0.2)
        sock_path = tmp_path / "late.sock"
        with NetworkOptimizerGateway({"late": f"unix:{sock_path}"}, n_workers=2) as gateway:
            query = SteinbrunnGenerator(9).query(4)
            for __ in range(2):
                with pytest.raises(ShardUnavailableError):
                    gateway.optimize(query)
            with ServerThread(f"unix:{sock_path}", n_workers=2):
                time.sleep(0.25)  # past the reset timeout: probe admitted
                result = gateway.optimize(query)
                assert result.plans
                report = gateway.check_health()
                assert report["late"]["breaker"] == "closed"

    def test_health_check_reports_unreachable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(net_module, "BREAKER_FAILURES", 1)
        with NetworkOptimizerGateway({"dead": f"unix:{tmp_path / 'void.sock'}"}) as gateway:
            report = gateway.check_health()
            assert report["dead"]["reachable"] is False
            assert gateway.check_health()["dead"]["status"] == "circuit-open"

    @pytest.mark.parametrize(
        "reply, field",
        [
            ({"ok": True, "status": 5, "in_flight": 0}, "'status'"),
            ({"ok": True, "status": "serving", "in_flight": "x"}, "'in_flight'"),
        ],
    )
    def test_health_reply_that_does_not_read_reports_the_shard_unreachable(
        self, tmp_path, reply, field
    ):
        with stub_endpoint(tmp_path / "odd.sock", reply) as spec, (
            NetworkOptimizerGateway({"odd": spec})
        ) as gateway:
            entry = gateway.check_health()["odd"]
        assert entry["reachable"] is False
        assert field in entry["status"]

    def test_stats_reply_that_does_not_read_reports_the_shard_unreachable(
        self, tmp_path
    ):
        reply = {"ok": True, "stats": "not-an-object"}
        with stub_endpoint(tmp_path / "odd.sock", reply) as spec, (
            NetworkOptimizerGateway({"odd": spec})
        ) as gateway:
            entry = gateway.stats()["shards"]["odd"]
        assert entry["reachable"] is False
        assert "'stats'" in entry["error"]

    def test_add_remove_shard(self, server, tmp_path):
        with NetworkOptimizerGateway(
            {"s0": f"unix:{tmp_path / 'shard.sock'}"}, n_workers=2
        ) as gateway:
            gateway.add_shard("s1", "unix:/tmp/unused.sock")
            assert gateway.shard_names() == ["s0", "s1"]
            with pytest.raises(ValueError):
                gateway.add_shard("s1", "unix:/tmp/other.sock")
            gateway.remove_shard("s1")
            assert gateway.shard_names() == ["s0"]
            # Still serves after the topology change.
            assert gateway.optimize(SteinbrunnGenerator(6).query(4)).plans

    def test_overload_retry_sleeps_at_least_the_floor(self, tmp_path, monkeypatch):
        """Regression: a shard advertising ``retry_after_s=0`` must not
        busy-spin the retry loop — every sleep is clamped to the positive
        floor (and still capped at one second from above)."""
        from repro.service.net import OVERLOAD_RETRY_FLOOR_S

        sleeps: list[float] = []
        monkeypatch.setattr(net_module.time, "sleep", sleeps.append)
        with NetworkOptimizerGateway(
            {"s0": f"unix:{tmp_path / 'unused.sock'}"}, overload_retries=4
        ) as gateway:
            for retry_after_s, expected in [(0.0, OVERLOAD_RETRY_FLOOR_S), (999.0, 1.0)]:
                sleeps.clear()
                response = {
                    "ok": False,
                    "error": {"type": "overloaded", "retry_after_s": retry_after_s},
                }
                monkeypatch.setattr(
                    gateway, "_attempt", lambda key, *frames: ("s0", response)
                )
                with pytest.raises(GatewayOverloadedError):
                    gateway.optimize(SteinbrunnGenerator(7).query(4))
                assert sleeps == [expected] * 4

    def test_remove_shard_races_in_flight_requests(self, tmp_path):
        """Regression: ``remove_shard`` used to close pooled sockets under
        requests that had already checked them out, tearing frames
        mid-stream.  Now in-flight round trips complete undisturbed and a
        request that grabs the link after close fails with a *typed* error
        — clients see only success or ShardUnavailableError, never a raw
        FrameError or a hang."""
        with (
            ServerThread(f"unix:{tmp_path / 'r0.sock'}", n_workers=2) as __,
            ServerThread(f"unix:{tmp_path / 'r1.sock'}", n_workers=2) as ___,
        ):
            pool = SteinbrunnGenerator(14).queries(6, n_tables=4)
            failures: list[Exception] = []
            successes = [0]
            lock = threading.Lock()

            with NetworkOptimizerGateway(
                {
                    "r0": f"unix:{tmp_path / 'r0.sock'}",
                    "r1": f"unix:{tmp_path / 'r1.sock'}",
                },
                n_workers=2,
                overload_retries=50,
            ) as gateway:
                for query in pool:
                    gateway.optimize(query)  # warm both shards
                stop = threading.Event()

                def client(seed: int) -> None:
                    while not stop.is_set():
                        try:
                            gateway.optimize(pool[seed % len(pool)])
                        except ShardUnavailableError:
                            pass  # the removed shard's typed goodbye
                        except Exception as error:  # noqa: BLE001
                            with lock:
                                failures.append(error)
                        else:
                            with lock:
                                successes[0] += 1

                threads = [
                    threading.Thread(target=client, args=(i,), daemon=True)
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                time.sleep(0.2)  # requests in full flight
                gateway.remove_shard("r0")
                time.sleep(0.2)  # keep hammering the shrunken ring
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive(), "client hung after removal"
            assert not failures, failures
            assert successes[0] > 0

    def test_drain_flushes_and_stops_the_server(self, tmp_path):
        with ServerThread(f"unix:{tmp_path / 'd.sock'}", n_workers=2) as running:
            with NetworkOptimizerGateway(
                {"d": f"unix:{tmp_path / 'd.sock'}"}, n_workers=2
            ) as gateway:
                gateway.optimize(SteinbrunnGenerator(6).query(4))
                assert gateway.drain() == {"d": True}
                # Post-drain the endpoint is gone: typed failure, no hang.
                with pytest.raises(ShardUnavailableError):
                    gateway.optimize(SteinbrunnGenerator(6).query(5))
            assert running.server._stopped.is_set()


def stub_gateway(tmp_path, n_shards: int = 3, **kwargs) -> NetworkOptimizerGateway:
    """A gateway over endpoints nobody listens on; tests stub the transport."""
    return NetworkOptimizerGateway(
        {f"s{i}": f"unix:{tmp_path / f's{i}.sock'}" for i in range(n_shards)},
        n_workers=2,
        **kwargs,
    )


def recording_call(gateway, replies):
    """Replace ``gateway._call`` by one recording ``(shard, payload)`` per call
    and answering from ``replies`` (a list consumed in order)."""
    calls: list[tuple[str, dict]] = []

    def call(link, payload):
        calls.append((link.name, payload))
        return replies.pop(0)

    gateway._call = call
    return calls


def error_reply(error_type: str, **fields) -> dict:
    return {"ok": False, "error": {"type": error_type, "message": "stub", **fields}}


class TestOneRouteOneCall:
    """The router's request path: each attempt goes to the ring's owner of
    the key, and each frame is sent exactly once — to that owner only."""

    def test_every_attempt_goes_to_the_rings_owner(self, tmp_path):
        ring = ConsistentHashRing()
        for name in ("s0", "s1", "s2", "s3"):
            ring.add(name)
        with stub_gateway(tmp_path, n_shards=4) as gateway:
            calls = recording_call(gateway, [{"ok": True}] * 300)
            keys = TestConsistentHashRing().keys(300)
            for key in keys:
                shard, response = gateway._attempt(key, {"op": "lookup", "key": key})
                assert response == {"ok": True}
                assert shard == gateway.shard_for(key) == ring.route(key)
            assert [name for name, __ in calls] == [ring.route(key) for key in keys]
            assert len({name for name, __ in calls}) == 4

    def test_miss_sends_one_lookup_then_one_optimize_to_the_owner(self, tmp_path):
        query = SteinbrunnGenerator(31).query(5)
        with stub_gateway(tmp_path) as gateway:
            calls = recording_call(
                gateway,
                [error_reply("unknown-key"), error_reply("optimization-failed")],
            )
            with pytest.raises(RemoteOptimizationError) as excinfo:
                gateway.optimize(query)
            assert excinfo.value.error_type == "optimization-failed"
            (lookup_shard, lookup), (optimize_shard, optimize) = calls
            assert lookup["op"] == "lookup"
            assert lookup_shard == optimize_shard == gateway.shard_for(lookup["key"])
            assert optimize["op"] == "optimize"
            assert set(optimize) == {"op", "query", "settings", "workers"}
            assert optimize["workers"] == 2
            assert gateway.stats()["requests"] == 1

    def test_a_lookup_error_other_than_unknown_key_ships_no_query(self, tmp_path):
        with stub_gateway(tmp_path) as gateway:
            calls = recording_call(gateway, [error_reply("bad-request")])
            with pytest.raises(RemoteOptimizationError) as excinfo:
                gateway.optimize(SteinbrunnGenerator(32).query(4))
            assert excinfo.value.error_type == "bad-request"
            assert [payload["op"] for __, payload in calls] == ["lookup"]

    def test_closed_gateway_refuses_before_any_call(self, tmp_path):
        gateway = stub_gateway(tmp_path)
        calls = recording_call(gateway, [])
        gateway.close()
        with pytest.raises(RuntimeError, match="closed"):
            gateway.optimize(SteinbrunnGenerator(33).query(4))
        assert calls == []

    def test_transport_failure_counts_against_the_owner_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(net_module, "BREAKER_FAILURES", 1)
        with stub_gateway(tmp_path) as gateway:
            links = gateway._links

            def refuse(payload):
                raise ConnectionRefusedError("stub transport")

            for link in links.values():
                link.request = refuse
            query = SteinbrunnGenerator(34).query(4)
            with pytest.raises(ShardUnavailableError) as excinfo:
                gateway.optimize(query)
            owner = excinfo.value.shard
            assert "transport failure" in excinfo.value.reason
            assert {name: link.breaker.state for name, link in links.items()} == {
                name: "open" if name == owner else "closed" for name in links
            }
            # The open breaker now fails the next request fast, uncalled.
            links[owner].request = lambda payload: pytest.fail("link was called")
            with pytest.raises(ShardUnavailableError, match="circuit breaker open"):
                gateway.optimize(query)
            assert gateway.stats()["breaker_rejections"] == 1

    def test_overload_retry_follows_the_key_to_its_new_owner(self, tmp_path, monkeypatch):
        with stub_gateway(tmp_path, overload_retries=1) as gateway:
            calls = recording_call(
                gateway,
                [error_reply("overloaded", retry_after_s=0.0), error_reply("bad-request")],
            )
            # The owner leaves the ring while the client backs off.
            monkeypatch.setattr(
                net_module.time,
                "sleep",
                lambda seconds: gateway.remove_shard(calls[0][0]),
            )
            with pytest.raises(RemoteOptimizationError):
                gateway.optimize(SteinbrunnGenerator(35).query(4))
            (first, lookup), (second, retry) = calls
            assert retry == lookup
            assert first not in gateway.shard_names()
            assert second == gateway.shard_for(lookup["key"]) != first

    def test_lookup_hit_decodes_into_the_requesters_numbering(self, server, tmp_path):
        """A relabelled copy of a cached query is answered by ``lookup``
        alone (no ``optimize`` frame), decoded client-side into the copy's
        numbering: equal to what the in-process gateway's ``relabel``
        returns for the same copy."""
        spec = f"unix:{tmp_path / 'shard.sock'}"
        query = SteinbrunnGenerator(36).query(5)
        copy = permute_query(query, shuffled(query.n_tables, 36))
        with NetworkOptimizerGateway({"s0": spec}, n_workers=2) as gateway:
            gateway.optimize(query)  # the miss: lookup, then optimize
            sent: list[str] = []
            real_call = gateway._call

            def spy(link, payload):
                sent.append(payload["op"])
                return real_call(link, payload)

            gateway._call = spy
            hit = gateway.optimize(copy)
        assert sent == ["lookup"]
        assert hit.cached
        with ShardedOptimizerGateway(n_shards=1, n_workers=2) as local:
            local.optimize(query)
            expected = local.optimize(copy)
        assert expected.cached
        assert hit.fingerprint == expected.fingerprint
        assert hit.plans == expected.plans


# ----------------------------------------------------------- real shard processes


def spawn_shard(listen: str, shard_id: int, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "shard-server",
            "--listen",
            listen,
            "--shard-id",
            str(shard_id),
            "--workers",
            "2",
            *extra,
        ],
        env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_for_sockets(paths: list[Path], timeout_s: float = 20.0) -> None:
    deadline = time.perf_counter() + timeout_s
    for path in paths:
        while not path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError(f"shard socket {path} never appeared")
            time.sleep(0.05)


@pytest.fixture
def two_shards(tmp_path):
    socks = [tmp_path / f"shard-{i}.sock" for i in range(2)]
    procs = [
        spawn_shard(f"unix:{sock}", i, "--max-in-flight", "64")
        for i, sock in enumerate(socks)
    ]
    try:
        wait_for_sockets(socks)
        yield {f"shard-{i}": f"unix:{sock}" for i, sock in enumerate(socks)}, procs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()


class TestCrossProcessInvariant:
    def test_64_client_herd_pays_one_dp_run_per_fingerprint(self, two_shards):
        """The acceptance criterion: a 64-client replay over two shard
        *processes* performs exactly one DP enumeration per unique
        fingerprint — deterministic ring routing keeps each fingerprint's
        coalescing local to one server's singleflight table."""
        shards, __ = two_shards
        profile = TrafficProfile(n_requests=96, n_unique=10, tables=(4, 5))
        schedule = generate_traffic(profile)
        expected = unique_fingerprints(schedule)
        with NetworkOptimizerGateway(
            shards, overload_retries=500, request_timeout_s=120.0
        ) as gateway:
            report = replay_threaded(gateway, schedule, n_clients=64)
            stats = gateway.stats()
        assert len(report.results) == len(schedule)
        assert all(result.plans for result in report.results)
        per_shard = {
            name: shard["optimizations"] for name, shard in stats["shards"].items()
        }
        assert sum(per_shard.values()) == len(expected), per_shard
        # Both processes actually participated (the ring spread the keys).
        assert all(count > 0 for count in per_shard.values()), per_shard

    def test_replay_is_correct_not_just_counted(self, two_shards):
        shards, __ = two_shards
        schedule = generate_traffic(
            TrafficProfile(n_requests=24, n_unique=6, tables=(4, 5))
        )
        with ShardedOptimizerGateway(n_shards=2, n_workers=2) as local:
            expected = {}
            for request in schedule:
                result = local.optimize(
                    request.query, request.settings, request.n_workers
                )
                expected[result.fingerprint] = result
        with NetworkOptimizerGateway(shards, overload_retries=500) as gateway:
            report = replay_threaded(gateway, schedule, n_clients=8)
        for result in report.results:
            baseline = expected[result.fingerprint]
            assert result.best.cost == baseline.best.cost
            assert result.plans == baseline.plans

    def test_killing_one_shard_trips_breaker_and_spares_the_rest(
        self, two_shards, monkeypatch
    ):
        """Kill a shard mid-traffic: its keys fail with typed errors (first
        transport failures, then instant breaker rejections, each carrying
        ``retry_after_s``), the surviving shard keeps serving its keys, and
        no client hangs."""
        shards, procs = two_shards
        pool = SteinbrunnGenerator(11).queries(12, n_tables=4)
        monkeypatch.setattr(net_module, "BREAKER_RESET_S", 30.0)
        with NetworkOptimizerGateway(
            shards, connect_timeout_s=2.0, request_timeout_s=15.0
        ) as gateway:
            by_shard: dict[str, list] = {"shard-0": [], "shard-1": []}
            for query in pool:
                result = gateway.optimize(query)  # warm both shards
                by_shard[gateway.shard_for(result.fingerprint)].append(query)
            assert by_shard["shard-0"] and by_shard["shard-1"], (
                "seed must spread keys over both shards"
            )
            procs[1].kill()
            procs[1].wait(10)

            outcomes: dict[str, list] = {"shard-0": [], "shard-1": []}
            lock = threading.Lock()

            def client(queries):
                for query in queries:
                    owner = "shard-0" if query in by_shard["shard-0"] else "shard-1"
                    try:
                        result = gateway.optimize(query)
                        outcome = ("ok", result.cached)
                    except ShardUnavailableError as error:
                        assert error.retry_after_s >= 0
                        outcome = ("unavailable", error.reason)
                    with lock:
                        outcomes[owner].append(outcome)

            threads = [
                threading.Thread(target=client, args=(pool,)) for __ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "client thread hung"

            # Every surviving-shard request succeeded, served from cache.
            assert all(kind == "ok" for kind, __ in outcomes["shard-0"])
            # Every dead-shard request failed *typed* — and the breaker is
            # open, so late failures were instant rejections.
            assert all(kind == "unavailable" for kind, __ in outcomes["shard-1"])
            assert any(
                "circuit breaker open" in detail
                for __, detail in outcomes["shard-1"]
            )
            report = gateway.check_health()
            assert report["shard-1"]["breaker"] == "open"
            assert report["shard-0"]["status"] == "serving"
            # The survivor still takes new work.
            fresh = SteinbrunnGenerator(12).queries(6, n_tables=4)
            served = 0
            for query in fresh:
                try:
                    assert gateway.optimize(query).plans
                    served += 1
                except ShardUnavailableError:
                    pass  # routed to the dead shard
            assert served > 0


class TestWarmRestartOverTheWire:
    def test_shard_cache_log_survives_drain_and_restart(self, tmp_path):
        sock = tmp_path / "shard-0.sock"
        cache_dir = tmp_path / "cache"
        queries = SteinbrunnGenerator(13).queries(4, n_tables=5)

        proc = spawn_shard(f"unix:{sock}", 0, "--cache-dir", str(cache_dir))
        try:
            wait_for_sockets([sock])
            with NetworkOptimizerGateway({"shard-0": f"unix:{sock}"}) as gateway:
                first = [gateway.optimize(query) for query in queries]
                assert gateway.drain() == {"shard-0": True}
            assert proc.wait(20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

        proc = spawn_shard(f"unix:{sock}", 0, "--cache-dir", str(cache_dir))
        try:
            wait_for_sockets([sock])
            with NetworkOptimizerGateway({"shard-0": f"unix:{sock}"}) as gateway:
                second = [gateway.optimize(query) for query in queries]
                assert gateway.drain() == {"shard-0": True}
            # Served from the persisted log: no fresh DP runs, same plans.
            assert all(result.cached for result in second)
            assert [result.plans for result in second] == [
                result.plans for result in first
            ]
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()


# --------------------------------------------------- seeded rebalance sweeps


class TestRingRebalanceProperties:
    """Seeded property sweeps over random membership churn.

    The fixed-scenario tests above pin the invariants on one topology; these
    drive random add/remove sequences and assert the same two rebalance
    invariants hold after *every* step: a removal remaps only the removed
    shard's keys, and an addition moves keys only onto the new shard.
    """

    def keys(self, n=300):
        import hashlib

        return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]

    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_churn_preserves_rebalance_invariants(self, seed):
        import random

        rng = random.Random(seed)
        keys = self.keys()
        ring = ConsistentHashRing()
        members: list[str] = []
        for index in range(3):  # never let the ring go empty
            name = f"seed-{index}"
            ring.add(name)
            members.append(name)
        fresh = iter(f"shard-{i}" for i in range(1000))
        for __ in range(40):
            before = {key: ring.route(key) for key in keys}
            if len(members) > 3 and rng.random() < 0.5:
                victim = rng.choice(members)
                members.remove(victim)
                ring.remove(victim)
                for key, owner in before.items():
                    if owner == victim:
                        assert ring.route(key) != victim
                    else:  # every other key stays put
                        assert ring.route(key) == owner
            else:
                joiner = next(fresh)
                members.append(joiner)
                ring.add(joiner)
                for key, owner in before.items():
                    after = ring.route(key)
                    # A key either stays put or lands on the joiner.
                    assert after == owner or after == joiner
            assert sorted(members) == ring.shards()

    @pytest.mark.parametrize("seed", [5, 41])
    def test_remove_then_re_add_restores_routing_exactly(self, seed):
        import random

        rng = random.Random(seed)
        keys = self.keys()
        ring = ConsistentHashRing()
        for index in range(6):
            ring.add(f"shard-{index}")
        baseline = {key: ring.route(key) for key in keys}
        for __ in range(10):
            shard = f"shard-{rng.randrange(6)}"
            ring.remove(shard)
            ring.add(shard)
            # Virtual-node positions depend only on the shard name, so a
            # bounce must restore the exact pre-departure routing table.
            assert {key: ring.route(key) for key in keys} == baseline


class TestCircuitBreakerHalfOpenRace:
    def test_exactly_one_probe_wins_the_race(self, monkeypatch):
        # Many client threads consult an open breaker the instant its reset
        # timeout elapses: exactly one must be admitted as the half-open
        # probe, all others refused, on every seeded rerun.
        monkeypatch.setattr(net_module, "BREAKER_FAILURES", 1)
        for round_index in range(20):
            clock = FakeClock()
            breaker = CircuitBreaker(clock=clock)
            breaker.record_failure()
            assert breaker.state == "open"
            clock.now += 1.0 + round_index * 0.1
            n_threads = 8
            barrier = threading.Barrier(n_threads)
            admitted = []
            lock = threading.Lock()

            def probe():
                barrier.wait()
                allowed = breaker.allow()
                with lock:
                    admitted.append(allowed)

            threads = [threading.Thread(target=probe) for __ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert admitted.count(True) == 1
            assert breaker.state == "half-open"

    def test_probe_outcome_race_settles_deterministically(self, monkeypatch):
        # While the probe is in flight, concurrent allow() calls keep
        # refusing; the probe's failure reopens and restarts the timeout.
        monkeypatch.setattr(net_module, "BREAKER_FAILURES", 1)
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        breaker.record_failure()
        clock.now += 1.0
        assert breaker.allow()
        stop = threading.Event()
        refused = []

        def hammer():
            while not stop.is_set():
                refused.append(breaker.allow())

        thread = threading.Thread(target=hammer)
        thread.start()
        time.sleep(0.02)
        breaker.record_failure()  # probe fails → reopen
        stop.set()
        thread.join()
        assert not any(refused)
        assert breaker.state == "open"
        assert breaker.retry_after_s() == pytest.approx(1.0)
