"""Network model and the real wire: framing for the out-of-process gateway.

The paper highlights "high network latency and task assignment overheads" as
the defining difficulty of the cluster scenario.  Two layers live here:

* the **α-β (latency-bandwidth) model**: transferring ``b`` bytes costs
  ``latency + b / bandwidth`` seconds.  An accountant accumulates total
  bytes and message counts — the quantity plotted as "Network (bytes)" in
  every figure of the paper;
* the **length-prefixed frame codec** the networked gateway actually speaks
  (:mod:`repro.service.server` / :mod:`repro.service.net`): one frame is a
  4-byte big-endian payload length followed by that many bytes of strict
  standard JSON (no bare ``NaN``/``Infinity`` tokens — non-finite floats
  travel as the sentinel strings of
  :func:`repro.cluster.serialization.float_to_wire`, so any JSON parser in
  any language can be a peer).  Readers enforce a frame-size bound before
  allocating, reject non-standard constants, and distinguish a clean EOF
  (``None``) from a torn frame (:class:`FrameError`) so a server never
  hangs on — or trusts — a half-written message.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Any

#: Refuse frames beyond this size (default 32 MiB): a corrupt or hostile
#: length prefix must not make a peer allocate gigabytes.
DEFAULT_MAX_FRAME_BYTES = 32 * 1024 * 1024

_FRAME_HEADER = struct.Struct(">I")


class FrameError(ValueError):
    """A frame violated the protocol: torn, malformed JSON, or non-standard."""


class OversizedFrameError(FrameError):
    """A frame's declared length exceeds the permitted maximum."""


def _reject_constant(token: str) -> float:
    """Strict-JSON hook: bare ``NaN``/``Infinity`` tokens are a protocol error."""
    raise FrameError(
        f"non-standard JSON constant {token!r} on the wire; non-finite "
        "floats must travel as float_to_wire sentinel strings"
    )


def encode_body(payload: dict[str, Any]) -> bytes:
    """Encode one message as a strict-JSON frame body (no length prefix)."""
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()


def frame_body(body: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Length-prefix an already-encoded body, enforcing the frame-size bound.

    For senders that splice pre-encoded bytes (a shard's memoised answers)
    into a frame instead of re-encoding them per request.
    """
    if len(body) > max_frame_bytes:
        raise OversizedFrameError(
            f"frame of {len(body)} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    return _FRAME_HEADER.pack(len(body)) + body


def encode_frame(
    payload: dict[str, Any], max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Encode one message as a length-prefixed strict-JSON frame."""
    return frame_body(encode_body(payload), max_frame_bytes)


def decode_frame_payload(body: bytes) -> dict[str, Any]:
    """Decode a frame body; raises :class:`FrameError` on malformed input."""
    try:
        payload = json.loads(body, parse_constant=_reject_constant)
    except json.JSONDecodeError as error:
        raise FrameError(f"malformed frame payload: {error}") from error
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _recv_exactly(sock: socket.socket, n_bytes: int) -> bytes | None:
    """Read exactly ``n_bytes`` from a blocking socket.

    Returns ``None`` on EOF before the first byte (a clean close between
    frames); raises :class:`FrameError` on EOF mid-read (a torn frame).
    """
    chunks: list[bytes] = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise FrameError(
                f"peer closed mid-frame ({n_bytes - remaining} of {n_bytes} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(
    sock: socket.socket,
    payload: dict[str, Any],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Send one frame on a blocking socket."""
    sock.sendall(encode_frame(payload, max_frame_bytes))


def recv_frame(
    sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Receive one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > max_frame_bytes:
        raise OversizedFrameError(
            f"peer announced a {length}-byte frame; limit is {max_frame_bytes}"
        )
    body = _recv_exactly(sock, length) if length else b""
    if body is None:
        raise FrameError("peer closed between frame header and body")
    return decode_frame_payload(body)


async def read_frame(reader, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns the decoded payload, or ``None`` on a clean EOF between frames.
    Raises :class:`OversizedFrameError` before reading an over-limit body
    and :class:`FrameError` on a torn header/body or malformed JSON.
    """
    import asyncio

    try:
        header = await reader.readexactly(_FRAME_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise FrameError(
            f"peer closed mid-header ({len(error.partial)} of "
            f"{_FRAME_HEADER.size} bytes)"
        ) from error
    (length,) = _FRAME_HEADER.unpack(header)
    if length > max_frame_bytes:
        raise OversizedFrameError(
            f"peer announced a {length}-byte frame; limit is {max_frame_bytes}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError(
            f"peer closed mid-frame ({len(error.partial)} of {length} bytes)"
        ) from error
    return decode_frame_payload(body)


@dataclass(frozen=True)
class NetworkModel:
    """α-β network cost model.

    Defaults approximate the paper's cluster: gigabit-class Ethernet with
    sub-millisecond application-level latency per message.
    """

    latency_s: float = 5e-4
    bandwidth_bytes_per_s: float = 125_000_000.0  # 1 Gbit/s

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency_s}")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"bandwidth must be > 0, got {self.bandwidth_bytes_per_s}"
            )

    def transfer_seconds(self, n_bytes: int) -> float:
        """Time to deliver one message of ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError(f"message size must be >= 0, got {n_bytes}")
        return self.latency_s + n_bytes / self.bandwidth_bytes_per_s


@dataclass
class NetworkAccountant:
    """Accumulates traffic for one optimization run."""

    model: NetworkModel = field(default_factory=NetworkModel)
    total_bytes: int = 0
    n_messages: int = 0

    def send(self, n_bytes: int) -> float:
        """Record one message; returns its transfer time in seconds."""
        self.total_bytes += n_bytes
        self.n_messages += 1
        return self.model.transfer_seconds(n_bytes)

    def send_many(self, sizes: list[int]) -> float:
        """Record a sequence of messages sent back-to-back; returns total time."""
        return sum(self.send(size) for size in sizes)
