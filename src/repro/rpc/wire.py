"""The wire protocol of the socket transport.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON.  JSON (not a binary codec)
keeps the protocol dependency-free and debuggable with ``nc``/``jq``;
the values that actually cross the wire are small (descriptors and match
scores — partition rows only travel on explicit fetches), so framing
overhead dominates encoding choice anyway.

One request/reply exchange::

    -> {"id": 7, "kind": "match-request", "sender": 123, "payload": ...}
    <- {"id": 7, "ok": true, "value": ...}
    <- {"id": 7, "ok": false, "error": "...", "error_type": "ConfigError"}

``payload``/``value`` carry the same Python objects the in-process
transports pass by reference — :class:`~repro.ranges.interval.IntRange`,
:class:`~repro.db.partition.PartitionDescriptor`,
:class:`~repro.db.partition.Partition` and tuples — encoded with explicit
type tags (``$range``, ``$desc``, ``$part``, ``$tuple``) so a round trip
reconstructs equal objects and the peer logic cannot tell which transport
delivered the message.

Connections are reused.  A server answers one connection's requests in
order, so a :class:`ConnectionPool` hands each idle connection to one
caller at a time (concurrency comes from extra connections, never from
pipelining).  A connection returns to the pool only after a complete,
well-formed reply whose ``id`` matches the request's; a timeout,
cancellation, torn frame, socket error, EOF or mismatched ``id`` closes
it.  A request is written at most once — never resent on a fresh
connection — so a peer that hangs up after reading it costs exactly one
delivery, as it did when every call dialled anew.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import struct
from typing import Any

from repro.core.config import SystemConfig
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import (
    ConfigError,
    PeerUnavailableError,
    ReproError,
    RequestTimeoutError,
    StorageError,
)
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_value",
    "decode_value",
    "write_frame",
    "read_frame",
    "call",
    "ConnectionPool",
    "config_to_wire",
    "config_from_wire",
    "RemoteError",
    "WireError",
]

_LENGTH = struct.Struct("!I")

#: Upper bound on one frame's JSON body.  Far above any real message
#: (a full partition fetch of ~100k rows fits in a few MiB); present so a
#: corrupt or hostile length prefix cannot make a peer allocate blindly.
MAX_FRAME_BYTES = 32 * 1024 * 1024


class RemoteError(ReproError):
    """A peer answered an RPC with an error the client cannot map back
    to a library exception type."""


class WireError(ReproError, ValueError):
    """The byte stream violated the framing protocol.

    Raised for a length prefix past :data:`MAX_FRAME_BYTES`, a frame body
    that is not valid JSON (garbage bytes under a plausible prefix), a
    JSON body that is not an object, and a peer that died *mid-frame*
    (the prefix arrived but the body never completed).  A clean EOF
    before any prefix byte is not an error — :func:`read_frame` returns
    ``None`` for that — but every torn, oversized or corrupt frame
    surfaces as this one typed error so servers can drop the connection
    and clients can treat the peer as unavailable, and nothing ever
    hangs on a half-delivered frame.
    """


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """Recursively encode a payload value into JSON-safe data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, IntRange):
        return {"$range": [value.start, value.end]}
    if isinstance(value, PartitionDescriptor):
        return {
            "$desc": [
                value.relation,
                value.attribute,
                value.range.start,
                value.range.end,
            ]
        }
    if isinstance(value, Partition):
        return {
            "$part": {
                "desc": encode_value(value.descriptor)["$desc"],
                "rows": [list(row) for row in value.rows],
            }
        }
    if isinstance(value, tuple):
        return {"$tuple": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "$range" in value:
        start, end = value["$range"]
        return IntRange(int(start), int(end))
    if "$desc" in value:
        relation, attribute, start, end = value["$desc"]
        return PartitionDescriptor(relation, attribute, IntRange(int(start), int(end)))
    if "$part" in value:
        body = value["$part"]
        relation, attribute, start, end = body["desc"]
        return Partition(
            descriptor=PartitionDescriptor(
                relation, attribute, IntRange(int(start), int(end))
            ),
            rows=tuple(tuple(row) for row in body["rows"]),
        )
    if "$tuple" in value:
        return tuple(decode_value(item) for item in value["$tuple"])
    return {key: decode_value(item) for key, item in value.items()}


def config_to_wire(config: SystemConfig) -> dict:
    """A :class:`~repro.core.config.SystemConfig` as a JSON-safe dict."""
    body = dataclasses.asdict(config)
    return body


def config_from_wire(body: dict) -> SystemConfig:
    """Rebuild a config sent by :func:`config_to_wire` (or typed by hand
    on a ``--config-json`` flag; missing fields take their defaults)."""
    data = dict(body)
    domain = data.pop("domain", None)
    known = {field.name for field in dataclasses.fields(SystemConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    if domain is not None:
        data["domain"] = Domain(
            str(domain["name"]), int(domain["low"]), int(domain["high"])
        )
    return SystemConfig(**data)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

async def write_frame(writer: asyncio.StreamWriter, document: dict) -> None:
    """Send one length-prefixed JSON frame."""
    body = json.dumps(document, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    writer.write(_LENGTH.pack(len(body)) + body)
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on a clean EOF before the length prefix.

    Anything else that violates the framing — an oversized or torn frame,
    a body that is not a JSON object — raises :class:`WireError`.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise WireError(
            f"peer died {len(exc.partial)} byte(s) into a length prefix"
        ) from exc
    except ConnectionResetError:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"peer announced a {length}-byte frame; refusing")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise WireError(
            f"peer died mid-frame ({length} bytes announced)"
        ) from exc
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise WireError(
            f"frame body is {type(document).__name__}, expected an object"
        )
    return document


# ---------------------------------------------------------------------------
# Client calls
# ---------------------------------------------------------------------------

#: Error types a peer may report, mapped back to library exceptions so
#: the engine's failover logic works unchanged over sockets.
_ERROR_TYPES = {
    "ConfigError": ConfigError,
    "StorageError": StorageError,
}

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]


class ConnectionPool:
    """Idle connections per ``(host, port)``, each lent to one call at a time.

    The owner (a client transport, a peer server) passes the pool to
    :func:`call` and closes it when done; connections still lent out at
    that point are closed when they come back.  Request ids come from the
    pool's counter, so a reply can be matched to the request it answers.
    The counter cycles through one decimal digit, so a frame stays
    exactly as long as a dial-per-call frame (id 0); two requests share
    an id only when their ids were issued a multiple of ten apart.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple[str, int], list[_Connection]] = {}
        self._ids = itertools.cycle(range(10))
        self._closed = False

    def next_id(self) -> int:
        return next(self._ids)

    async def checkout(self, host: str, port: int) -> _Connection | None:
        """An idle, still-open connection to ``(host, port)``, or None."""
        idle = self._idle.get((host, port))
        if not idle:
            return None
        # Let the loop deliver pending events first: a peer that died or
        # restarted while this loop sat idle has left an EOF or reset
        # queued on its old connections.
        await asyncio.sleep(0)
        while idle:
            reader, writer = idle.pop()
            if reader.at_eof() or writer.is_closing():
                writer.close()
                continue
            return reader, writer
        return None

    def checkin(self, host: str, port: int, connection: _Connection) -> None:
        """Return a connection after a complete exchange."""
        if self._closed:
            connection[1].close()
        else:
            self._idle.setdefault((host, port), []).append(connection)

    async def close(self) -> None:
        """Close every idle connection; later check-ins close theirs."""
        self._closed = True
        writers = [writer for idle in self._idle.values() for _, writer in idle]
        self._idle.clear()
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - teardown race
                pass


async def call(
    host: str,
    port: int,
    kind: str,
    payload: Any = None,
    *,
    sender: int = -1,
    sender_address: str | None = None,
    peer_id: int = -1,
    timeout_ms: float | None = None,
    trace: dict | None = None,
    pool: ConnectionPool | None = None,
) -> Any:
    """One request/reply exchange with the peer at ``host:port``.

    With a ``pool`` the exchange runs over an idle pooled connection (a
    fresh one is dialled when none is idle) that goes back to the pool
    afterwards; without one it dials a connection and closes it again,
    which suits one-off calls.

    Raises :class:`~repro.errors.PeerUnavailableError` when the peer
    refuses the connection, hangs up mid-exchange, or answers with bytes
    that violate the framing, and
    :class:`~repro.errors.RequestTimeoutError` when ``timeout_ms`` elapses
    — the same exceptions the in-process transports use, so callers (the
    query engine above all) need no socket-specific handling.

    ``sender_address`` identifies the calling *peer* (servers calling
    servers set it); the chaos connection filter uses it to enforce
    partitions, and clients leave it unset.  ``trace`` is the optional
    distributed-trace envelope (:class:`repro.obs.distributed.TraceContext`
    wire form); peers that predate it ignore the extra field, so traced
    and untraced requests are interchangeable on the wire.
    """
    request = {
        "id": pool.next_id() if pool is not None else 0,
        "kind": kind,
        "sender": sender,
        "payload": encode_value(payload),
    }
    if sender_address is not None:
        request["from"] = sender_address
    if trace is not None:
        request["trace"] = trace
    exchange = _exchange(host, port, request, peer_id, pool)
    if timeout_ms is None:
        reply = await exchange
    else:
        try:
            reply = await asyncio.wait_for(exchange, timeout=timeout_ms / 1000.0)
        except asyncio.TimeoutError as exc:
            raise RequestTimeoutError(peer_id, 1, timeout_ms) from exc
    if reply.get("ok"):
        return decode_value(reply.get("value"))
    error_type = reply.get("error_type", "")
    message = reply.get("error", "remote peer reported an error")
    raise _ERROR_TYPES.get(error_type, RemoteError)(message)


async def _exchange(
    host: str,
    port: int,
    request: dict,
    peer_id: int,
    pool: ConnectionPool | None,
) -> dict:
    """Write ``request`` once and read its reply; the connection is pooled
    again only when that reply arrived whole and carries the request id."""
    connection = await pool.checkout(host, port) if pool is not None else None
    if connection is None:
        try:
            # Looked up at call time so wrappers of open_connection (byte
            # counters) see every dial.
            connection = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise PeerUnavailableError(peer_id) from exc
    reader, writer = connection
    reuse = False
    try:
        try:
            await write_frame(writer, request)
            reply = await read_frame(reader)
        except (OSError, WireError) as exc:
            raise PeerUnavailableError(peer_id) from exc
        if reply is None or reply.get("id") != request["id"]:
            raise PeerUnavailableError(peer_id)
        reuse = pool is not None
        return reply
    finally:
        if reuse:
            pool.checkin(host, port, connection)
        else:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - teardown race
                pass
