"""The socket wire protocol: framing, value codec, error mapping."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.core.config import SystemConfig
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import (
    ConfigError,
    PeerUnavailableError,
    RequestTimeoutError,
)
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.rpc import wire

# Pooled connections must all be closed by their owners: a transport left
# for the garbage collector would surface as an unraisable warning.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)


def roundtrip(value):
    # Through real JSON, not just the codec functions, so nothing
    # JSON-unfriendly (tuples, numpy ints) can hide in the encoded form.
    return wire.decode_value(json.loads(json.dumps(wire.encode_value(value))))


def test_scalars_pass_through():
    for value in (None, True, 7, 2.5, "hello"):
        assert roundtrip(value) == value


def test_range_descriptor_partition_roundtrip():
    r = IntRange(30, 50)
    descriptor = PartitionDescriptor("patients", "age", r)
    partition = Partition.from_rows(
        "patients", "age", r, [(30, "a"), (41, "b")]
    )
    assert roundtrip(r) == r
    assert roundtrip(descriptor) == descriptor
    assert roundtrip(partition) == partition
    assert roundtrip(partition).rows == ((30, "a"), (41, "b"))


def test_request_payload_tuples_roundtrip():
    # The exact payloads the data plane sends.
    match = (123, IntRange(1, 9), "simulated", "value")
    store = (
        123,
        PartitionDescriptor("simulated", "value", IntRange(1, 9)),
        None,
        True,
    )
    assert roundtrip(match) == match
    assert roundtrip(store) == store


def test_unencodable_value_raises():
    with pytest.raises(TypeError):
        wire.encode_value(object())


def test_config_roundtrip_including_domain():
    config = SystemConfig(
        n_peers=9,
        replicas=3,
        domain=Domain("age", 0, 120),
        matcher="containment",
        seed=42,
    )
    assert wire.config_from_wire(wire.config_to_wire(config)) == config


def test_config_from_wire_rejects_unknown_fields():
    body = wire.config_to_wire(SystemConfig())
    body["bogus"] = 1
    with pytest.raises(ConfigError):
        wire.config_from_wire(body)


def test_config_from_wire_defaults_missing_fields():
    assert wire.config_from_wire({"n_peers": 5}).l == SystemConfig().l


def run(coroutine):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def test_frame_roundtrip_over_loopback():
    async def scenario():
        received = []

        async def serve(reader, writer):
            frame = await wire.read_frame(reader)
            received.append(frame)
            await wire.write_frame(writer, {"ok": True, "echo": frame})
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await wire.write_frame(writer, {"kind": "ping", "payload": [1, 2]})
        reply = await wire.read_frame(reader)
        writer.close()
        server.close()
        await server.wait_closed()
        return received, reply

    received, reply = run(scenario())
    assert received == [{"kind": "ping", "payload": [1, 2]}]
    assert reply["ok"] and reply["echo"]["kind"] == "ping"


def test_read_frame_returns_none_on_eof():
    async def scenario():
        async def serve(reader, writer):
            writer.close()  # hang up without answering

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        frame = await wire.read_frame(reader)
        writer.close()
        server.close()
        await server.wait_closed()
        return frame

    assert run(scenario()) is None


def test_oversized_length_prefix_is_refused():
    async def scenario():
        async def serve(reader, writer):
            writer.write(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            with pytest.raises(ValueError):
                await wire.read_frame(reader)
        finally:
            writer.close()
            server.close()
            await server.wait_closed()

    run(scenario())


def test_call_maps_refused_connection_to_peer_unavailable():
    async def scenario():
        # Bind a port, then close it, so the connect is refused.
        server = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        server.close()
        await server.wait_closed()
        with pytest.raises(PeerUnavailableError) as info:
            await wire.call("127.0.0.1", port, "ping", peer_id=42)
        assert info.value.peer_id == 42

    run(scenario())


def test_call_times_out_against_a_silent_peer():
    async def scenario():
        async def serve(reader, writer):
            await asyncio.sleep(30)  # never answer

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(RequestTimeoutError):
                await wire.call(
                    "127.0.0.1", port, "ping", peer_id=7, timeout_ms=100.0
                )
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


# -- adversarial framing -----------------------------------------------------
#
# A peer on the open network can hand the reader any byte stream.  Every
# malformed stream must surface as a typed WireError promptly — never a
# hang, never a raw struct/json/asyncio exception leaking upward.


def read_bytes(*chunks: bytes, seconds: float = 5.0):
    """read_frame over a reader preloaded with raw bytes, as if a peer
    sent them then hung up.  The deadline turns a would-be hang into a
    loud failure."""

    async def scenario():
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        return await asyncio.wait_for(wire.read_frame(reader), timeout=seconds)

    return run(scenario())


def test_torn_length_prefix_raises_wire_error():
    # Connection dies two bytes into the four-byte prefix: torn, not EOF.
    with pytest.raises(wire.WireError, match="length prefix"):
        read_bytes(b"\x00\x00")


def test_peer_death_mid_frame_raises_wire_error():
    # The prefix promises 100 bytes; only 10 ever arrive.
    with pytest.raises(wire.WireError, match="mid-frame"):
        read_bytes(struct.pack("!I", 100), b"x" * 10)


def test_garbage_bytes_under_plausible_prefix_raise_wire_error():
    junk = b"\xde\xad\xbe\xef not json at all"
    with pytest.raises(wire.WireError, match="not valid JSON"):
        read_bytes(struct.pack("!I", len(junk)), junk)


def test_non_object_json_body_raises_wire_error():
    body = json.dumps([1, 2, 3]).encode("utf-8")
    with pytest.raises(wire.WireError, match="expected an object"):
        read_bytes(struct.pack("!I", len(body)), body)


def test_undecodable_bytes_raise_wire_error_not_unicode_error():
    body = b"\xff\xfe\xfd\xfc"
    with pytest.raises(wire.WireError):
        read_bytes(struct.pack("!I", len(body)), body)


def test_wire_error_is_a_value_error_and_a_repro_error():
    # Callers catching either family (old code caught ValueError) work.
    from repro.errors import ReproError

    assert issubclass(wire.WireError, ValueError)
    assert issubclass(wire.WireError, ReproError)


def test_valid_frame_after_feed_still_parses():
    # Sanity check on the read_bytes() harness itself.
    body = json.dumps({"kind": "ping"}).encode("utf-8")
    frame = read_bytes(struct.pack("!I", len(body)), body)
    assert frame == {"kind": "ping"}


def test_call_survives_garbage_reply_as_peer_unavailable():
    # End to end: a server that answers with framing garbage must surface
    # to the caller as PeerUnavailableError (retryable), not a hang or a
    # leaked json/struct exception.
    async def scenario():
        async def serve(reader, writer):
            await wire.read_frame(reader)
            writer.write(b"\x00\x00\x00\x08garbage!")
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(PeerUnavailableError):
                await asyncio.wait_for(
                    wire.call(
                        "127.0.0.1", port, "ping", peer_id=3,
                        timeout_ms=2000.0,
                    ),
                    timeout=5.0,
                )
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


def test_call_survives_mid_frame_death_as_peer_unavailable():
    async def scenario():
        async def serve(reader, writer):
            await wire.read_frame(reader)
            writer.write(struct.pack("!I", 1 << 20) + b"only-a-little")
            await writer.drain()
            writer.close()  # die with most of the frame unsent

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(PeerUnavailableError):
                await asyncio.wait_for(
                    wire.call(
                        "127.0.0.1", port, "ping", peer_id=4,
                        timeout_ms=2000.0,
                    ),
                    timeout=5.0,
                )
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


# -- trace envelope compatibility --------------------------------------------
#
# The optional "trace" request field must be pure upside: a real server
# answers identically whether the envelope is absent, well-formed, or
# garbage from a confused (or hostile) peer.  Only a well-formed, sampled
# envelope leaves a span fragment behind.


def with_live_server(scenario):
    """Run one async scenario against a freshly bound PeerServer."""
    from repro.rpc.server import PeerServer

    async def runner():
        server = PeerServer("peer-wire", SystemConfig(n_peers=4, seed=7))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.close()

    return run(runner())


@pytest.mark.parametrize(
    "envelope",
    [
        "garbage-string",
        12,
        [1, 2],
        {},
        {"id": 7},
        {"id": "", "span": "x"},
        {"id": "ok-id", "span": 99},
    ],
)
def test_garbled_trace_envelope_degrades_to_untraced(envelope):
    # Every malformed envelope: the request succeeds exactly as if the
    # field were absent — never an error reply, never a dropped frame.
    async def scenario(server):
        reply = await wire.call(
            server.host, server.port, "hello",
            timeout_ms=2000.0, trace=envelope,
        )
        spans = await wire.call(
            server.host, server.port, "telemetry",
            {"spans_for": "ok-id"}, timeout_ms=2000.0,
        )
        return reply, spans

    reply, spans = with_live_server(scenario)
    assert reply["address"] == "peer-wire"
    # A garbled id ("ok-id" rides on a non-string span, which is dropped,
    # not fatal) may still trace; anything else must leave no fragment.
    if envelope != {"id": "ok-id", "span": 99}:
        assert spans["spans"] == []


def test_missing_trace_envelope_is_untraced_not_an_error():
    async def scenario(server):
        reply = await wire.call(
            server.host, server.port, "hello", timeout_ms=2000.0
        )
        depth = len(server.flight.spans_for("any"))
        return reply, depth

    reply, depth = with_live_server(scenario)
    assert reply["address"] == "peer-wire"
    assert depth == 0


def test_sampled_trace_envelope_leaves_a_fragment_behind():
    async def scenario(server):
        await wire.call(
            server.host, server.port, "hello", timeout_ms=2000.0,
            trace={"id": "trace-77", "span": "client-span-1",
                   "sampled": True},
        )
        return await wire.call(
            server.host, server.port, "telemetry",
            {"spans_for": "trace-77"}, timeout_ms=2000.0,
        )

    spans = with_live_server(scenario)["spans"]
    assert len(spans) == 1
    (fragment,) = spans
    assert fragment["name"] == "serve:hello"
    assert fragment["trace_id"] == "trace-77"
    assert fragment["parent_span_id"] == "client-span-1"
    assert fragment["node"] == "peer-wire"
    assert fragment["attrs"]["outcome"] == "ok"
    assert fragment["end_wall_ms"] >= fragment["start_wall_ms"]


def test_unsampled_trace_envelope_is_honoured():
    async def scenario(server):
        await wire.call(
            server.host, server.port, "hello", timeout_ms=2000.0,
            trace={"id": "trace-88", "sampled": False},
        )
        return await wire.call(
            server.host, server.port, "telemetry",
            {"spans_for": "trace-88"}, timeout_ms=2000.0,
        )

    assert with_live_server(scenario)["spans"] == []


def test_telemetry_snapshot_is_versioned_and_timestamped():
    # The --connect / scraper contract: version tag, node address, and
    # both capture clocks present on every full snapshot.
    async def scenario(server):
        await wire.call(server.host, server.port, "hello", timeout_ms=2000.0)
        return await wire.call(
            server.host, server.port, "telemetry", timeout_ms=2000.0
        )

    snapshot = with_live_server(scenario)
    assert snapshot["version"] == 1
    assert snapshot["node"] == "peer-wire"
    assert isinstance(snapshot["captured_mono_ms"], float)
    assert isinstance(snapshot["captured_wall_ms"], float)
    assert snapshot["queue_depth"] >= 0
    assert "census" in snapshot and "swim" in snapshot
    assert snapshot["flight"]["recorded"] >= 0
    # The metrics body is a registry snapshot: the hello we sent above is
    # already counted.
    names = {m["name"] for m in snapshot["metrics"]["metrics"]}
    assert "server.requests" in names


def test_call_maps_remote_error_types():
    async def scenario():
        async def serve(reader, writer):
            await wire.read_frame(reader)
            await wire.write_frame(
                writer,
                {
                    "id": 0,
                    "ok": False,
                    "error": "unknown message kind 'bogus'",
                    "error_type": "ConfigError",
                },
            )
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(ConfigError):
                await wire.call("127.0.0.1", port, "bogus")
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


# -- pooled connections ------------------------------------------------------
#
# With a ConnectionPool, calls reuse open connections.  A connection is
# lent to one call at a time, goes back only after a whole reply carrying
# the request's id, and is closed on any timeout, error or hang-up; a
# request is never resent.


class DialCounter:
    """Counts dials by wrapping ``asyncio.open_connection``, as the live
    benchmark's byte counter does."""

    def __init__(self, monkeypatch) -> None:
        self.dials = 0
        original = asyncio.open_connection

        async def counting(*args, **kwargs):
            self.dials += 1
            return await original(*args, **kwargs)

        monkeypatch.setattr(asyncio, "open_connection", counting)


def idle_connections(pool: wire.ConnectionPool, host: str, port: int) -> list:
    return pool._idle.get((host, port), [])


def test_sequential_pooled_calls_share_one_connection(monkeypatch):
    counter = DialCounter(monkeypatch)

    async def scenario(server):
        pool = wire.ConnectionPool()
        try:
            for _ in range(20):
                assert await wire.call(
                    server.host, server.port, "ping",
                    timeout_ms=2000.0, pool=pool,
                ) is True
        finally:
            await pool.close()

    with_live_server(scenario)
    assert counter.dials == 1


def test_concurrent_pooled_calls_get_their_own_connections(monkeypatch):
    counter = DialCounter(monkeypatch)
    k = 4

    async def scenario(server):
        # The delay keeps every call of a wave in flight together.
        server.chaos_delay_ms = 50.0
        pool = wire.ConnectionPool()

        async def wave():
            return await asyncio.gather(*(
                wire.call(
                    server.host, server.port, "ping",
                    timeout_ms=2000.0, pool=pool,
                )
                for _ in range(k)
            ))

        try:
            assert await wave() == [True] * k
            first = counter.dials
            assert await wave() == [True] * k
            assert await wave() == [True] * k
            return first
        finally:
            await pool.close()

    first = with_live_server(scenario)
    assert 1 <= first <= k
    assert counter.dials == first  # later waves reused the open ones


def test_timed_out_call_closes_its_connection(monkeypatch):
    counter = DialCounter(monkeypatch)

    async def scenario(server):
        pool = wire.ConnectionPool()
        try:
            await wire.call(server.host, server.port, "ping", pool=pool)
            (stale,) = idle_connections(pool, server.host, server.port)
            server.chaos_delay_ms = 200.0  # silent for longer than the call waits
            with pytest.raises(RequestTimeoutError):
                await wire.call(
                    server.host, server.port, "hello",
                    timeout_ms=50.0, pool=pool,
                )
            assert stale[1].is_closing()
            assert idle_connections(pool, server.host, server.port) == []
            server.chaos_delay_ms = 0.0
            # The next call must read its own reply, never the late hello.
            assert await wire.call(
                server.host, server.port, "ping",
                timeout_ms=2000.0, pool=pool,
            ) is True
            await asyncio.sleep(0.3)  # the late hello has been answered
            assert await wire.call(
                server.host, server.port, "ping",
                timeout_ms=2000.0, pool=pool,
            ) is True
        finally:
            await pool.close()

    with_live_server(scenario)
    assert counter.dials == 2


def test_hang_up_after_request_is_never_resent():
    # Like the chaos drop: read the request, then hang up without a
    # reply.  Each call must deliver its request exactly once.
    async def scenario():
        received = []

        async def serve(reader, writer):
            frame = await wire.read_frame(reader)
            if frame is not None:
                received.append(frame["id"])
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        pool = wire.ConnectionPool()
        try:
            for _ in range(3):
                with pytest.raises(PeerUnavailableError):
                    await wire.call(
                        "127.0.0.1", port, "ping", peer_id=5,
                        timeout_ms=2000.0, pool=pool,
                    )
            assert idle_connections(pool, "127.0.0.1", port) == []
        finally:
            await pool.close()
            server.close()
            await server.wait_closed()
        return received

    received = run(scenario())
    assert len(received) == 3 and len(set(received)) == 3


def test_reply_with_a_foreign_id_closes_the_connection():
    # A reply that does not answer the request (a stray or doubled reply)
    # must not be taken for the answer, nor leave the connection pooled.
    async def scenario():
        async def serve(reader, writer):
            while (frame := await wire.read_frame(reader)) is not None:
                await wire.write_frame(
                    writer, {"id": frame["id"] + 1, "ok": True, "value": 1}
                )
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        pool = wire.ConnectionPool()
        try:
            with pytest.raises(PeerUnavailableError):
                await wire.call(
                    "127.0.0.1", port, "ping", timeout_ms=2000.0, pool=pool
                )
            assert idle_connections(pool, "127.0.0.1", port) == []
        finally:
            await pool.close()
            server.close()
            await server.wait_closed()

    run(scenario())


def test_pooled_call_survives_a_restarted_peer(monkeypatch):
    counter = DialCounter(monkeypatch)
    from repro.rpc.server import PeerServer

    async def scenario():
        config = SystemConfig(n_peers=4, seed=7)
        pool = wire.ConnectionPool()
        first = PeerServer("peer-old", config)
        await first.start()
        host, port = first.host, first.port
        second = None
        try:
            await wire.call(host, port, "ping", timeout_ms=2000.0, pool=pool)
            await first.close()
            second = PeerServer("peer-new", config, port=port)
            await second.start()
            reply = await wire.call(
                host, port, "hello", timeout_ms=2000.0, pool=pool
            )
        finally:
            await pool.close()
            if second is not None:
                await second.close()
        return reply

    assert run(scenario())["address"] == "peer-new"
    assert counter.dials == 2  # the first connection, then one fresh dial


def test_peer_restarted_while_the_loop_sat_idle_costs_no_failure():
    # The client's loop is not running while the peer restarts (as with
    # ClusterClient between calls), so the old connection's EOF is still
    # queued when the next call checks a connection out.
    import threading

    from repro.rpc.server import PeerServer

    config = SystemConfig(n_peers=4, seed=7)
    server_loop = asyncio.new_event_loop()
    thread = threading.Thread(target=server_loop.run_forever, daemon=True)
    thread.start()

    def on_server(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, server_loop).result(10)

    loop = asyncio.new_event_loop()
    pool = wire.ConnectionPool()
    servers = [PeerServer("peer-old", config)]
    try:
        on_server(servers[0].start())
        host, port = servers[0].host, servers[0].port
        loop.run_until_complete(
            wire.call(host, port, "ping", timeout_ms=2000.0, pool=pool)
        )
        on_server(servers[0].close())
        servers.append(PeerServer("peer-new", config, port=port))
        on_server(servers[1].start())

        async def hello():
            # No timeout_ms: on Python < 3.12 wait_for would run the call
            # in a task of its own, one loop turn later, hiding the race.
            # A watchdog bounds the call instead.
            watchdog = asyncio.get_running_loop().call_later(
                5.0, asyncio.current_task().cancel
            )
            try:
                return await wire.call(host, port, "hello", pool=pool)
            finally:
                watchdog.cancel()

        assert loop.run_until_complete(hello())["address"] == "peer-new"
    finally:
        loop.run_until_complete(pool.close())
        loop.close()
        for server in servers:
            on_server(server.close())
        server_loop.call_soon_threadsafe(server_loop.stop)
        thread.join(10)
        server_loop.close()
    assert not thread.is_alive()


def test_closed_server_shuts_pooled_connections():
    async def scenario(server):
        pool = wire.ConnectionPool()
        try:
            await wire.call(server.host, server.port, "ping", pool=pool)
            (connection,) = idle_connections(pool, server.host, server.port)
            assert len(server._connections) == 1
            await server.close()
            # The pooled connection reads EOF: the server answers no more.
            assert await asyncio.wait_for(connection[0].read(), 2.0) == b""
            assert server._connections == {}
        finally:
            await pool.close()

    with_live_server(scenario)


def test_chaos_partition_refuses_a_pooled_call():
    from repro.rpc.server import PeerServer

    async def scenario():
        config = SystemConfig(n_peers=4, seed=7)
        b = PeerServer("peer-b", config)
        await b.start()
        a = PeerServer("peer-a", config, bootstrap=(b.host, b.port))
        try:
            await a.start()
            assert await a._call_member("peer-b", "ping") is True
            assert idle_connections(a._pool, b.host, b.port)
            await wire.call(
                b.host, b.port, "chaos-set", {"blocked": ["peer-a"]},
                timeout_ms=2000.0,
            )
            with pytest.raises(PeerUnavailableError):
                await a._call_member("peer-b", "ping", timeout_ms=2000.0)
            # A client (no sender address) is never partitioned.
            assert await wire.call(
                b.host, b.port, "ping", timeout_ms=2000.0
            ) is True
        finally:
            await a.close()
            await b.close()

    run(scenario())
