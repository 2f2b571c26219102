"""Cross-transport equivalence: one engine, three transports.

The paper's query procedure is implemented once
(:class:`repro.rpc.engine.QueryEngine`); the synchronous, discrete-event
and socket paths differ only in their :class:`~repro.rpc.transports.Transport`.
With zero faults and a fixed seed, the same workload through all three
must produce identical result sets, identical system counters and
identical trace span shapes — any divergence means a transport leaked
semantics into the procedure.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chord.hashing import node_id_for_address
from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.ranges.interval import IntRange
from repro.rpc.client import ClusterClient
from repro.rpc.server import PeerServer
from repro.sim.query import AsyncQueryEngine

# Teardown must close every pooled connection and serving task: anything
# left for the garbage collector would surface as an unraisable warning.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)

N_PEERS = 12
SEED = 2003
ADDRESSES = [f"peer-{i}" for i in range(N_PEERS)]

# A short workload with re-queries, so cold misses, exact hits and
# near-miss approximate matches all occur.
QUERIES = [
    IntRange(100, 200),
    IntRange(100, 200),
    IntRange(100, 199),
    IntRange(400, 600),
    IntRange(402, 600),
]
ORIGIN_ADDRESSES = ["peer-0", "peer-3", "peer-7", "peer-1", "peer-9"]


def make_config() -> SystemConfig:
    return SystemConfig(n_peers=N_PEERS, seed=SEED, replicas=2)


def origins() -> list[int]:
    return [node_id_for_address(address, 32) for address in ORIGIN_ADDRESSES]


def outcome_row(matched, exact, stored, similarity, recall):
    return (
        str(matched) if matched is not None else None,
        bool(exact),
        bool(stored),
        pytest.approx(similarity),
        pytest.approx(recall),
    )


def span_shape(span_dict: dict) -> tuple:
    """A span's comparable shape: name, event names, child shapes."""
    return (
        span_dict["name"],
        tuple(event["name"] for event in span_dict["events"]),
        tuple(span_shape(child) for child in span_dict["spans"]),
    )


def trace_shape(trace) -> tuple:
    document = trace.to_dict()
    root = document.get("root", document)
    return span_shape(root)


def counters_row(counters) -> tuple:
    return (
        counters.queries,
        counters.exact_hits,
        counters.misses,
        counters.stores,
        counters.placements,
        counters.replica_placements,
        counters.overlay_hops,
        counters.failovers,
        counters.failed_lookups,
    )


def run_sync():
    system = RangeSelectionSystem(make_config())
    rows, shapes = [], []
    for query, origin in zip(QUERIES, origins()):
        trace = system.start_trace(query)
        result = system.query(query, origin=origin, trace=trace)
        rows.append(
            (
                str(result.matched) if result.matched is not None else None,
                result.exact,
                result.stored,
                result.similarity,
                result.recall,
            )
        )
        shapes.append(trace_shape(trace))
    return rows, shapes, counters_row(system.counters), system


def run_sim():
    system = RangeSelectionSystem(make_config())
    engine = AsyncQueryEngine(system, seed=SEED)
    rows, shapes = [], []
    for query, origin in zip(QUERIES, origins()):
        trace = engine.start_trace(query)
        result = engine.run(query, origin=origin, trace=trace)
        rows.append(
            (
                str(result.matched) if result.matched is not None else None,
                result.exact,
                result.stored,
                result.similarity,
                result.recall,
            )
        )
        shapes.append(trace_shape(trace))
    return rows, shapes, counters_row(system.counters), system


def run_socket():
    loop = asyncio.new_event_loop()
    servers: list[PeerServer] = []

    async def boot():
        bootstrap = None
        for address in ADDRESSES:
            server = PeerServer(address, make_config(), bootstrap=bootstrap)
            await server.start()
            if bootstrap is None:
                bootstrap = (server.host, server.port)
            servers.append(server)
        return bootstrap

    bootstrap = loop.run_until_complete(boot())
    rows, shapes = [], []
    client = None
    try:
        client = ClusterClient(bootstrap, loop=loop)
        for query, origin in zip(QUERIES, origins()):
            trace = client.start_trace(query)
            result = client.query(query, origin=origin, trace=trace)
            rows.append(
                (
                    str(result.matched)
                    if result.matched is not None
                    else None,
                    result.exact,
                    result.stored,
                    result.similarity,
                    result.recall,
                )
            )
            shapes.append(trace_shape(trace))
        counters = counters_row(client.system.counters)
        system = client.system
    finally:

        async def teardown():
            for server in servers:
                await server.close()

        if client is not None:
            client.close()  # the loop is ours: this closes its connections
        loop.run_until_complete(teardown())
        loop.close()
    return rows, shapes, counters, system


@pytest.fixture(scope="module")
def sync_run():
    return run_sync()


@pytest.fixture(scope="module")
def sim_run():
    return run_sim()


@pytest.fixture(scope="module")
def socket_run():
    return run_socket()


def test_socket_ring_matches_in_process_ring(sync_run, socket_run):
    # Node ids are SHA-1 of addresses in both worlds, so the socket
    # client's mirror must place identifiers on the very same ring.
    assert (
        socket_run[3].router.node_ids == sync_run[3].router.node_ids
    )


def test_results_identical_across_transports(sync_run, sim_run, socket_run):
    sync_rows, sim_rows, socket_rows = sync_run[0], sim_run[0], socket_run[0]
    for index, sync_row in enumerate(sync_rows):
        matched, exact, stored, similarity, recall = sync_row
        expected = outcome_row(matched, exact, stored, similarity, recall)
        assert sim_rows[index] == expected, f"sim diverged on query {index}"
        assert socket_rows[index] == expected, (
            f"socket diverged on query {index}"
        )
    # The workload exercises all interesting outcomes.
    assert sync_rows[0][0] is None and sync_rows[0][2]  # cold miss, stored
    assert sync_rows[1][1]  # exact re-query hit
    assert sync_rows[2][0] is not None and not sync_rows[2][1]  # approx


def test_trace_shapes_identical_across_transports(
    sync_run, sim_run, socket_run
):
    for index in range(len(QUERIES)):
        assert sync_run[1][index] == sim_run[1][index], (
            f"sync/sim trace shape diverged on query {index}"
        )
        assert sync_run[1][index] == socket_run[1][index], (
            f"sync/socket trace shape diverged on query {index}"
        )


def test_trace_shape_has_expected_skeleton(sync_run):
    name, _, children = sync_run[1][0]
    assert name == "query"
    child_names = [child[0] for child in children]
    assert child_names[:2] == ["hash", "locate"]
    assert "store" in child_names  # cold miss stores
    locate = children[1]
    chain_names = [chain[0] for chain in locate[2]]
    assert chain_names == ["chain"] * 5  # one span per lookup chain


def test_counters_identical_across_transports(sync_run, sim_run, socket_run):
    assert sync_run[2] == sim_run[2]
    assert sync_run[2] == socket_run[2]
