"""The layer boundaries the traced run wraps, and the per-layer metrics.

:data:`CATALOGUE` is the map later changes cite: each per-layer metric,
its unit, the boundary it is taken at, the end-to-end metric it should
move and the workloads it should move it on.  :data:`DECLARED` are the
metrics listed in ``BENCHMARK.json``'s ``per_layer``: they are measured on
every workload (a count may be 0 where its layer is not on the path).
:data:`REPORT_ONLY` are self times of layers that only some workloads
cross; they appear in each traced run's layer report (stdout and
``.perfbench_out/<workload>-seed<n>-layers.json``), marked not applicable
where the layer is not on the workload's path.
"""

from __future__ import annotations

from typing import Any

from tracer import Tracer

SYNC = "sync-uniform-10k"
SIM = "sim-zipf-churn-10k"
LIVE = "live-uniform-8"
ALL = (SYNC, SIM, LIVE)

#: name -> (unit, boundary, should move, on)
CATALOGUE: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    "rpc.engine.self_us_per_q": (
        "us", "QueryEngine.query minus child spans (on sim and live only the "
        "synchronous part of the call; continuations run later)",
        "throughput_qps", (SYNC,)),
    "lsh.identifiers_for.self_us_per_q": (
        "us", "identifiers_for of RangeSelectionSystem / ClientSystem",
        "nothing (control metric)", ALL),
    "chord.route.calls_per_q": (
        "count", "ChordRouter.route", "throughput_qps, latency_p50_ms", (SYNC,)),
    "chord.route.self_us_per_q": (
        "us", "ChordRouter.route", "throughput_qps, latency_p50_ms", (SYNC,)),
    "chord.replica_set.self_us_per_q": (
        "us", "ChordRouter.replica_set", "throughput_qps", (SYNC, SIM)),
    "chord.hops_per_q": (
        "count", "sum of each result's overlay_hops",
        "msgs_per_query; latency on sim (modeled)", ALL),
    "core.system.place_identifier.self_us_per_q": (
        "us", "rehash_for_placement (SHA-1) as called by core.system and "
        "rpc.client", "throughput_qps", (SYNC,)),
    "net.send.calls_per_q": (
        "count", "SimulatedNetwork.send and charge_route", "throughput_qps",
        (SYNC,)),
    "net.send.self_us_per_q": (
        "us", "SimulatedNetwork.send and charge_route minus the peer handler",
        "throughput_qps", (SYNC,)),
    "obs.registry.counter_ops_per_q": (
        "count", "calls of Counter.get, Counter.set and Counter.inc",
        "throughput_qps", (SYNC, SIM)),
    "rpc.peer.match.calls_per_q": (
        "count", "PeerLogic.match (live: match requests the peers served)",
        "throughput_qps, recall", (SIM,)),
    "rpc.peer.match.self_us_per_q": (
        "us", "PeerLogic.match", "throughput_qps, recall", (SIM,)),
    "rpc.peer.match.useful_ratio": (
        "ratio", "match replies carrying a descriptor / match requests "
        "(live: as seen by the client)", "throughput_qps, recall", (SIM,)),
    "storage.store.calls_per_q": (
        "count", "PeerStore.store (live: store requests the peers served)",
        "throughput_qps", (SYNC,)),
    "storage.store.self_us_per_q": (
        "us", "PeerStore.store", "throughput_qps", (SYNC,)),
    "storage.store.new_ratio": (
        "ratio", "new placements / store requests (live: from the client's "
        "placement counters)", "throughput_qps", (SYNC,)),
    "storage.entries_end": (
        "count", "entries held by all peers when the run ends", "peak_rss_mb",
        (SYNC, SIM)),
    "sim.query.pick_origin.self_us_per_q": (
        "us", "AsyncQueryEngine.pick_origin", "throughput_qps", (SIM,)),
    "sim.kernel.events_per_q": (
        "count", "Simulator.call_at", "throughput_qps", (SIM,)),
    "sim.kernel.self_us_per_q": (
        "us", "Simulator.run_until_complete minus child spans (includes the "
        "engine's continuations)", "throughput_qps", (SIM,)),
    "sim.network.request.calls_per_q": (
        "count", "AsyncNetwork.request", "throughput_qps", (SIM,)),
    "sim.network.request.self_us_per_q": (
        "us", "AsyncNetwork.request", "throughput_qps", (SIM,)),
    "sim.network.timeouts_per_q": (
        "count", "TrafficStats.timeouts delta of the workload's transport",
        "latency_p99_ms (modeled on sim), recall", (SIM,)),
    "sim.network.retries_per_q": (
        "count", "TrafficStats.retries delta of the workload's transport",
        "latency_p99_ms (modeled on sim), recall", (SIM,)),
    "sim.network.failovers_per_q": (
        "count", "TrafficStats.failovers delta of the workload's transport",
        "latency_p99_ms (modeled on sim), recall", (SIM,)),
    "sim.repair.self_ms_total": (
        "ms", "ReplicaRepairer.run_round (the synchronous placement scan)",
        "recall, throughput_qps", (SIM,)),
    "sim.repair.copies_created": (
        "count", "RepairStats.copies_created delta", "recall, throughput_qps",
        (SIM,)),
    "rpc.wire.call.calls_per_q": (
        "count", "wire.call", "latency_p50_ms", (LIVE,)),
    "rpc.wire.call.rtt_us_p50": (
        "us", "awaited duration of wire.call", "latency_p50_ms", (LIVE,)),
    "rpc.wire.connections_per_q": (
        "count", "asyncio.open_connection calls",
        "throughput_qps, latency_p99_ms", (LIVE,)),
    "rpc.wire.codec_us_per_q": (
        "us", "client-side wire.encode_value and wire.decode_value",
        "throughput_qps", (LIVE,)),
    "rpc.client.cpu_ms_per_q": (
        "ms", "time.process_time of the load process (on sync and sim it runs "
        "every peer too)", "throughput_qps", ALL),
    "rpc.server.cpu_ms_per_q": (
        "ms", "utime+stime of every peer process from /proc/<pid>/stat, SWIM "
        "and repair included", "throughput_qps, latency_p50_ms", (LIVE,)),
    "rpc.server.service_ms_p50": (
        "ms", "scraped server.service_ms of match and store requests "
        "(bucket resolution)", "latency_p50_ms", (LIVE,)),
    "rpc.server.requests_per_q": (
        "count", "match and store requests served by peers (live: scraped "
        "server.requests)", "msgs_per_query", (LIVE,)),
    "trace.overhead_pct": (
        "%", "traced against untraced throughput_qps", "nothing", ALL),
}

#: Self times of layers only some workloads cross, with those workloads.
#: They are reported, not declared in ``BENCHMARK.json``.
REPORT_ONLY: dict[str, tuple[str, ...]] = {
    "net.send.self_us_per_q": (SYNC,),
    "rpc.peer.match.self_us_per_q": (SYNC, SIM),
    "storage.store.self_us_per_q": (SYNC, SIM),
    "sim.query.pick_origin.self_us_per_q": (SIM,),
    "sim.kernel.self_us_per_q": (SIM,),
    "sim.network.request.self_us_per_q": (SIM,),
    "sim.repair.self_ms_total": (SIM,),
    "rpc.wire.call.rtt_us_p50": (LIVE,),
    "rpc.wire.codec_us_per_q": (LIVE,),
    "rpc.server.cpu_ms_per_q": (LIVE,),
    "rpc.server.service_ms_p50": (LIVE,),
}

DECLARED = [name for name in CATALOGUE if name not in REPORT_ONLY]


class Outcomes:
    """Useful-outcome counts seen by the match and store wrappers."""

    def __init__(self) -> None:
        self.useful_matches = 0
        self.new_stores = 0

    def on_match(self, result: Any) -> None:
        if result is not None:
            self.useful_matches += 1

    def on_store(self, result: Any) -> None:
        if result:
            self.new_stores += 1


def install(tracer: Tracer, outcomes: Outcomes) -> None:
    """Wrap every layer boundary of every transport."""
    import repro.core.system as core_system
    import repro.rpc.client as rpc_client
    from repro.core.overlays import ChordRouter
    from repro.net.transport import SimulatedNetwork
    from repro.obs.registry import Counter
    from repro.rpc import wire
    from repro.rpc.engine import QueryEngine
    from repro.rpc.peer import PeerLogic
    from repro.sim.kernel import Simulator
    from repro.sim.network import AsyncNetwork
    from repro.sim.query import AsyncQueryEngine
    from repro.sim.repair import ReplicaRepairer
    from repro.storage.store import PeerStore

    def span(name, **options):
        return lambda fn: tracer.span(name, fn, **options)

    tracer.patch(QueryEngine, "query", span("rpc.engine"))
    for owner in (core_system.RangeSelectionSystem, rpc_client.ClientSystem):
        tracer.patch(owner, "identifiers_for", span("lsh.identifiers_for"))
    for module in (core_system, rpc_client):
        tracer.patch(module, "rehash_for_placement", span("core.system.place_identifier"))
    tracer.patch(ChordRouter, "route", span("chord.route"))
    tracer.patch(ChordRouter, "replica_set", span("chord.replica_set"))
    tracer.patch(SimulatedNetwork, "send", span("net.send"))
    tracer.patch(SimulatedNetwork, "charge_route", span("net.send"))
    tracer.patch(PeerLogic, "handle", span("rpc.peer.handle"))
    tracer.patch(PeerLogic, "match", span("rpc.peer.match", on_result=outcomes.on_match))
    tracer.patch(PeerStore, "store", span("storage.store", on_result=outcomes.on_store))
    tracer.patch(AsyncQueryEngine, "pick_origin", span("sim.query.pick_origin"))
    tracer.patch(Simulator, "run_until_complete", span("sim.kernel"))
    tracer.patch(Simulator, "call_at", lambda fn: tracer.counter("sim.kernel.events", fn))
    tracer.patch(AsyncNetwork, "request", span("sim.network.request"))
    tracer.patch(ReplicaRepairer, "run_round", span("sim.repair"))
    tracer.patch(wire, "call", lambda fn: tracer.async_span("rpc.wire.call", fn))
    for name in ("encode_value", "decode_value"):
        tracer.patch(wire, name, span("rpc.wire.codec", reentrant=False))
    for name in ("get", "set", "inc"):
        tracer.patch(Counter, name, lambda fn: tracer.counter("obs.registry.counter_ops", fn))


def span_metrics(tracer: Tracer, queries: int) -> dict[str, float]:
    """Per-query calls and self times of every span name, plus counts."""
    out: dict[str, float] = {}
    for name, (calls, self_ns) in tracer.totals().items():
        out[f"{name}.calls_per_q"] = calls / queries
        out[f"{name}.self_us_per_q"] = self_ns / 1e3 / queries
        out[f"{name}.self_ms_total"] = self_ns / 1e6
    for name, count in tracer.counts.items():
        out[f"{name}_per_q"] = count / queries
    return out


def report(workload: str, values: dict[str, float]) -> dict[str, Any]:
    """Every catalogued metric for one workload: value, or why none."""
    rows = {}
    for name, (unit, boundary, moves, on) in CATALOGUE.items():
        row: dict[str, Any] = {
            "unit": unit, "boundary": boundary, "moves": moves,
            "on": list(on), "declared": name not in REPORT_ONLY,
        }
        if workload in REPORT_ONLY.get(name, ALL):
            row["value"] = values[name]
        else:
            row["value"] = None
            row["why_none"] = f"this layer is not on the {workload} path"
        rows[name] = row
    return rows
