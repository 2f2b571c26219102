"""``live-uniform-8``: a real 8-process ring on loopback.

``LocalCluster`` spawns eight ``repro serve`` processes; this process is
the only client and keeps two queries outstanding (a closed loop of two
callers) through ``ClusterClient.engine.query``.  It is the one workload
that crosses the wire codec, sockets and server request handling.

The ring is torn down on every exit path, and the run fails if any peer
process outlives it.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from common import (
    Checks,
    Metrics,
    check_answer,
    paper_config,
    peak_rss_mb,
    percentile,
    timed_setups,
    windowed_percentile,
)
from pace import Pace
from layers import LIVE, Outcomes, install, span_metrics
from tracer import Tracer

from repro.core.system import SIM_ATTRIBUTE, SIM_RELATION
from repro.errors import ReproError
from repro.obs.distributed import bucket_quantile
from repro.rpc.cluster import LocalCluster
from repro.workloads.generators import UniformRangeWorkload

NAME = LIVE
PEERS = 8
QUERIES_PER_SECOND = 150
WARMUP = 20
OUTSTANDING = 2
#: A query still unanswered after this long counts as failed.
QUERY_TIMEOUT_S = 10.0
REQUERY = 20
#: Set-ups per untraced run; each spawns nine processes (about 4 s).
SETUP_REPEATS = 3
#: Queries between two speed probes (the callers drain before a probe);
#: throughput_qps is the median over these slices.
WINDOW = 50
#: Elasticity of this workload's speed to the probe's (see pace.py).  The
#: ring's nine processes sleep and wake on every message, which the
#: single-thread probe does not time; over three ten-seed sets on a shared
#: 2-core host, 0.6 gave the smallest spread of throughput and p50.
ELASTICITY = 0.6
DATA_KINDS = ("match-request", "store-request")


class StreamBytes:
    """Counts connections and the bytes crossing this process's asyncio
    streams, by wrapping ``asyncio.open_connection`` while installed."""

    def __init__(self) -> None:
        self.connections = 0
        self.bytes = 0
        self._original = None

    def install(self) -> None:
        original = self._original = asyncio.open_connection
        counter = self

        async def open_connection(*args, **kwargs):
            reader, writer = await original(*args, **kwargs)
            counter.connections += 1
            return _CountingReader(reader, counter), _CountingWriter(writer, counter)

        asyncio.open_connection = open_connection

    def uninstall(self) -> None:
        if self._original is not None:
            asyncio.open_connection = self._original
            self._original = None


class _CountingWriter:
    def __init__(self, writer, counter: StreamBytes) -> None:
        self._writer = writer
        self._counter = counter

    def write(self, data) -> None:
        self._counter.bytes += len(data)
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


class _CountingReader:
    def __init__(self, reader, counter: StreamBytes) -> None:
        self._reader = reader
        self._counter = counter

    async def readexactly(self, n: int):
        data = await self._reader.readexactly(n)
        self._counter.bytes += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._reader, name)


def make_inputs(seed: int, count: int) -> tuple[list, list[int]]:
    config = paper_config(PEERS)
    ranges = UniformRangeWorkload(config.domain, WARMUP + count, seed).ranges()
    rng = np.random.default_rng([seed, 3])
    origins = [int(i) for i in rng.integers(PEERS, size=len(ranges))]
    return ranges, origins


def start_ring() -> tuple[LocalCluster, object]:
    """Spawn the ring, connect a client and dial every peer once."""
    cluster = LocalCluster(PEERS, paper_config(PEERS))
    try:
        cluster.start()
        client = cluster.client()
        for address in client.members:
            if not client.ping(address):
                raise ReproError(f"peer {address} did not answer its first dial")
    except BaseException:
        cluster.shutdown()
        raise
    return cluster, client


def stop_ring(ring, checks: Checks | None = None) -> None:
    """Shut the ring down and check no peer process outlived it."""
    cluster, client = ring
    try:
        client.close()
    finally:
        cluster.shutdown()
    if checks is None:
        return
    alive = [a for a, p in cluster.processes.items() if p.poll() is None]
    checks.expect(not alive, f"peer processes still running after teardown: {alive}")
    checks.expect(not serve_children(), "a 'repro serve' child is still running")


def serve_children() -> list[int]:
    """Pids of this process's children running ``repro serve``."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().split(b"\0")
        except OSError:
            continue
        ppid = stat.rsplit(")", 1)[1].split()[1]
        if ppid == me and b"repro" in cmdline and b"serve" in cmdline:
            found.append(int(entry))
    return found


def peer_cpu_s(cluster: LocalCluster) -> float:
    """utime + stime of every peer process, in seconds."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for process in cluster.processes.values():
        with open(f"/proc/{process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / ticks


async def _settled(future):
    """Await a SimFuture settled from the client's event loop."""
    done = asyncio.get_running_loop().create_future()
    future.add_done_callback(lambda _f: done.done() or done.set_result(None))
    await done
    return future.result()


def closed_loop(client, jobs, tracer: Tracer | None = None) -> dict:
    """Run ``jobs`` (range, origin index) with OUTSTANDING callers."""
    ids = client.system.router.node_ids
    results: list = [None] * len(jobs)
    spans = [(0.0, 0.0)] * len(jobs)
    errors: list[str] = []
    order = iter(range(len(jobs)))

    async def caller() -> None:
        for index in order:
            query, origin = jobs[index]
            began = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.query_index = index
                future = client.engine.query(
                    query, SIM_RELATION, SIM_ATTRIBUTE, ids[origin % len(ids)]
                )
                if tracer is not None:
                    tracer.query_index = -1
                result = await asyncio.wait_for(_settled(future), QUERY_TIMEOUT_S)
            except (ReproError, OSError, asyncio.TimeoutError) as exc:
                errors.append(f"query {index} {query}: {type(exc).__name__}: {exc}")
                # A failed query misses any latency limit: charge the timeout.
                spans[index] = (began, began + QUERY_TIMEOUT_S)
            else:
                results[index] = result
                spans[index] = (began, time.perf_counter())

    async def main() -> None:
        await asyncio.gather(*(caller() for _ in range(OUTSTANDING)))

    client.loop.run_until_complete(main())
    return {"results": results, "spans": spans, "errors": errors}


def run_pass(client, jobs, streams: StreamBytes, checks: Checks,
             tracer: Tracer | None = None) -> dict:
    stats = client.transport.stats
    counters = client.system.counters
    before = (stats.messages, streams.bytes, streams.connections, stats.timeouts,
              stats.retries, stats.failovers,
              counters.placements + counters.replica_placements)
    if tracer is not None:
        # Match and store run in the peer processes, so their wrappers
        # see nothing here; the peers' counts are scraped instead.
        install(tracer, Outcomes())
    pace = Pace(ELASTICITY)
    results, spans, errors, slices = [], [], [], []
    cpu = time.process_time()
    try:
        for first in range(0, len(jobs), WINDOW):
            pace.sample()
            chunk = closed_loop(client, jobs[first:first + WINDOW], tracer)
            results += chunk["results"]
            spans += chunk["spans"]
            errors += chunk["errors"]
            slices.append((len(chunk["spans"]), chunk["spans"][0][0],
                           max(end for _, end in chunk["spans"])))
        pace.sample()
    finally:
        cpu = time.process_time() - cpu - pace.cpu_s
        if tracer is not None:
            tracer.uninstall()
    after = (stats.messages, streams.bytes, streams.connections, stats.timeouts,
             stats.retries, stats.failovers,
             counters.placements + counters.replica_placements)
    count = len(jobs)
    delta = [(y - x) / count for x, y in zip(before, after)]
    recalls, failed, useful = [], len(errors), 0
    for index, ((query, _), result) in enumerate(zip(jobs, results)):
        if result is None:
            recalls.append(0.0)
            continue
        recalls.append(check_answer(checks, index, query, result))
        if all(chain.reply is None for chain in result.chains):
            failed += 1
        useful += sum(
            1 for chain in result.chains
            if chain.reply is not None and chain.reply.descriptor is not None
        )
    return {
        "failed": failed,
        "errors": errors,
        "ranges": [query for query, _ in jobs],
        "results": results,
        "throughput": pace.slice_rate(slices),
        "raw_throughput": count / sum(b - a for _, a, b in slices),
        "latencies_ms": [pace.scale(a, b) * 1e3 for a, b in spans],
        "raw_latencies_ms": [(b - a) * 1e3 for a, b in spans],
        "msgs": delta[0],
        "bytes": delta[1],
        "connections": delta[2],
        "timeouts": delta[3],
        "retries": delta[4],
        "failovers": delta[5],
        "new_placements": delta[6] * count,
        "useful_replies": useful,
        "recall": float(np.mean(recalls)),
        "hops": sum(r.overlay_hops for r in results if r is not None) / count,
        "cpu_ms": cpu * 1e3 / count,
    }


def requery_stored(client, measured, checks: Checks) -> None:
    """Ranges this run stored must now come back as exact hits."""
    stored = [
        query for query, result in zip(measured["ranges"], measured["results"])
        if result is not None and result.stored
    ]
    checks.expect(bool(stored), "no query stored its partition")
    step = max(1, len(stored) // REQUERY)
    for query in stored[::step][:REQUERY]:
        try:
            again = client.query(query)
        except ReproError as exc:
            checks.fail(f"re-query of stored range {query} raised {exc}")
            continue
        checks.expect(again.exact, f"stored range {query} did not come back exact")


def scrape(client) -> dict:
    """Per-kind request counts and service-time buckets, summed over peers,
    plus the entries every peer holds."""
    requests = {kind: 0.0 for kind in DATA_KINDS}
    edges: list[float] = []
    buckets: list[int] = []
    entries = 0
    for address in client.members:
        telemetry = client.telemetry_of(address, spans=0)
        entries += int(telemetry["census"]["entries"])
        for family in telemetry["metrics"]["metrics"]:
            for series in family["series"]:
                if series["labels"].get("kind") not in DATA_KINDS:
                    continue
                if family["name"] == "server.requests":
                    requests[series["labels"]["kind"]] += float(series["value"])
                elif family["name"] == "server.service_ms":
                    if not buckets:
                        edges = [float(e) for e in family["edges"]]
                        buckets = [0] * len(series["counts"])
                    for i, n in enumerate(series["counts"]):
                        buckets[i] += int(n)
    return {"requests": requests, "edges": edges, "buckets": buckets, "entries": entries}


def run(seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    count = max(10, round(QUERIES_PER_SECOND * seconds))
    ranges, origins = make_inputs(seed, count)
    jobs = list(zip(ranges, origins))
    streams = StreamBytes()
    streams.install()
    ring = None
    try:
        setups, raw_setups, ring = timed_setups(
            start_ring, 1 if trace else SETUP_REPEATS, ELASTICITY, release=stop_ring
        )
        cluster, client = ring
        closed_loop(client, jobs[:WARMUP])
        timed = jobs[WARMUP:]
        if not trace:
            measured = run_pass(client, timed, streams, checks)
            requery_stored(client, measured, checks)
            result = live_metrics(setups, raw_setups, measured, count)
        else:
            result = traced_run(ring, timed, streams, checks)
    finally:
        streams.uninstall()
        if ring is not None:
            stop_ring(ring, checks)
    result["checks"] = checks
    return result


def live_metrics(setups, raw_setups, measured, count) -> dict:
    metrics = Metrics()
    latencies = measured["latencies_ms"]
    raw = measured["raw_latencies_ms"]
    metrics.add("setup_s", float(np.median(setups)), "s", len(setups),
                float(np.median(raw_setups)))
    metrics.add("throughput_qps", measured["throughput"], "1/s", count,
                measured["raw_throughput"])
    metrics.add("latency_p50_ms", percentile(latencies, 50), "ms", count,
                percentile(raw, 50))
    metrics.add("latency_p99_ms", windowed_percentile(latencies, 99),
                "ms", count, windowed_percentile(raw, 99))
    metrics.add("msgs_per_query", measured["msgs"], "count", count)
    metrics.add("bytes_per_query", measured["bytes"], "B", count)
    metrics.add("recall", measured["recall"], "ratio", count)
    metrics.add("peak_rss_mb", peak_rss_mb(), "MiB", None)
    return {"metrics": metrics, "attempted": count, "failed": measured["failed"],
            "notes": [f"failed query: {e}" for e in measured["errors"][:5]]}


def traced_run(ring, timed, streams: StreamBytes, checks: Checks) -> dict:
    """Untraced first half, traced second half of the same ring."""
    cluster, client = ring
    half = len(timed) // 2
    plain = run_pass(client, timed[:half], streams, checks)
    second = timed[half:]
    before, cpu_before = scrape(client), peer_cpu_s(cluster)
    tracer = Tracer()
    traced = run_pass(client, second, streams, checks, tracer)
    cpu_after, after = peer_cpu_s(cluster), scrape(client)
    requery_stored(client, traced, checks)
    n = len(second)
    served = {k: after["requests"][k] - before["requests"][k] for k in DATA_KINDS}
    buckets = [b - a for a, b in zip(before["buckets"] or [0] * len(after["buckets"]),
                                     after["buckets"])]
    rtts = tracer.durations_ns("rpc.wire.call")
    values = span_metrics(tracer, n)
    values.update({
        "chord.hops_per_q": traced["hops"],
        "rpc.peer.match.calls_per_q": served["match-request"] / n,
        "rpc.peer.match.useful_ratio":
            traced["useful_replies"] / max(1.0, served["match-request"]),
        "storage.store.calls_per_q": served["store-request"] / n,
        "storage.store.new_ratio":
            traced["new_placements"] / max(1.0, served["store-request"]),
        "storage.entries_end": float(after["entries"]),
        "sim.network.timeouts_per_q": traced["timeouts"],
        "sim.network.retries_per_q": traced["retries"],
        "sim.network.failovers_per_q": traced["failovers"],
        "sim.repair.copies_created": 0.0,
        "rpc.wire.call.rtt_us_p50": float(np.median(rtts)) / 1e3 if rtts else 0.0,
        "rpc.wire.connections_per_q": traced["connections"],
        "rpc.wire.codec_us_per_q": values["rpc.wire.codec.self_us_per_q"],
        "rpc.client.cpu_ms_per_q": traced["cpu_ms"],
        "rpc.server.cpu_ms_per_q": (cpu_after - cpu_before) * 1e3 / n,
        "rpc.server.service_ms_p50": bucket_quantile(after["edges"], buckets, 0.5),
        "rpc.server.requests_per_q": sum(served.values()) / n,
        "trace.overhead_pct": 100.0 * (1.0 - traced["throughput"] / plain["throughput"]),
    })
    return {"metrics": values, "attempted": len(timed),
            "failed": plain["failed"] + traced["failed"], "tracer": tracer,
            "notes": [f"failed query: {e}" for e in (plain["errors"] + traced["errors"])[:5]]}
