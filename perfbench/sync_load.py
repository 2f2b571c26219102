"""``sync-uniform-10k``: the paper's own workload on the synchronous transport.

A 10,000-peer Chord ring with ``r = 1`` answers uniform ranges through
``RangeSelectionSystem.query``, one caller in a closed loop.  Nearly every
query misses exactly and stores its partition at the ``l`` owners.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    SETUP_REPEATS,
    Checks,
    Metrics,
    check_answer,
    compare_runs,
    counter_values,
    paper_config,
    peak_rss_mb,
    percentile,
    query_digest,
    timed_setups,
    windowed_percentile,
)
from pace import Pace
from layers import SYNC, Outcomes, install, span_metrics
from tracer import Tracer

from repro.core.system import RangeSelectionSystem
from repro.workloads.generators import UniformRangeWorkload

NAME = SYNC
PEERS = 10_000
#: Timed queries per measured second (about today's throughput).
QUERIES_PER_SECOND = 500
WARMUP = 200
#: Queries between two speed probes.
CHUNK = 100
#: Elasticity of this workload's speed to the probe's (see pace.py): the
#: slope of log raw throughput on log probe slowness over 34 runs on a
#: shared 2-core host whose speed moved by up to 2x between them was 0.90.
ELASTICITY = 0.9
#: Stored ranges re-queried after the run; each must come back exact.
REQUERY = 50


def make_inputs(seed: int, count: int) -> tuple[list, list[int]]:
    """Warm-up plus timed ranges, and one origin (peer index) per range."""
    config = paper_config(PEERS)
    ranges = UniformRangeWorkload(config.domain, WARMUP + count, seed).ranges()
    rng = np.random.default_rng([seed, 1])
    origins = [int(i) for i in rng.integers(PEERS, size=len(ranges))]
    return ranges, origins


def build() -> RangeSelectionSystem:
    return RangeSelectionSystem(paper_config(PEERS))


def run_pass(system, ranges, origins, checks: Checks, tracer: Tracer | None = None):
    """Warm up, then time every query; returns the pass's measurements."""
    ids = system.router.node_ids
    for query, origin in zip(ranges[:WARMUP], origins[:WARMUP]):
        system.query(query, origin=ids[origin])
    stats = system.network.stats
    messages, sent_bytes = stats.messages, stats.bytes
    timeouts, retries, failovers = stats.timeouts, stats.retries, stats.failovers
    timed = list(zip(ranges[WARMUP:], origins[WARMUP:]))
    results = []
    outcomes = Outcomes()
    if tracer is not None:
        install(tracer, outcomes)
    pace = Pace(ELASTICITY)
    spans, slices = [], []
    cpu = time.process_time()
    try:
        for first in range(0, len(timed), CHUNK):
            pace.sample()
            began = time.perf_counter()
            for index in range(first, min(first + CHUNK, len(timed))):
                if tracer is not None:
                    tracer.query_index = index
                query, origin = timed[index]
                start = time.perf_counter()
                results.append(system.query(query, origin=ids[origin]))
                spans.append((start, time.perf_counter()))
            slices.append((len(spans) - first, began, time.perf_counter()))
        pace.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.query_index = -1
    cpu = time.process_time() - cpu - pace.cpu_s
    count = len(timed)
    recalls = [
        check_answer(checks, i, query, result)
        for i, ((query, _), result) in enumerate(zip(timed, results))
    ]
    return {
        "results": results,
        "ranges": [query for query, _ in timed],
        "digests": [query_digest(r) for r in results],
        "throughput": pace.slice_rate(slices),
        "raw_throughput": count / pace.raw_span(spans[0][0], spans[-1][1]),
        "latencies_ms": [pace.scale(a, b) * 1e3 for a, b in spans],
        "raw_latencies_ms": [(b - a) * 1e3 for a, b in spans],
        "msgs": (stats.messages - messages) / count,
        "bytes": (stats.bytes - sent_bytes) / count,
        "timeouts": (stats.timeouts - timeouts) / count,
        "retries": (stats.retries - retries) / count,
        "failovers": (stats.failovers - failovers) / count,
        "recall": float(np.mean(recalls)),
        "hops": sum(r.overlay_hops for r in results) / count,
        "cpu_ms": cpu * 1e3 / count,
        "outcomes": outcomes,
    }


def final_checks(system, measured, checks: Checks) -> None:
    """Placement invariant, then stored ranges must now hit exactly."""
    try:
        system.check_placement_invariant()
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        checks.fail(f"placement invariant: {exc}")
    stored = [
        query for query, result in zip(measured["ranges"], measured["results"])
        if result.stored
    ]
    checks.expect(bool(stored), "no query stored its partition")
    step = max(1, len(stored) // REQUERY)
    ids = system.router.node_ids
    for index, query in enumerate(stored[::step][:REQUERY]):
        again = system.query(query, origin=ids[index % len(ids)])
        checks.expect(again.exact, f"stored range {query} did not come back exact")


def run(seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    metrics = Metrics()
    count = max(10, round(QUERIES_PER_SECOND * seconds))
    if not trace:
        ranges, origins = make_inputs(seed, count)
        setups, raw_setups, system = timed_setups(build, SETUP_REPEATS, ELASTICITY)
        measured = run_pass(system, ranges, origins, checks)
        final_checks(system, measured, checks)
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
        return {"metrics": metrics, "checks": checks, "attempted": count,
                "failed": 0, "notes": []}

    half = max(10, count // 2)
    ranges, origins = make_inputs(seed, half)
    system = build()
    plain = run_pass(system, ranges, origins, checks)
    plain_counters = counter_values(system.metrics)
    system = None
    system = build()
    tracer = Tracer()
    traced = run_pass(system, ranges, origins, checks, tracer)
    compare_runs(checks, plain["digests"], traced["digests"],
                 plain_counters, counter_values(system.metrics))
    final_checks(system, traced, checks)
    values = span_metrics(tracer, half)
    stores = values["storage.store.calls_per_q"] * half
    matches = values["rpc.peer.match.calls_per_q"] * half
    values.update({
        "chord.hops_per_q": traced["hops"],
        "rpc.peer.match.useful_ratio": traced["outcomes"].useful_matches / max(1, matches),
        "storage.store.new_ratio": traced["outcomes"].new_stores / max(1, stores),
        "storage.entries_end": float(system.total_placements()),
        "sim.network.timeouts_per_q": traced["timeouts"],
        "sim.network.retries_per_q": traced["retries"],
        "sim.network.failovers_per_q": traced["failovers"],
        "sim.repair.copies_created": 0.0,
        "rpc.wire.connections_per_q": 0.0,
        "rpc.client.cpu_ms_per_q": traced["cpu_ms"],
        "rpc.server.requests_per_q": (matches + stores) / half,
        "trace.overhead_pct": 100.0 * (1.0 - traced["throughput"] / plain["throughput"]),
    })
    return {"metrics": values, "checks": checks, "attempted": 2 * half,
            "failed": 0, "tracer": tracer, "notes": []}
