"""``sim-zipf-churn-10k``: the discrete-event simulator under churn.

``AsyncQueryEngine.run_open_loop`` issues Zipf-skewed ranges (mostly
exact hits) to a 10,000-peer ring with ``r = 3``, one query every 2 ms of
virtual time, so hundreds are in flight.  5% of the peers crash in two
seeded waves and half of them recover; a ``ReplicaRepairer`` runs
throughout.  Faults land between open-loop phases, when nothing is in
flight, so every origin the engine picks for itself must be alive.
"""

from __future__ import annotations

import math
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
)
from pace import Pace
from layers import SIM, Outcomes, install, span_metrics
from tracer import Tracer

from repro.core.system import RangeSelectionSystem
from repro.sim.query import AsyncQueryEngine
from repro.sim.repair import ReplicaRepairer
from repro.workloads.generators import ZipfRangeWorkload

NAME = SIM
PEERS = 10_000
REPLICAS = 3
INTERVAL_MS = 2.0
REPAIR_INTERVAL_MS = 500.0
CRASH_SHARE = 0.05
QUERIES_PER_SECOND = 90
WARMUP = 100
#: Virtual interval of the timer that offers a speed probe, and the wall
#: time that must pass between two probes.
PROBE_TICK_MS = 10.0
PROBE_EVERY_S = 0.25
#: Elasticity of this workload's speed to the probe's (see pace.py): the
#: slope of log raw throughput on log probe slowness over 20 runs on a
#: shared 2-core host whose speed moved by up to 2x between them was 0.62.
ELASTICITY = 0.6


def make_inputs(seed: int, count: int) -> dict:
    """Ranges, crash victims (peer indices) and the fault schedule.

    Fault times are query indices: wave one crashes after a seeded index
    near 25% of the timed queries, wave two near 50%, and half of the
    victims recover near 75%.
    """
    config = paper_config(PEERS, REPLICAS)
    ranges = ZipfRangeWorkload(config.domain, WARMUP + count, seed).ranges()
    rng = np.random.default_rng([seed, 2])
    victims = [int(i) for i in rng.choice(PEERS, round(PEERS * CRASH_SHARE), replace=False)]
    half = len(victims) // 2
    recover = [int(i) for i in rng.choice(victims, half, replace=False)]
    cuts = [int(count * (centre + rng.uniform(-0.05, 0.05))) for centre in (0.25, 0.5, 0.75)]
    return {
        "ranges": ranges,
        "waves": [victims[:half], victims[half:]],
        "recover": recover,
        "cuts": cuts,
    }


def build() -> tuple[AsyncQueryEngine, ReplicaRepairer]:
    system = RangeSelectionSystem(paper_config(PEERS, REPLICAS))
    engine = AsyncQueryEngine(system)
    return engine, ReplicaRepairer(engine, interval_ms=REPAIR_INTERVAL_MS)


def run_pass(built, inputs, checks: Checks, tracer: Tracer | None = None) -> dict:
    """Warm up, then run the four timed open-loop phases."""
    engine, repairer = built
    ids = engine.system.router.node_ids
    ranges = inputs["ranges"]
    engine.run_open_loop(ranges[:WARMUP], INTERVAL_MS)
    timed = ranges[WARMUP:]
    a, b, c = inputs["cuts"]
    phases = [
        (timed[:a], inputs["waves"][0], engine.crash_peer),
        (timed[a:b], inputs["waves"][1], engine.crash_peer),
        (timed[b:c], inputs["recover"], engine.recover_peer),
        (timed[c:], [], None),
    ]
    stats = engine.net.stats
    before = (stats.messages, stats.bytes, stats.timeouts, stats.retries,
              stats.failovers, repairer.stats.copies_created)
    outcomes = Outcomes()
    results = []
    repairer.start()
    pace = Pace(ELASTICITY)
    probing = [True]
    ticks = [0]

    def probe_tick() -> None:
        # A timer on the virtual clock offers a probe; one runs when
        # enough wall time passed since the last.  The program never
        # sees these timers, so its behaviour is unchanged.
        if not probing[0]:
            return
        if time.perf_counter() - pace.samples[-1][1] >= PROBE_EVERY_S:
            pace.sample()
        ticks[0] += 1
        engine.sim.call_later(PROBE_TICK_MS, probe_tick)

    if tracer is not None:
        install(tracer, outcomes)
    cpu = time.process_time()
    pace.sample()
    engine.sim.call_later(PROBE_TICK_MS, probe_tick)
    started = time.perf_counter()
    try:
        for queries, victims, fault in phases:
            results += engine.run_open_loop(queries, INTERVAL_MS)
            for victim in victims:
                fault(ids[victim])
    finally:
        ended = time.perf_counter()
        cpu = time.process_time() - cpu - pace.cpu_s
        probing[0] = False
        pace.sample()
        if tracer is not None:
            tracer.uninstall()
        repairer.stop()
    count = len(timed)
    checks.expect(len(results) == count, f"{len(results)} of {count} queries settled")
    failed = 0
    recalls = []
    for index, (query, result) in enumerate(zip(timed, results)):
        recalls.append(check_answer(checks, index, query, result))
        checks.expect(
            math.isfinite(result.total_ms) and result.total_ms >= 0,
            f"query {index} settled with modeled latency {result.total_ms}",
        )
        if all(chain.reply is None for chain in result.chains):
            failed += 1
    after = (stats.messages, stats.bytes, stats.timeouts, stats.retries,
             stats.failovers, repairer.stats.copies_created)
    delta = [(y - x) / count for x, y in zip(before, after)]
    return {
        "failed": failed,
        "digests": [query_digest(r) for r in results],
        "throughput": count / pace.scaled_span(started, ended),
        "raw_throughput": count / pace.raw_span(started, ended),
        "probe_timers": ticks[0] + 1,
        "modeled_ms": [r.total_ms for r in results],
        "msgs": delta[0],
        "bytes": delta[1],
        "timeouts": delta[2],
        "retries": delta[3],
        "failovers": delta[4],
        "copies": delta[5] * count,
        "recall": float(np.mean(recalls)),
        "hops": sum(r.overlay_hops for r in results) / count,
        "cpu_ms": cpu * 1e3 / count,
        "outcomes": outcomes,
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    count = max(40, round(QUERIES_PER_SECOND * seconds))
    if not trace:
        inputs = make_inputs(seed, count)
        setups, raw_setups, built = timed_setups(build, SETUP_REPEATS, ELASTICITY)
        measured = run_pass(built, inputs, checks)
        modeled = measured["modeled_ms"]
        metrics = Metrics()
        metrics.add("setup_s", float(np.median(setups)), "s", len(setups),
                    float(np.median(raw_setups)))
        metrics.add("throughput_qps", measured["throughput"], "1/s", count,
                    measured["raw_throughput"])
        metrics.add("latency_p50_ms", percentile(modeled, 50), "ms", count)
        metrics.add("latency_p99_ms", percentile(modeled, 99), "ms", count)
        metrics.add("msgs_per_query", measured["msgs"], "count", count)
        metrics.add("bytes_per_query", measured["bytes"], "B", count)
        metrics.add("recall", measured["recall"], "ratio", count)
        metrics.add("peak_rss_mb", peak_rss_mb(), "MiB", None)
        return {"metrics": metrics, "checks": checks, "attempted": count,
                "failed": measured["failed"],
                "notes": ["latency_* on this workload is the modeled virtual "
                          "time (total_ms), not wall time"]}

    half = max(40, count // 2)
    inputs = make_inputs(seed, half)
    built = build()
    plain = run_pass(built, inputs, checks)
    plain_counters = counter_values(built[0].system.metrics)
    built = None
    built = build()
    tracer = Tracer()
    traced = run_pass(built, inputs, checks, tracer)
    system = built[0].system
    compare_runs(checks, plain["digests"], traced["digests"],
                 plain_counters, counter_values(system.metrics))
    # The probe timers are the benchmark's, not the program's events.
    tracer.counts["sim.kernel.events"] -= traced["probe_timers"]
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
        "sim.repair.copies_created": traced["copies"],
        "rpc.wire.connections_per_q": 0.0,
        "rpc.client.cpu_ms_per_q": traced["cpu_ms"],
        "rpc.server.requests_per_q": (matches + stores) / half,
        "trace.overhead_pct": 100.0 * (1.0 - traced["throughput"] / plain["throughput"]),
    })
    return {"metrics": values, "checks": checks, "attempted": 2 * half,
            "failed": plain["failed"] + traced["failed"], "tracer": tracer,
            "notes": []}
