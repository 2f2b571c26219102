"""Tests for the observability layer: metrics registry + query tracing."""

from __future__ import annotations

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem, SystemCounters
from repro.metrics.latency import LatencyCollector, phase_percentiles
from repro.net.transport import TrafficStats
from repro.obs import (
    NULL_TRACE,
    Counter,
    HistogramMetric,
    LabeledCounterDict,
    MetricsRegistry,
    QueryTrace,
    Span,
)
from repro.ranges.interval import IntRange
from repro.sim.query import AsyncQueryEngine


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("queries")
        second = registry.counter("queries")
        assert first is second
        first.inc()
        assert second.total() == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_labeled_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("messages")
        counter.inc(2, kind="match")
        counter.inc(3, kind="store")
        counter.inc(kind="match")
        assert counter.get(kind="match") == 3
        assert counter.get(kind="store") == 3
        assert counter.total() == 6

    def test_histogram_observe(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms")
        for value in (1.0, 5.0, 50.0):
            hist.observe(value, phase="route")
        assert hist.count(phase="route") == 3
        assert hist.mean(phase="route") == pytest.approx(56.0 / 3)

    def test_snapshot_and_json_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(4)
        registry.counter("b").inc(1, peer=9)
        registry.histogram("h").observe(3.0)
        parsed = json.loads(registry.to_json())
        names = {m["name"] for m in parsed["metrics"]}
        assert names == {"a", "b", "h"}
        lines = registry.to_jsonl().strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["name"] for line in lines)

    def test_report_renders_all_sections(self):
        registry = MetricsRegistry()
        registry.counter("scalar").inc(2)
        registry.counter("labeled").inc(kind="x")
        registry.histogram("hist").observe(1.0)
        report = registry.report("Title")
        assert "Title" in report
        assert "scalar" in report
        assert "labeled{kind=x}" in report
        assert "hist" in report

    def test_reset_clears_values_keeps_metrics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.reset()
        assert "c" in registry
        assert registry.counter("c").total() == 0


class TestLabeledCounterDict:
    def test_behaves_like_defaultdict_int(self):
        registry = MetricsRegistry()
        backing = registry.counter("by_kind")
        mapping = LabeledCounterDict(backing, "kind")
        assert mapping == {}
        mapping["match"] += 1
        mapping["match"] += 2
        assert mapping["match"] == 3
        assert mapping == {"match": 3}
        assert backing.get(kind="match") == 3


class TestRegistryBackedFacades:
    def test_traffic_stats_publishes_to_registry(self):
        registry = MetricsRegistry()
        stats = TrafficStats(registry=registry)
        stats.messages += 2
        stats.by_kind["match-request"] += 1
        assert registry.counter("net.messages").total() == 2
        assert registry.counter("net.messages_by_kind").get(
            kind="match-request"
        ) == 1

    def test_system_counters_share_system_registry(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=3))
        system.query(IntRange(10, 30))
        assert system.metrics.counter("system.queries").total() == 1
        assert (
            system.metrics.counter("net.messages").total()
            == system.network.stats.messages
        )

    def test_standalone_counters_get_private_registry(self):
        a = SystemCounters()
        b = SystemCounters()
        a.queries += 1
        assert a.queries == 1
        assert b.queries == 0


class TestSpanAndTrace:
    def test_span_tree_and_events(self):
        trace = QueryTrace(query="[1, 2]")
        with trace.span("hash") as hash_span:
            hash_span.event("group", group=0, identifier=42)
        chain = trace.span("locate").span("chain", identifier=42)
        chain.event("route-hop", source=1, target=2, via="finger[3]")
        chain.end(owner=2)
        trace.end(matched=None)
        assert trace.ended
        assert len(trace.find("chain")) == 1
        assert chain.events_named("route-hop")[0].attrs["via"] == "finger[3]"
        assert chain.attrs["owner"] == 2

    def test_default_clock_is_monotonic_steps(self):
        trace = QueryTrace()
        first = trace.event("a")
        second = trace.event("b")
        assert second.at_ms > first.at_ms

    def test_end_is_idempotent(self):
        span = Span("s", clock=lambda: 5.0)
        span.end(x=1)
        end_ms = span.end_ms
        span.end(y=2)
        assert span.end_ms == end_ms
        assert span.attrs == {"x": 1, "y": 2}

    def test_null_trace_is_inert(self):
        assert not NULL_TRACE
        assert NULL_TRACE.span("anything") is NULL_TRACE
        assert NULL_TRACE.event("anything") is None
        with NULL_TRACE.span("ctx") as span:
            span.event("inside")

    def test_to_json_serializes(self):
        trace = QueryTrace()
        trace.span("hash").end()
        trace.end()
        parsed = json.loads(trace.to_json())
        assert parsed["name"] == "query"
        assert parsed["spans"][0]["name"] == "hash"


class TestSyncPathTracing:
    def test_full_lifecycle_recorded(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=32, seed=7, l=4, k=4)
        )
        system.query(IntRange(10, 40))  # seed one partition
        trace = system.start_trace(IntRange(12, 38))
        result = system.query(IntRange(12, 38), trace=trace)
        assert trace.ended
        chains = trace.find("chain")
        assert len(chains) == system.config.l
        # Every chain records its route hop by hop with the routing edge.
        hops = sum(len(c.events_named("route-hop")) for c in chains)
        assert hops == result.overlay_hops
        for chain in chains:
            for event in chain.events_named("route-hop"):
                assert event.attrs["via"].startswith(("finger[", "successor"))
        # Every chain was answered and scored.
        assert all(len(c.events_named("match-reply")) == 1 for c in chains)
        # Hash span carries one group event per identifier.
        hash_span = trace.find("hash")[0]
        assert len(hash_span.events_named("group")) == system.config.l
        # Store-on-miss fan-out was traced.
        if result.stored:
            store = trace.find("store")[0]
            assert len(store.events_named("placement")) >= system.config.l
        assert trace.root.attrs["exact"] == result.exact
        json.loads(trace.to_json())

    def test_failover_recorded(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=24, seed=5, replicas=2)
        )
        system.query(IntRange(10, 30))
        locate = system.locate(IntRange(10, 30))
        # Crash every answering owner, forcing failover on the next query.
        for owner in set(locate.owners):
            system.crash_peer(owner)
        trace = system.start_trace(IntRange(10, 30))
        system.query(IntRange(10, 30), trace=trace)
        events = [
            event
            for chain in trace.find("chain")
            for event in chain.events_named("failover")
        ]
        assert events, "expected at least one traced failover step"

    def test_untraced_query_unchanged(self):
        seed_cfg = SystemConfig(n_peers=24, seed=9)
        plain = RangeSelectionSystem(seed_cfg)
        traced = RangeSelectionSystem(seed_cfg)
        first = plain.query(IntRange(5, 25))
        trace = traced.start_trace(IntRange(5, 25))
        second = traced.query(IntRange(5, 25), trace=trace)
        assert first == second
        assert plain.network.stats.messages == traced.network.stats.messages
        assert plain.network.stats.latency_ms == pytest.approx(
            traced.network.stats.latency_ms
        )


class TestEventDrivenTracing:
    def test_full_lifecycle_recorded(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=32, seed=7))
        system.query(IntRange(10, 40))
        engine = AsyncQueryEngine(system, fetch_rows=True)
        trace = engine.start_trace(IntRange(12, 38))
        result = engine.run(IntRange(12, 38), trace=trace)
        assert trace.ended
        chains = trace.find("chain")
        assert len(chains) == system.config.l
        hops = sum(len(c.events_named("route-hop")) for c in chains)
        assert hops == sum(c.hops for c in result.chains)
        # The async transport's lifecycle shows up as net-* events.
        sends = [
            event
            for chain in chains
            for event in chain.events
            if event.name == "net-send"
        ]
        assert len(sends) >= len(chains)
        replies = [
            event
            for chain in chains
            for event in chain.events
            if event.name == "net-reply"
        ]
        assert replies and all(e.attrs["ms"] >= 0 for e in replies)
        if result.found:
            assert len(trace.find("fetch")) == 1
        if result.stored:
            store = trace.find("store")[0]
            assert len(store.events_named("placement")) >= system.config.l
        # Trace timestamps ride the virtual clock.
        assert trace.root.end_ms == pytest.approx(engine.sim.now)
        json.loads(trace.to_json())

    def test_timeout_and_retry_events(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=11))
        system.query(IntRange(10, 30))
        engine = AsyncQueryEngine(system)
        locate = system.locate(IntRange(10, 30))
        for owner in set(locate.owners):
            engine.crash_peer(owner)
        trace = engine.start_trace(IntRange(10, 30))
        result = engine.run(IntRange(10, 30), trace=trace)
        assert result.timeouts > 0
        timeouts = [
            event
            for chain in trace.find("chain")
            for event in chain.events
            if event.name == "net-timeout"
        ]
        assert timeouts and all(e.attrs["waited_ms"] > 0 for e in timeouts)

    def test_engine_stats_reach_system_registry(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=2))
        engine = AsyncQueryEngine(system)
        engine.run(IntRange(5, 15))
        assert (
            system.metrics.counter("sim.net.messages").total()
            == engine.net.stats.messages
        )


class TestLatencyCollectorRegistry:
    def test_phase_percentiles_empty_is_zero_row(self):
        summary = phase_percentiles([])
        assert summary.count == 0
        assert summary.p99 == 0.0

    def test_empty_collector_report_renders(self):
        collector = LatencyCollector()
        summary = collector.phase_summary()
        assert summary["total"].count == 0
        assert "total" in collector.report()

    def test_collector_feeds_histogram(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=4))
        system.query(IntRange(5, 25))
        engine = AsyncQueryEngine(system)
        collector = LatencyCollector(registry=system.metrics)
        collector.add(engine.run(IntRange(5, 25)))
        hist = system.metrics.get("latency.phase_ms")
        assert hist.count(phase="total") == 1


class TestTimeSeriesMetric:
    def test_append_points_last_values(self):
        registry = MetricsRegistry()
        series = registry.timeseries("ts")
        series.append(0.0, 1.0, node=3)
        series.append(500.0, 2.0, node=3)
        series.append(0.0, 9.0, node=4)
        assert series.points(node=3) == [(0.0, 1.0), (500.0, 2.0)]
        assert series.last(node=3) == (500.0, 2.0)
        assert series.values(node=3) == [1.0, 2.0]
        assert series.points(node=99) == []
        assert series.last(node=99) is None
        assert len(series) == 2

    def test_capacity_evicts_oldest(self):
        registry = MetricsRegistry()
        series = registry.timeseries("ts", capacity=3)
        for t in range(5):
            series.append(float(t), float(t * 10))
        assert series.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]

    def test_invalid_capacity_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.timeseries("ts", capacity=0)

    def test_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        first = registry.timeseries("ts")
        assert registry.timeseries("ts") is first
        with pytest.raises(ValueError):
            registry.counter("ts")
        # A gauge is a Counter subclass; only the kind tells them apart.
        counter = registry.counter("c")
        assert registry.counter("c") is counter
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            registry.gauge("c")
        gauge = registry.gauge("g")
        with pytest.raises(ValueError, match="is a gauge, not a counter"):
            registry.counter("g")
        histogram = registry.histogram("h")
        assert registry.histogram("h") is histogram
        with pytest.raises(ValueError):
            registry.gauge("h")
        assert registry.gauge("g") is gauge

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        series = registry.timeseries("ts", capacity=8)
        series.append(1.0, 2.0, node=1)
        doc = series.snapshot()
        assert doc["kind"] == "timeseries"
        assert doc["capacity"] == 8
        assert doc["series"] == [{"labels": {"node": 1}, "points": [[1.0, 2.0]]}]


class TestRegistryJsonRoundTrip:
    """snapshot() -> to_json() -> parse must reproduce snapshot() exactly."""

    def test_mixed_label_orders_address_one_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(1, a=1, b=2)
        counter.inc(2, b=2, a=1)  # same series, different kwarg order
        assert counter.get(a=1, b=2) == 3
        parsed = json.loads(registry.to_json())
        series = parsed["metrics"][0]["series"]
        assert len(series) == 1
        assert series[0]["value"] == 3

    def test_full_roundtrip_equals_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4, peer=7)
        registry.counter("c").inc(1, peer=9)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(3.0, phase="route")
        registry.timeseries("ts").append(0.0, 1.0, node=1)
        assert json.loads(registry.to_json()) == registry.snapshot()
        lines = registry.to_jsonl().strip().splitlines()
        assert [json.loads(line) for line in lines] == registry.snapshot()[
            "metrics"
        ]

    def test_empty_registry_roundtrip(self):
        registry = MetricsRegistry()
        assert json.loads(registry.to_json()) == {"metrics": []}
        assert registry.to_jsonl() == ""

    def test_cleared_metric_keeps_name_drops_series(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5, peer=1)
        registry.counter("c").clear()
        parsed = json.loads(registry.to_json())
        assert parsed["metrics"] == [
            {"name": "c", "kind": "counter", "help": "", "series": []}
        ]
