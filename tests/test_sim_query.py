"""Tests for the event-driven query path."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.net.latency import ConstantLatency, SeededLatency
from repro.ranges.interval import IntRange
from repro.sim import AsyncQueryEngine, RetryPolicy
from repro.util.rng import derive_rng


def make_engine(n_peers: int = 60, seed: int = 7, **kwargs) -> AsyncQueryEngine:
    system = RangeSelectionSystem(SystemConfig(n_peers=n_peers, seed=seed))
    kwargs.setdefault("latency", SeededLatency(10.0, 100.0, seed=seed))
    return AsyncQueryEngine(system, seed=seed, **kwargs)


class TestQuerySemantics:
    def test_matches_agree_with_synchronous_path(self):
        """Fault-free async queries find the same partitions as sync ones."""
        seed = 11
        sync_system = RangeSelectionSystem(SystemConfig(n_peers=60, seed=seed))
        engine = make_engine(n_peers=60, seed=seed)
        queries = [IntRange(30, 50), IntRange(30, 49), IntRange(200, 420), IntRange(210, 400)]
        for query in queries:
            sync_result = sync_system.query(query, origin=sync_system.router.node_ids[0])
            async_result = engine.run(query, origin=engine.system.router.node_ids[0])
            assert async_result.matched == sync_result.matched
            assert async_result.similarity == pytest.approx(sync_result.similarity)
            assert async_result.exact == sync_result.exact

    def test_store_on_miss_places_partitions(self):
        engine = make_engine()
        cold = engine.run(IntRange(100, 200))
        assert cold.matched is None and cold.stored
        assert engine.system.total_placements() > 0
        warm = engine.run(IntRange(100, 199))
        assert warm.found
        assert warm.recall > 0.9

    def test_phase_timings_partition_the_total(self):
        engine = make_engine()
        engine.run(IntRange(100, 200))
        result = engine.run(IntRange(100, 199))
        assert result.route_ms > 0
        assert result.match_ms > 0
        assert result.locate_ms == pytest.approx(result.route_ms + result.match_ms)
        assert result.total_ms == pytest.approx(
            result.locate_ms + result.fetch_ms + result.store_ms
        )

    def test_seeded_runs_are_identical(self):
        results_a = [
            (r.total_ms, r.matched)
            for r in (make_engine(seed=5).run(q) for q in [IntRange(10, 90), IntRange(12, 88)])
        ]
        results_b = [
            (r.total_ms, r.matched)
            for r in (make_engine(seed=5).run(q) for q in [IntRange(10, 90), IntRange(12, 88)])
        ]
        assert results_a == results_b

    def test_fetch_rows_round_trip(self):
        engine = make_engine(fetch_rows=True)
        engine.run(IntRange(100, 200))
        result = engine.run(IntRange(100, 199))
        assert result.found
        # Simulation-mode partitions are placeholders (None); the fetch
        # phase still costs a round trip.
        assert result.fetch_ms > 0


class TestAcceptance:
    """The ISSUE's acceptance scenario, verbatim: a 1,000-peer ring."""

    @pytest.fixture(scope="class")
    def engine(self) -> AsyncQueryEngine:
        system = RangeSelectionSystem(SystemConfig(n_peers=1000, seed=2003))
        return AsyncQueryEngine(
            system,
            latency=SeededLatency(10.0, 100.0, seed=2003),
            policy=RetryPolicy(timeout_ms=400.0, max_retries=1),
            seed=2003,
        )

    def test_completion_is_max_not_sum_of_chains(self, engine):
        engine.run(IntRange(300, 500))  # populate
        result = engine.run(IntRange(300, 499))
        chain_times = [chain.completed_ms for chain in result.chains]
        assert len(chain_times) == engine.system.config.l
        assert result.locate_ms == max(chain_times)
        assert result.locate_ms < 0.5 * sum(chain_times)

    def test_crashed_owner_degrades_not_fails(self, engine):
        engine.run(IntRange(600, 800))  # populate
        probe = engine.run(IntRange(600, 799))
        assert probe.found and not probe.degraded
        victim = probe.chains[0].owner
        engine.crash_peer(victim)
        timeouts_before = engine.net.stats.timeouts
        result = engine.run(IntRange(600, 799))
        # Still answered, from the surviving l-1 (or fewer) replies...
        assert result.found
        assert result.recall > 0
        surviving = [c for c in result.chains if not c.timed_out]
        assert all(c.owner != victim for c in surviving)
        # ...while the dead owner's chains are reported as timeouts.
        assert result.timeouts >= 1
        assert result.degraded
        assert engine.net.stats.timeouts > timeouts_before
        engine.recover_peer(victim)

    def test_crashed_peer_never_originates(self, engine):
        victim = engine.system.router.node_ids[0]
        engine.crash_peer(victim)
        for _ in range(20):
            assert engine.pick_origin() != victim
        engine.recover_peer(victim)


class TestAliveOriginCache:
    """``pick_origin`` caches the alive list; every membership or liveness
    change must rebuild it, so the engine keeps drawing exactly the origins
    of a fresh list comprehension over the ring."""

    SEED = 13

    def test_picks_match_reference_across_churn(self):
        engine = make_engine(n_peers=40, seed=self.SEED)
        system, net = engine.system, engine.net
        reference_rng = derive_rng(self.SEED, "sim/origins")

        def reference_pick() -> int:
            alive = [nid for nid in system.router.node_ids if net.is_alive(nid)]
            return alive[int(reference_rng.integers(len(alive)))]

        def check(picks: int = 50, excluded: tuple[int, ...] = ()) -> set[int]:
            seen = set()
            for _ in range(picks):
                origin = engine.pick_origin()
                assert origin == reference_pick()
                assert net.is_alive(origin)
                assert origin not in excluded
                seen.add(origin)
            return seen

        ids = system.router.node_ids
        check()
        engine.crash_peer(ids[5])
        check(excluded=(ids[5],))
        engine.recover_peer(ids[5])
        check()

        # A crash scheduled on the sim clock bypasses AsyncNetwork and
        # fires while an open loop is in flight.
        net.faults.schedule_crash(engine.sim, ids[9], at_ms=engine.sim.now + 7.0)
        queries = [IntRange(100 + 10 * i, 180 + 10 * i) for i in range(10)]
        for _ in queries:  # the loop pre-draws one origin per query
            reference_pick()
        engine.run_open_loop(queries, interval_ms=2.0)
        assert net.faults.is_crashed(ids[9])
        check(excluded=(ids[9],))

        # A join changes the ring first; the peer counts once registered.
        node = system.join_peer("late-joiner")
        check(excluded=(node.node_id,))
        net.register(node.node_id, system.peer_handler(node.node_id))
        assert node.node_id in check(picks=200)

        # A leave changes the ring while the engine's network still has
        # the peer registered; unregistering changes only the network.
        system.leave_peer(ids[20])
        check(excluded=(ids[20],))
        net.unregister(ids[30])
        check(excluded=(ids[20], ids[30]))


class TestDeterministicTiming:
    def test_constant_latency_gives_exact_round_trips(self):
        """With unit latency, chain time = hops + request round trip."""
        engine = make_engine(latency=ConstantLatency(1.0))
        result = engine.run(IntRange(100, 200))
        for chain in result.chains:
            assert chain.route_ms == pytest.approx(chain.hops * 1.0)
            assert chain.completed_ms == pytest.approx(chain.route_ms + 2.0)
