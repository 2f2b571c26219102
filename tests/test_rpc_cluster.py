"""Live-cluster drills: real processes, real sockets, real SIGKILL.

Two module-scoped clusters:

- the **client-driven drill** (five peers, SWIM and server repair off)
  preserves the original contract — failures are survived by lookup
  failover and repaired only when a client asks;
- the **self-healing drill** (eight peers, SWIM and server repair on)
  exercises the ring's own immune system: a SIGKILL'd replica holder is
  detected, evicted from every member map, and re-replicated with the
  client idle; a SIGSTOP'd peer is suspected, refutes on SIGCONT, and
  rejoins without losing a single entry.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.config import SystemConfig
from repro.errors import ReproError
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.rpc.cluster import LocalCluster

PEERS = 5
QUERIES = [
    IntRange(100, 200),
    IntRange(250, 420),
    IntRange(500, 640),
    IntRange(700, 910),
]


def make_config() -> SystemConfig:
    return SystemConfig(n_peers=PEERS, replicas=3, seed=7)


def mean_recall(client) -> float:
    results = [client.query(query) for query in QUERIES]
    return sum(result.recall for result in results) / len(results)


def pick_kill_victim(client) -> str:
    """A peer that replicates — but does not own — the first query's
    first identifier, and is not the client's bootstrap peer."""
    system = client.system
    ring = system.router.ring
    bootstrap_node = next(
        node_id
        for node_id in ring.node_ids
        if system.endpoints[node_id] == client.bootstrap
    )
    for identifier in system.identifiers_for(QUERIES[0]):
        for replica in system.replica_owners(identifier)[1:]:
            if replica != bootstrap_node:
                return ring.node(replica).address
    raise AssertionError("no non-owner replica to kill")


@pytest.fixture(scope="module")
def drill():
    """Run the whole lifecycle once; tests assert on the observations."""
    observed = {}
    # SWIM and server-side repair stay OFF here: this drill asserts the
    # client-driven behaviour (stale members survive a kill, repair only
    # happens when the client asks), which the self-healing loops would
    # otherwise race.
    with LocalCluster(
        PEERS, make_config(), swim_interval_ms=0.0, repair_interval_ms=0.0
    ) as cluster:
        with cluster.client() as client:
            # Warm: first pass stores (cold misses), second pass must hit.
            for query in QUERIES:
                client.query(query)
            observed["warm_recall"] = mean_recall(client)

            # Abrupt kill of a non-owner replica, mid-workload.
            victim = pick_kill_victim(client)
            cluster.kill(victim)
            observed["kill_victim"] = victim
            observed["kill_recall"] = mean_recall(client)
            observed["failovers"] = client.system.counters.failovers
            observed["failed_lookups"] = client.system.counters.failed_lookups

            # Anti-entropy repair restores the replication factor.
            observed["repair_copies"] = client.repair()

            # Graceful leave of another peer: hand-off, then exit.
            leaver = next(
                address
                for address in cluster.endpoints
                if cluster.alive(address)
                and cluster.endpoints[address] != client.bootstrap
            )
            observed["leave_moved"] = client.leave(leaver)
            cluster.processes[leaver].wait(timeout=10)
            observed["leaver"] = leaver
            observed["leaver_alive"] = cluster.alive(leaver)
            observed["members_after_leave"] = len(client.members)
            observed["leave_recall"] = mean_recall(client)
    return observed


def test_warm_queries_all_hit(drill):
    assert drill["warm_recall"] == pytest.approx(1.0)


def test_recall_survives_abrupt_kill(drill):
    assert drill["kill_recall"] >= drill["warm_recall"] - 1e-9
    assert drill["failovers"] > 0, "the kill was never failed over"
    assert drill["failed_lookups"] == 0


def test_repair_recreates_lost_copies(drill):
    assert drill["repair_copies"] > 0


def test_graceful_leave_hands_off_and_exits(drill):
    assert drill["leave_moved"] > 0
    assert not drill["leaver_alive"]
    # Only a graceful leave removes itself from the member map; with SWIM
    # off the SIGKILLed peer stays as a stale entry that lookups route
    # around.
    assert drill["members_after_leave"] == PEERS - 1
    assert drill["leave_recall"] == pytest.approx(1.0)


# -- distributed tracing drill: SIGKILL the owner mid-trace ------------------


def walk_span_docs(doc: dict):
    yield doc
    for child in doc.get("spans") or []:
        yield from walk_span_docs(child)


def event_names(span_doc: dict) -> set[str]:
    return {event.get("name") for event in span_doc.get("events") or []}


@pytest.fixture(scope="module")
def traced():
    """Distributed traces around an abrupt owner kill, client-driven.

    SWIM stays off so the membership mirror goes stale: the traced query
    after the kill *must* walk into the dead owner, eat the unreachable
    attempt, fail over down the successor list, and get its answer (and
    its server-side span) from a replica — all of which has to show up
    in one stitched tree.
    """
    observed = {}
    with LocalCluster(
        PEERS, make_config(), swim_interval_ms=0.0, repair_interval_ms=0.0
    ) as cluster:
        with cluster.client() as client:
            for query in QUERIES:
                client.query(query)

            # Healthy baseline: every server span stitches, no orphans.
            result, trace, report = client.query_traced(QUERIES[0])
            observed["healthy_recall"] = result.recall
            observed["healthy_doc"] = trace.to_dict()
            observed["healthy_attached"] = report.attached
            observed["healthy_nodes"] = set(report.nodes)
            observed["healthy_orphans"] = report.orphans

            # Kill the *owner* (rank 0) of one of the traced query's
            # identifiers — not the bootstrap, which the client needs.
            system = client.system
            ring = system.router.ring
            bootstrap_node = next(
                node_id
                for node_id in ring.node_ids
                if system.endpoints[node_id] == client.bootstrap
            )
            victim = next(
                ring.node(owner).address
                for identifier in system.identifiers_for(QUERIES[0])
                for owner in [system.replica_owners(identifier)[0]]
                if owner != bootstrap_node
            )
            cluster.kill(victim)
            observed["victim"] = victim

            result, trace, report = client.query_traced(QUERIES[0])
            observed["kill_recall"] = result.recall
            observed["kill_doc"] = trace.to_dict()
            observed["kill_attached"] = report.attached
            observed["kill_nodes"] = set(report.nodes)
    return observed


def test_healthy_traced_query_stitches_cleanly(traced):
    assert traced["healthy_recall"] == pytest.approx(1.0)
    assert traced["healthy_attached"] > 0
    assert traced["healthy_orphans"] == 0
    # A multi-process trace: client chain spans with remote children.
    chains = [
        span
        for span in walk_span_docs(traced["healthy_doc"])
        if span.get("name") == "chain"
    ]
    assert chains, "no client-side chain spans in the trace"
    remote_children = [
        child
        for chain in chains
        for child in chain.get("spans") or []
        if (child.get("attrs") or {}).get("remote")
    ]
    assert remote_children, "no server span stitched under a chain"


def test_traced_kill_shows_timeout_failover_and_replica_span(traced):
    # The answer still arrived (replica chain absorbed the kill)...
    assert traced["kill_recall"] >= traced["healthy_recall"] - 1e-9
    # ...and the stitched tree tells the whole story across processes:
    # server-side spans from at least two distinct surviving peers...
    assert traced["kill_attached"] > 0
    assert len(traced["kill_nodes"]) >= 2
    assert traced["victim"] not in traced["kill_nodes"]
    # ...including, on the chain that walked into the dead owner: the
    # unreachable attempt (the timeout), the failover edge, and the
    # replica's server-side span.
    failed_over = [
        span
        for span in walk_span_docs(traced["kill_doc"])
        if span.get("name") == "chain"
        and "failover" in event_names(span)
    ]
    assert failed_over, "no chain recorded a failover edge"
    assert any(
        "net-unreachable" in event_names(span) for span in failed_over
    ), "the dead owner's unreachable attempt never hit the trace"
    assert any(
        (child.get("attrs") or {}).get("remote")
        and (child.get("attrs") or {}).get("node") != traced["victim"]
        for span in failed_over
        for child in span.get("spans") or []
    ), "no replica server span stitched under the failed-over chain"


def test_dead_peer_contributes_no_fragments_only_its_absence(traced):
    # Fragment collection skipped the killed peer without erroring; its
    # absence from the node set *is* the observable.
    assert traced["victim"] not in traced["kill_nodes"]
    assert traced["kill_nodes"], "no surviving peer contributed fragments"


# -- self-healing drill: SWIM + server-driven repair -------------------------

HEAL_PEERS = 8
HEAL_REPLICAS = 3
#: Generous per-wave budget: detection needs ~1 failed probe round plus
#: the suspicion timeout (~4 s at the intervals below); CI runners jitter.
WAIT_S = 60.0


def rpc(cluster, address, kind, payload=None, timeout_ms=4000.0):
    """One raw control RPC straight at a peer (no client machinery)."""
    host, port = cluster.endpoints[address]
    return asyncio.run(
        wire.call(host, port, kind, payload, timeout_ms=timeout_ms)
    )


def live_set(cluster) -> set[str]:
    return {
        address
        for address in cluster.endpoints
        if cluster.alive(address) and address not in cluster.paused
    }


def member_mirror(cluster, address) -> set[str]:
    """The member map one peer serves (dead members excluded)."""
    return set(rpc(cluster, address, "hello")["members"])


def converged(cluster) -> bool:
    """Every live peer's member map equals the live process set."""
    live = live_set(cluster)
    for address in live:
        try:
            if member_mirror(cluster, address) != live:
                return False
        except ReproError:
            return False
    return True


def wait_for(predicate, what: str, timeout_s: float = WAIT_S) -> float:
    """Poll until ``predicate()`` holds; returns elapsed milliseconds."""
    started = time.monotonic()
    deadline = started + timeout_s
    while time.monotonic() < deadline:
        try:
            if predicate():
                return (time.monotonic() - started) * 1000.0
        except ReproError:
            pass  # a peer is mid-transition; poll again
        time.sleep(0.1)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


def replication_met(cluster, replicas: int) -> bool:
    """Every stored identifier has >= min(r, live) copies on live peers."""
    live = live_set(cluster)
    copies: dict[int, int] = {}
    for address in live:
        for entry in rpc(cluster, address, "entries"):
            identifier = entry[0]
            copies[identifier] = copies.get(identifier, 0) + 1
    if not copies:
        return False
    wanted = min(replicas, len(live))
    return all(count >= wanted for count in copies.values())


def metric_points(snapshot: dict, name: str) -> list[dict]:
    for metric in snapshot.get("metrics", []):
        if metric.get("name") == name:
            return metric.get("series", [])
    return []


def counter_total(cluster, name: str, exclude: frozenset = frozenset()) -> float:
    """Sum one counter across every live peer's metrics snapshot, leaving
    out the peers in ``exclude``."""
    total = 0.0
    for address in live_set(cluster) - exclude:
        snapshot = rpc(cluster, address, "metrics")
        for point in metric_points(snapshot, name):
            total += point.get("value", 0.0)
    return total


def histogram_stats(cluster, name: str) -> tuple[int, float]:
    """(total count, max) of one histogram across live peers."""
    count, peak = 0, 0.0
    for address in live_set(cluster):
        snapshot = rpc(cluster, address, "metrics")
        for point in metric_points(snapshot, name):
            count += int(point.get("count", 0))
            peak = max(peak, float(point.get("max", 0.0)))
    return count, peak


@pytest.fixture(scope="module")
def healing():
    """Kill + pause waves against a self-healing cluster; client idle."""
    observed = {}
    config = SystemConfig(n_peers=HEAL_PEERS, replicas=HEAL_REPLICAS, seed=11)
    with LocalCluster(
        HEAL_PEERS,
        config,
        swim_interval_ms=250.0,
        suspect_timeout_ms=2500.0,
        repair_interval_ms=400.0,
    ) as cluster:
        with cluster.client() as client:
            bootstrap = next(
                address
                for address, endpoint in cluster.endpoints.items()
                if endpoint == client.bootstrap
            )
            # Warm the ring, then let replication settle.
            for query in QUERIES:
                client.query(query)
            observed["warm_recall"] = mean_recall(client)
            wait_for(
                lambda: replication_met(cluster, HEAL_REPLICAS),
                "warm replication",
            )

            # --- kill wave: SIGKILL a replica-holding non-bootstrap peer.
            victim = next(
                address
                for address in sorted(live_set(cluster))
                if address != bootstrap and rpc(cluster, address, "entries")
            )
            observed["victim_entries"] = len(rpc(cluster, victim, "entries"))
            cluster.kill(victim)
            # The client stays idle: no queries, no client.repair().  The
            # polls below are read-only monitoring (hello/entries/metrics).
            observed["detect_ms"] = wait_for(
                lambda: converged(cluster),
                "the ring to evict the killed peer from every member map",
            )
            observed["repair_ms"] = observed["detect_ms"] + wait_for(
                lambda: replication_met(cluster, HEAL_REPLICAS),
                "server-driven re-replication",
            )
            observed["swim_dead"] = counter_total(cluster, "swim.dead")
            observed["swim_evicted"] = counter_total(cluster, "swim.evicted")
            observed["repair_copies"] = counter_total(
                cluster, "repair.push.copies"
            )
            observed["detect_hist"] = histogram_stats(cluster, "swim.detect_ms")
            client.refresh()
            observed["members_after_kill"] = len(client.members)
            observed["kill_recall"] = mean_recall(client)

            # --- pause wave: SIGSTOP -> suspected -> SIGCONT -> refuted.
            target = next(
                address
                for address in sorted(live_set(cluster))
                if address != bootstrap and rpc(cluster, address, "entries")
            )
            entries_before = sorted(
                entry[0] for entry in rpc(cluster, target, "entries")
            )
            # The paused peer drops out of the live set, so every total
            # here leaves it out: its own earlier suspicions (from the
            # kill wave) would otherwise vanish from the sum and cancel
            # the new one.
            paused = frozenset({target})
            suspected_before = counter_total(
                cluster, "swim.suspected", exclude=paused
            )
            cluster.pause(target)
            wait_for(
                lambda: counter_total(cluster, "swim.suspected", exclude=paused)
                > suspected_before,
                "some peer to suspect the paused peer",
            )
            cluster.resume(target)
            wait_for(
                lambda: converged(cluster),
                "the resumed peer to refute and rejoin every member map",
            )
            observed["pause_suspected"] = (
                counter_total(cluster, "swim.suspected", exclude=paused)
                - suspected_before
            )
            entries_after = sorted(
                entry[0] for entry in rpc(cluster, target, "entries")
            )
            observed["pause_entries_kept"] = entries_after == entries_before
            observed["pause_entries_before"] = len(entries_before)
            client.refresh()
            observed["members_after_pause"] = len(client.members)
            observed["pause_recall"] = mean_recall(client)
    return observed


def test_killed_peer_is_detected_and_evicted_by_the_ring(healing):
    # Detection happened on the server side, with the client idle.
    assert healing["swim_dead"] > 0, "no peer confirmed the death"
    assert healing["swim_evicted"] > 0, "no peer merged the eviction"
    assert healing["members_after_kill"] == HEAL_PEERS - 1
    # Latency telemetry was recorded by the cluster's own histograms.
    detect_count, detect_max = healing["detect_hist"]
    assert detect_count >= 1
    assert detect_max > 0
    assert healing["detect_ms"] > 0


def test_lost_copies_are_re_replicated_without_a_client(healing):
    assert healing["victim_entries"] > 0, "victim held nothing to lose"
    assert healing["repair_copies"] > 0, "server repair pushed no copies"
    assert healing["repair_ms"] >= healing["detect_ms"]
    assert healing["kill_recall"] >= healing["warm_recall"] - 1e-9


def test_paused_peer_is_suspected_then_rejoins_with_entries(healing):
    assert healing["pause_suspected"] > 0, "SIGSTOP never raised suspicion"
    assert healing["pause_entries_before"] > 0
    assert healing["pause_entries_kept"], "entries lost across SIGSTOP"
    assert healing["members_after_pause"] == HEAL_PEERS - 1
    assert healing["pause_recall"] >= healing["warm_recall"] - 1e-9
