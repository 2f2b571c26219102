"""The socket side of the query engine: transport, topology view, client.

Three pieces turn the transport-agnostic
:class:`~repro.rpc.engine.QueryEngine` into a real network client:

- :class:`SocketTransport` — the third :class:`~repro.rpc.transports.Transport`.
  ``request()`` sends over a pooled asyncio TCP connection to the
  recipient (kept open across requests) and settles a
  :class:`~repro.sim.futures.SimFuture` when the reply frame lands, so the
  ``l`` lookup chains of one query run concurrently over real
  connections.  Routing hops stay *virtual*: the client mirrors the
  full ring, so the owner of an identifier is a local computation, and
  each traversed finger edge is charged to the traffic stats without a
  network round trip (the classic client-mode DHT shortcut).
- :class:`ClientSystem` — the engine's topology contract (hashing,
  placement, replica sets) rebuilt from a membership map instead of local
  peer stores.  Node ids are SHA-1 of peer addresses, so the client
  places identifiers exactly like every server's mirror.
- :class:`ClusterClient` — connects to any live peer, mirrors membership
  and config from its ``hello`` reply, and exposes ``query`` / ``leave``
  / ``repair`` over the cluster.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Callable

from repro.chord.hashing import node_id_for_address, rehash_for_placement
from repro.chord.ring import ChordRing
from repro.core.config import SystemConfig
from repro.core.overlays import ChordRouter
from repro.core.system import SIM_ATTRIBUTE, SIM_RELATION, SystemCounters
from repro.errors import (
    OpenCircuitError,
    PeerUnavailableError,
    ReproError,
    RequestTimeoutError,
)
from repro.lsh import DomainMinHashIndex, LSHIdentifierScheme, family_for_domain
from repro.net.transport import TrafficStats
from repro.obs.distributed import (
    FlightRecorder,
    StitchReport,
    TraceContext,
    cluster_histogram,
    counter_total,
    load_skew,
    new_trace_id,
    stitch_trace,
    wall_ms,
)
from repro.obs.log import get_logger
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import QueryTrace
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.rpc.engine import QueryEngine, TimedQueryResult
from repro.rpc.transports import Observer, Transport
from repro.sim.futures import SimFuture
from repro.sim.policies import AdaptiveTimeout, CircuitBreaker, JitteredBackoff
from repro.util.rng import derive_rng

__all__ = ["SocketTransport", "ClientSystem", "ClusterClient", "ClusterScraper"]

logger = get_logger("rpc.client")


class _Handle:
    """Cancellation handle over an asyncio timer (or nothing)."""

    def __init__(self, inner: Any = None) -> None:
        self._inner = inner

    def cancel(self) -> None:
        if self._inner is not None:
            self._inner.cancel()


class SocketTransport(Transport):
    """The engine's transport over asyncio TCP connections.

    Must be used from inside a running event loop (the
    :class:`ClusterClient` drives one); ``request()`` spawns one task per
    exchange and settles the returned future from the loop.  Exchanges
    reuse the connections of :attr:`pool`; :meth:`close` shuts them.

    With ``policies=True`` (the default) the transport runs the adaptive
    mechanisms of :mod:`repro.sim.policies` against real sockets: a
    Jacobson/Karn :class:`~repro.sim.policies.AdaptiveTimeout` shrinks
    per-peer patience toward observed RTTs, a
    :class:`~repro.sim.policies.CircuitBreaker` fails requests to
    repeatedly-unresponsive peers fast (the rejection reads as a failed
    settle, so the engine's failover walks on to the next replica
    immediately instead of burning a timeout per query), and a
    :class:`~repro.sim.policies.JitteredBackoff` spaces the retries that
    do happen so recovering peers are not met with a thundering herd.
    """

    def __init__(
        self,
        endpoints: dict[int, tuple[str, int]],
        *,
        registry: MetricsRegistry | None = None,
        timeout_ms: float = 2_000.0,
        retries: int = 1,
        policies: bool = True,
        seed: int = 0,
    ) -> None:
        self.endpoints = dict(endpoints)
        self._stats = TrafficStats(registry=registry)
        self.timeout_ms = timeout_ms
        self.retries = retries
        #: Peers that refused a connection; cleared by a successful ping.
        self.dead: set[int] = set()
        self._tasks: set[asyncio.Task] = set()
        #: Open connections to the peers, shared with control calls.
        self.pool = wire.ConnectionPool()
        self._epoch = time.monotonic()
        self.adaptive: AdaptiveTimeout | None = None
        self.breaker: CircuitBreaker | None = None
        self.backoff: JitteredBackoff | None = None
        if policies:
            self.adaptive = AdaptiveTimeout(
                floor_ms=min(100.0, timeout_ms),
                ceiling_ms=timeout_ms,
            )
            self.breaker = CircuitBreaker(
                self.now,
                failure_threshold=3,
                cooldown_ms=timeout_ms,
                registry=registry,
                namespace="rpc.breaker",
            )
            self.backoff = JitteredBackoff(
                base_ms=25.0,
                cap_ms=max(25.0, timeout_ms),
                seed=seed,
                name="rpc/backoff",
            )

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    async def close(self) -> None:
        """Cancel exchanges still in flight and close the pooled connections."""
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self.pool.close()

    def now(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def is_alive(self, peer_id: int) -> bool:
        return peer_id not in self.dead

    def mark_alive(self, peer_id: int) -> None:
        self.dead.discard(peer_id)
        if self.breaker is not None:
            self.breaker.reset(peer_id)
        if self.adaptive is not None:
            self.adaptive.forget(peer_id)

    def call_later(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        loop = asyncio.get_running_loop()
        return _Handle(loop.call_later(delay_ms / 1000.0, fn))

    def hop(
        self, hop_from: int, hop_to: int, fn: Callable[[float], None]
    ) -> Any:
        # The ring is mirrored locally, so overlay routing costs no wire
        # time here; the edge is still charged as a routing message to
        # keep hop accounting comparable across transports.
        self.stats.record_routing_hops(1)
        fn(0.0)
        return _Handle()

    def request(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any = None,
        *,
        size_bytes: int = 64,
        rank: int = 0,
        observer: Observer | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> SimFuture:
        future: SimFuture = SimFuture()
        attempts = (self.retries + 1) if rank == 0 else 1
        task = asyncio.get_running_loop().create_task(
            self._exchange(
                future, sender, recipient, kind, payload,
                size_bytes=size_bytes, attempts=attempts, observer=observer,
                trace_ctx=trace_ctx,
            )
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return future

    async def _exchange(
        self,
        future: SimFuture,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any,
        *,
        size_bytes: int,
        attempts: int,
        observer: Observer | None,
        trace_ctx: TraceContext | None = None,
    ) -> None:
        host, port = self.endpoints[recipient]
        # The context rides as an optional envelope field; old servers
        # ignore it, so traced and untraced requests interoperate freely.
        trace_wire = trace_ctx.to_wire() if trace_ctx is not None else None
        if self.breaker is not None and not self.breaker.allow(recipient):
            # Fail fast: the engine sees a failed settle and walks on to
            # the next replica without waiting out a timeout.
            if observer is not None:
                observer("breaker-open", {"to": recipient})
            if not future.done:
                future.reject(OpenCircuitError(recipient))
            return
        waited = 0.0
        for attempt in range(attempts):
            if future.done:
                return  # cancelled (hedge loser / quorum leftover)
            if observer is not None:
                observer(
                    "send", {"attempt": attempt, "to": recipient, "kind": kind}
                )
            timeout_ms = self.timeout_ms
            if self.adaptive is not None:
                adaptive = self.adaptive.timeout_ms(recipient)
                if adaptive is not None:
                    timeout_ms = adaptive
            started = time.monotonic()
            try:
                value = await wire.call(
                    host, port, kind, payload,
                    sender=sender, peer_id=recipient,
                    timeout_ms=timeout_ms,
                    trace=trace_wire,
                    pool=self.pool,
                )
            except PeerUnavailableError as exc:
                # A refused connection is definitive — no retry budget
                # spent, the peer is marked dead for failover planning.
                self.dead.add(recipient)
                self.stats.timeouts += 1
                if self.breaker is not None:
                    self.breaker.record_failure(recipient)
                if observer is not None:
                    observer("unreachable", {"to": recipient})
                if not future.done:
                    future.reject(exc)
                return
            except RequestTimeoutError:
                waited += (time.monotonic() - started) * 1000.0
                self.stats.timeouts += 1
                if self.breaker is not None:
                    self.breaker.record_failure(recipient)
                if attempt + 1 < attempts:
                    self.stats.retries += 1
                    if observer is not None:
                        observer("retry", {"attempt": attempt + 1})
                    if self.backoff is not None:
                        await asyncio.sleep(
                            self.backoff.delay_ms(attempt) / 1000.0
                        )
                    continue
                if not future.done:
                    future.reject(
                        RequestTimeoutError(recipient, attempts, waited)
                    )
                return
            except ReproError as exc:
                if not future.done:
                    future.reject(exc)
                return
            elapsed_ms = (time.monotonic() - started) * 1000.0
            self.stats.messages += 2  # request + reply frames
            self.stats.bytes += size_bytes + 64
            self.stats.latency_ms += elapsed_ms
            self.stats.by_kind[kind] += 1
            if self.breaker is not None:
                self.breaker.record_success(recipient)
            if self.adaptive is not None and attempt == 0:
                # Karn's rule: only unambiguous (first-try) samples feed
                # the estimator.
                self.adaptive.observe(recipient, elapsed_ms)
            if observer is not None:
                observer("reply", {"ms": elapsed_ms})
            if not future.done:
                future.resolve(value)
            return


class ClientSystem:
    """The engine's topology contract, served from a membership map.

    Mirrors the hashing/placement/replication views of
    :class:`~repro.core.system.RangeSelectionSystem` (the engine's
    documented contract) without any local peer state: identifiers come
    from the same seeded LSH scheme, the ring is rebuilt from member
    addresses, and liveness is whatever the transport has observed.
    """

    def __init__(
        self,
        config: SystemConfig,
        members: dict[str, tuple[str, int]],
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.members = dict(members)
        self.metrics = registry if registry is not None else MetricsRegistry()
        family = family_for_domain(config.family, config.domain)
        self.scheme = LSHIdentifierScheme.from_family(
            family, l=config.l, k=config.k, seed=config.seed,
            id_bits=config.id_bits,
        )
        self._accel: DomainMinHashIndex | None = None
        if config.accelerate:
            self._accel = DomainMinHashIndex(self.scheme, config.domain)
        ring = ChordRing(
            m=config.id_bits, successor_list_size=max(4, config.replicas)
        )
        for address in self.members:
            ring.add_node(address)
        ring.build()
        self.router = ChordRouter(ring)
        self.counters = SystemCounters(registry=self.metrics)
        #: node id -> (host, port), for the transport.
        self.endpoints: dict[int, tuple[str, int]] = {
            node_id: self.members[ring.node(node_id).address]
            for node_id in ring.node_ids
        }

    def identifiers_for(self, r: IntRange) -> list[int]:
        if self._accel is not None:
            domain = self.config.domain
            if r.start >= domain.low and r.end <= domain.high:
                return self._accel.identifiers(r)
        return self.scheme.identifiers(r)

    def place_identifier(self, identifier: int) -> int:
        if self.config.placement == "rehash":
            return rehash_for_placement(identifier, self.config.id_bits)
        return identifier

    def replica_owners(self, identifier: int) -> list[int]:
        return self.router.replica_set(
            self.place_identifier(identifier), self.config.replicas
        )

    def replica_targets(
        self, identifier: int, is_alive: Callable[[int], bool]
    ) -> list[int]:
        return self.router.replica_set(
            self.place_identifier(identifier),
            self.config.replicas,
            predicate=is_alive,
        )

    def failover_candidates(
        self,
        identifier: int,
        is_alive: Callable[[int], bool] | None = None,
    ) -> list[int]:
        candidates = self.replica_owners(identifier)
        if self.config.replicas > 1 and is_alive is not None:
            for peer in self.replica_targets(identifier, is_alive):
                if peer not in candidates:
                    candidates.append(peer)
        return candidates


class ClusterClient:
    """A querying client of a live socket cluster (``repro client``)."""

    def __init__(
        self,
        bootstrap: tuple[str, int],
        *,
        loop: asyncio.AbstractEventLoop | None = None,
        timeout_ms: float = 2_000.0,
        retries: int = 1,
        policies: bool = True,
        flight_dir: str | None = None,
    ) -> None:
        self.bootstrap = bootstrap
        self.timeout_ms = timeout_ms
        self.retries = retries
        self.policies = policies
        #: The client's own black box: breaker transitions and trace
        #: collection events; dumped to ``flight_dir`` when a breaker
        #: opens (the client-side analogue of a server's SWIM eviction).
        self.flight = FlightRecorder("client")
        self.flight_dir = flight_dir
        self._owns_loop = loop is None
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        self.system: ClientSystem
        self.transport: SocketTransport
        self.engine: QueryEngine
        self._rng = None
        self.refresh()

    # -- plumbing --------------------------------------------------------

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    async def _await_future(self, future: SimFuture):
        """Bridge a SimFuture settled by transport tasks into awaitable."""
        done = self.loop.create_future()
        future.add_done_callback(
            lambda settled: done.done() or done.set_result(settled)
        )
        settled = await done
        return settled.result()

    def _on_breaker_transition(self, peer_id: int, old: str, new: str) -> None:
        """Record breaker flips; an opening breaker dumps the black box."""
        self.flight.record_event("breaker", peer=peer_id, old=old, new=new)
        if new == "open" and self.flight_dir:
            path = os.path.join(self.flight_dir, "flight-client.jsonl")
            try:
                self.flight.dump(path, reason=f"breaker-open:{peer_id}")
            except OSError:
                logger.warning("client flight dump to %s failed", path)

    def close(self) -> None:
        """Close the pooled connections, then the loop if this client owns it."""
        if self.loop.is_closed():
            return
        if hasattr(self, "transport"):
            self._run(self.transport.close())
        if self._owns_loop:
            self.loop.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- membership ------------------------------------------------------

    def refresh(self) -> None:
        """Re-mirror membership and config from the bootstrap peer."""
        hello = self._run(
            wire.call(
                self.bootstrap[0], self.bootstrap[1], "hello",
                timeout_ms=self.timeout_ms,
            )
        )
        config = wire.config_from_wire(hello["config"])
        members = {
            address: (str(endpoint[0]), int(endpoint[1]))
            for address, endpoint in hello["members"].items()
        }
        replaced = getattr(self, "transport", None)
        previously_dead = replaced.dead if replaced is not None else set()
        if replaced is not None:
            self._run(replaced.close())
        self.system = ClientSystem(config, members)
        self.transport = SocketTransport(
            self.system.endpoints,
            registry=self.system.metrics,
            timeout_ms=self.timeout_ms,
            retries=self.retries,
            policies=self.policies,
            seed=config.seed,
        )
        self.transport.dead |= previously_dead & set(self.system.endpoints)
        # Peers the ring itself suspects are poor first choices: mark
        # them dead up front so origin picking and failover planning
        # route around them (a refuting peer clears itself on the next
        # successful exchange via mark_alive).
        node_of = {
            self.system.router.ring.node(node_id).address: node_id
            for node_id in self.system.router.node_ids
        }
        for address, record in hello.get("states", {}).items():
            state = str(record[0]) if record else "alive"
            node_id = node_of.get(address)
            if node_id is not None and state != "alive":
                self.transport.dead.add(node_id)
        if self.transport.breaker is not None:
            self.transport.breaker.transition_hook = self._on_breaker_transition
        self.engine = QueryEngine(self.system, self.transport)
        self._rng = derive_rng(config.seed, "client/origins")
        logger.info(
            "mirrored %d member(s) at epoch %s",
            len(members), hello.get("epoch"),
        )

    @property
    def members(self) -> dict[str, tuple[str, int]]:
        return self.system.members

    def endpoint_of(self, address: str) -> tuple[str, int]:
        return self.system.members[address]

    def pick_origin(self) -> int:
        """A random believed-alive member to originate routing from."""
        alive = [
            node_id
            for node_id in self.system.router.node_ids
            if self.transport.is_alive(node_id)
        ]
        if not alive:
            raise ReproError("no alive peer can originate a query")
        return alive[int(self._rng.integers(len(alive)))]

    # -- the query path ----------------------------------------------------

    def start_trace(self, query: IntRange | None = None, **attrs) -> QueryTrace:
        """A wall-clock trace for one query over the socket transport."""
        if query is not None:
            attrs.setdefault("query", str(query))
        attrs.setdefault("path", "socket")
        return QueryTrace(clock=self.transport.now, **attrs)

    def query(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        padding: float | None = None,
        trace: QueryTrace | None = None,
    ) -> TimedQueryResult:
        """One full query (locate, match, store-on-miss) over sockets."""
        if origin is None:
            origin = self.pick_origin()

        async def go() -> TimedQueryResult:
            future = self.engine.query(
                query, relation, attribute, origin,
                padding=padding, trace=trace,
            )
            return await self._await_future(future)

        return self._run(go())

    def query_traced(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        padding: float | None = None,
    ) -> tuple[TimedQueryResult, QueryTrace, StitchReport]:
        """One query as a *distributed* trace: run, collect, stitch.

        Mints a trace id so every request of this query carries a wire
        context, runs the query, then asks every reachable member for its
        retained span fragments of this trace (``telemetry`` with
        ``spans_for``) and grafts them into the client trace tree.  The
        returned :class:`~repro.obs.distributed.StitchReport` says how
        many fragments attached, from which nodes, and whether any span's
        timing betrayed cross-node clock skew.
        """
        trace = self.start_trace(query)
        trace.trace_id = new_trace_id()
        #: Wall anchor: lets stitching map each server's wall-clock span
        #: times onto this trace's monotonic clock.
        trace.root.attrs["wall_start_ms"] = wall_ms()
        result = self.query(
            query, relation, attribute, origin, padding, trace=trace
        )
        fragments = self.collect_fragments(trace.trace_id)
        report = stitch_trace(trace, fragments)
        self.flight.record_event(
            "trace-stitched",
            trace_id=trace.trace_id,
            attached=report.attached,
            orphans=report.orphans,
            nodes=len(report.nodes),
        )
        return result, trace, report

    def collect_fragments(self, trace_id: str) -> list[dict]:
        """Every reachable member's span fragments for one trace id.

        Peers that died mid-query simply contribute nothing — their
        absence *is* the signal (the trace shows the timeout and the
        failover hop instead).
        """
        fragments: list[dict] = []
        for address in sorted(self.system.members):
            try:
                reply = self.call(
                    address, "telemetry", {"spans_for": trace_id}
                )
            except ReproError:
                continue
            if isinstance(reply, dict):
                fragments.extend(
                    doc for doc in reply.get("spans") or []
                    if isinstance(doc, dict)
                )
        return fragments

    # -- cluster control -------------------------------------------------

    def call(self, address: str, kind: str, payload: Any = None) -> Any:
        """One control RPC to a member, by address."""
        host, port = self.endpoint_of(address)
        return self._run(
            wire.call(
                host, port, kind, payload,
                timeout_ms=self.timeout_ms, pool=self.transport.pool,
            )
        )

    def ping(self, address: str) -> bool:
        try:
            return bool(self.call(address, "ping"))
        except ReproError:
            return False

    def metrics_of(self, address: str) -> dict:
        """One peer's metrics registry snapshot (swim/repair telemetry)."""
        return self.call(address, "metrics")

    def telemetry_of(self, address: str, spans: int = 32) -> dict:
        """One peer's full telemetry snapshot (metrics + queue + SWIM +
        census + recent span fragments), versioned and timestamped."""
        return self.call(address, "telemetry", {"spans": spans})

    def entries_of(self, address: str, page_size: int = 512) -> list:
        """One peer's stored entries as (id, descriptor, partition, primary).

        Iterates the chunked form of the ``entries`` RPC so an
        arbitrarily large store never produces a reply past the wire
        frame cap.
        """
        records: list = []
        offset = 0
        while True:
            page = self.call(
                address, "entries", {"offset": offset, "limit": page_size}
            )
            if not isinstance(page, dict):
                return page if isinstance(page, list) else records
            batch = page.get("entries", [])
            records.extend(batch)
            offset += len(batch)
            if not batch or offset >= int(page.get("total", 0)):
                return records

    def leave(self, address: str) -> int:
        """Ask a peer to leave gracefully; returns copies it handed off."""
        moved = int(self.call(address, "leave"))
        self.refresh()
        return moved

    def repair(self) -> int:
        """Client-driven anti-entropy: one repair round over the cluster.

        Pulls every live peer's entry list, computes each entry's goal
        replica set over the *alive* members (the same goal state the
        simulated :class:`~repro.sim.repair.ReplicaRepairer` converges
        to), and pushes the missing copies.  Returns copies created.
        """
        return self._run(self._repair_round())

    async def _repair_round(self) -> int:
        # Probe liveness first so replica targets skip dead peers.
        node_of = {}
        for node_id in self.system.router.node_ids:
            address = self.system.router.ring.node(node_id).address
            node_of[address] = node_id
        entries_by_peer: dict[int, list] = {}
        for address, (host, port) in self.system.members.items():
            node_id = node_of[address]
            entries: list = []
            offset = 0
            try:
                while True:
                    page = await wire.call(
                        host, port, "entries",
                        {"offset": offset, "limit": 512},
                        peer_id=node_id, timeout_ms=self.timeout_ms,
                        pool=self.transport.pool,
                    )
                    batch = page.get("entries", []) if isinstance(page, dict) else []
                    entries.extend(batch)
                    offset += len(batch)
                    if not batch or not isinstance(page, dict) or offset >= int(
                        page.get("total", 0)
                    ):
                        break
            except ReproError:
                self.transport.dead.add(node_id)
                continue
            self.transport.mark_alive(node_id)
            entries_by_peer[node_id] = entries
        # holders[(identifier, descriptor)] = {node_id: (partition, primary)}
        holders: dict[tuple, dict[int, tuple]] = {}
        for node_id, entries in entries_by_peer.items():
            for identifier, descriptor, partition, primary in entries:
                holders.setdefault((identifier, descriptor), {})[node_id] = (
                    partition, primary,
                )
        copies = 0
        for (identifier, descriptor), holding in holders.items():
            targets = self.system.replica_targets(
                identifier, self.transport.is_alive
            )
            # Prefer a source that still has the rows, not just metadata.
            source = max(
                holding.values(), key=lambda held: held[0] is not None
            )
            partition = source[0]
            for rank, target in enumerate(targets):
                held = holding.get(target)
                primary = rank == 0
                if held is not None and (held[1] == primary or not primary):
                    continue  # already placed correctly (or a spare copy)
                host, port = self.system.endpoints[target]
                try:
                    stored = await wire.call(
                        host, port, "store-request",
                        (identifier, descriptor, partition, primary),
                        peer_id=target, timeout_ms=self.timeout_ms,
                        pool=self.transport.pool,
                    )
                except ReproError:
                    self.transport.dead.add(target)
                    continue
                if stored:
                    copies += 1
        self.system.counters.repairs += copies
        return copies


class ClusterScraper:
    """Polls every member's ``telemetry`` RPC into one cluster view.

    Each :meth:`scrape` returns a merged document: per-node rows (QPS
    from request-count deltas between scrapes, queue depth, repair debt,
    census, SWIM epoch, breaker state, clock skew versus the scraper's
    wall clock) plus cluster aggregates — bucket-merged ``p50/p95/p99``
    service time and the Gini coefficient over per-node request counts,
    the same skew statistic :mod:`repro.obs.health` reports for the
    simulator's ring, so live and simulated load imbalance are directly
    comparable.  Unreachable members are listed in ``errors``, never
    raised — a scraper that dies with its subject is useless.
    """

    def __init__(self, client: ClusterClient, *, spans: int = 8) -> None:
        self.client = client
        self.spans = spans
        #: address -> (wall_ms, cumulative request count) of the previous
        #: scrape; the QPS numerator/denominator.
        self._prev: dict[str, tuple[float, float]] = {}
        self.scrapes = 0

    def scrape(self) -> dict:
        """One polling pass over the current membership.

        Members the transport already knows are dead (refused a
        connection, or SWIM-suspected at ``hello`` time) are reported
        under ``down`` rather than attempted: without SWIM a killed peer
        stays in the mirrored member map forever, and a scrape that
        flags it as an *error* every pass would make the smoke drill's
        expected casualty indistinguishable from a live peer that
        stopped answering telemetry.
        """
        snapshots: dict[str, dict] = {}
        errors: dict[str, str] = {}
        down: list[str] = []
        id_bits = self.client.system.config.id_bits
        for address in sorted(self.client.system.members):
            node_id = node_id_for_address(address, id_bits)
            if not self.client.transport.is_alive(node_id):
                down.append(address)
                continue
            try:
                reply = self.client.telemetry_of(address, spans=self.spans)
            except ReproError as exc:
                errors[address] = type(exc).__name__
                continue
            if isinstance(reply, dict) and reply.get("version") is not None:
                snapshots[address] = reply
            else:
                errors[address] = "unparseable"
        self.scrapes += 1
        return self._merge(snapshots, errors, down)

    def _breaker_state(self, address: str) -> str:
        breaker = self.client.transport.breaker
        if breaker is None:
            return "-"
        node_id = node_id_for_address(
            address, self.client.system.config.id_bits
        )
        return breaker.state(node_id)

    def _merge(
        self,
        snapshots: dict[str, dict],
        errors: dict[str, str],
        down: list[str] | None = None,
    ) -> dict:
        now_wall = wall_ms()
        nodes: dict[str, dict] = {}
        requests_by_node: dict[str, float] = {}
        for address, snap in snapshots.items():
            metrics = snap.get("metrics") or {}
            requests = counter_total(metrics, "server.requests")
            requests_by_node[address] = requests
            prev = self._prev.get(address)
            qps = 0.0
            if prev is not None and now_wall > prev[0]:
                qps = max(0.0, requests - prev[1]) / ((now_wall - prev[0]) / 1000.0)
            self._prev[address] = (now_wall, requests)
            swim = snap.get("swim") or {}
            nodes[address] = {
                "node_id": snap.get("node_id"),
                "version": snap.get("version"),
                "requests": requests,
                "qps": qps,
                "queue_depth": snap.get("queue_depth", 0),
                "pending_repair": snap.get("pending_repair", 0),
                "census": snap.get("census") or {},
                "swim_epoch": swim.get("epoch"),
                "swim_states": swim.get("states") or {},
                "breaker": self._breaker_state(address),
                #: Positive: the node's wall clock runs ahead of ours.
                "clock_skew_ms": (
                    float(snap["captured_wall_ms"]) - now_wall
                    if isinstance(
                        snap.get("captured_wall_ms"), (int, float)
                    )
                    else None
                ),
                "spans": snap.get("spans") or [],
            }
        metric_docs = [
            snap.get("metrics") or {} for snap in snapshots.values()
        ]
        down = list(down or [])
        return {
            "at_wall_ms": now_wall,
            "nodes": nodes,
            "errors": errors,
            "down": down,
            "service_ms": cluster_histogram(metric_docs, "server.service_ms"),
            "load_skew": (
                load_skew(requests_by_node) if requests_by_node else 0.0
            ),
            #: Members we expected an answer from: known-dead peers are
            #: not in the denominator, so scraped == members means every
            #: reachable member produced a versioned snapshot.
            "members": len(self.client.system.members) - len(down),
            "scraped": len(nodes),
        }
