"""A peer as a process: asyncio TCP server owning one node's partitions.

``repro serve`` runs one :class:`PeerServer`.  The server speaks the
length-prefixed JSON protocol of :mod:`repro.rpc.wire` and serves three
planes on the same port:

- the **data plane** — ``match-request`` / ``store-request`` /
  ``fetch-partition`` — dispatched through the same
  :class:`~repro.rpc.peer.PeerLogic` the in-process transports use;
- the **control plane** — ``hello``, ``join``, ``member-update``,
  ``leave``, ``entries``, ``ping``, ``metrics``, ``shutdown`` — the node
  lifecycle;
- the **health plane** — ``swim-ping``, ``ping-req``, ``suspect``,
  ``has-entries``, ``repair-push``, ``chaos-set`` — the ring keeping
  itself alive.

Membership is a full member map mirrored on every peer, now carried by
the SWIM state machine of :mod:`repro.rpc.swim`: each record is
``address -> (host, port, state, incarnation)`` and merges by incarnation
precedence, with the original epoch counter kept as a freshness hint.
Node ids are SHA-1 of addresses, so every mirror and every client places
identifiers identically.

**Self-healing.**  With ``swim_interval_ms > 0`` every peer runs the SWIM
failure detector: each tick it pings one member directly and, on silence,
indirectly through ``swim_proxies`` randomly chosen proxies
(``ping-req``).  A peer that answers neither route is marked *suspect*
and the suspicion is broadcast; the accused — if merely slow or paused —
refutes it by re-announcing itself at a higher incarnation.  A suspicion
that ages past ``suspect_timeout_ms`` un-refuted is confirmed *dead*: the
peer is evicted from the mirrored ring by the ring itself — no client
involved — and an anti-entropy repair round is triggered.  With
``repair_interval_ms > 0`` every peer also periodically computes its own
replication deficits from the mirrored ring (which entries it holds whose
current replica set is missing copies), asks each target which keys it
already has (``has-entries``), and pushes only the missing ones
(``repair-push``) — so a SIGKILL'd replica's partitions are back at ``r``
copies within a couple of rounds, again with no client involved.

**Chaos.**  ``chaos-set`` injects faults for the deterministic chaos
harness: an added per-request service delay, a seeded drop probability,
and a *blocked* sender list — requests from blocked peers are dropped
without a reply and calls to them refused locally, which is how the
harness builds two-sided network partitions without touching ``tc``.
Clients never set a sender address and are never blocked: chaos partitions
the overlay, not the observer.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from typing import Any

from repro.chord.hashing import node_id_for_address, rehash_for_placement
from repro.chord.ring import ChordRing
from repro.core.config import SystemConfig
from repro.core.matcher import matcher_by_name
from repro.core.overlays import ChordRouter
from repro.errors import PeerUnavailableError, ReproError
from repro.obs.distributed import FlightRecorder, SpanFragment, TraceContext
from repro.obs.log import get_logger
from repro.obs.registry import MetricsRegistry
from repro.rpc import wire
from repro.rpc.peer import DATA_KINDS, PeerLogic
from repro.rpc.swim import ALIVE, DEAD, SUSPECT, MembershipTable, MergeOutcome
from repro.storage.store import LRUEviction, NoEviction, PeerStore
from repro.storage.wal import PeerDurability

__all__ = ["PeerServer", "READY_PREFIX"]

logger = get_logger("rpc.server")

#: First token of the line a server prints once it accepts connections;
#: cluster managers (and the CI smoke job) wait for it.
READY_PREFIX = "REPRO-SERVE ready"

#: Budget for one control-plane RPC between servers (member-update
#: broadcasts, hand-off store pushes).  Generous for loopback; bounded so
#: a hung peer cannot wedge a join or leave forever.
CONTROL_TIMEOUT_MS = 5_000.0

#: Version tag of the ``telemetry`` RPC reply.  Scrapers check it before
#: interpreting the body; bumping it is the contract for shape changes.
TELEMETRY_VERSION = 1

#: Page size of the chunked ``entries`` bulk-transfer RPC.  Chosen so a
#: page of row-bearing partitions stays far under the 32 MiB wire frame
#: cap; clients iterate pages, so the store size itself is unbounded.
ENTRIES_PAGE_SIZE = 512

#: Every this-many SWIM ticks, probe a tombstoned member instead of a
#: live one.  A dead peer that was merely paused (SIGSTOP) answers the
#: probe after SIGCONT, learns of its own death from the piggybacked
#: table, refutes, and rejoins — the same path heals a two-sided
#: partition after both sides evicted each other.
RESURRECTION_PROBE_PERIOD = 4


class PeerServer:
    """One node of the live cluster: store, ring mirror, TCP endpoint."""

    def __init__(
        self,
        address: str,
        config: SystemConfig,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        bootstrap: tuple[str, int] | None = None,
        swim_interval_ms: float = 0.0,
        suspect_timeout_ms: float | None = None,
        swim_proxies: int = 2,
        ping_timeout_ms: float | None = None,
        repair_interval_ms: float = 0.0,
        flight_dir: str | None = None,
        flight_capacity: int = FlightRecorder.DEFAULT_CAPACITY,
        data_dir: str | None = None,
        wal_fsync: bool = True,
        compact_every: int = 512,
    ) -> None:
        if config.overlay != "chord":
            raise ReproError("the socket transport requires the chord overlay")
        if swim_interval_ms < 0:
            raise ReproError("swim_interval_ms cannot be negative")
        if repair_interval_ms < 0:
            raise ReproError("repair_interval_ms cannot be negative")
        if swim_proxies < 0:
            raise ReproError("swim_proxies cannot be negative")
        self.address = address
        self.config = config
        self.host = host
        self.port = port  # 0 until bound; then the real port
        self.bootstrap = bootstrap
        self.node_id = node_id_for_address(address, config.id_bits)
        if config.max_partitions_per_peer:
            eviction: LRUEviction | NoEviction = LRUEviction(
                config.max_partitions_per_peer
            )
        else:
            eviction = NoEviction()
        self.store = PeerStore(self.node_id, eviction)
        self.logic = PeerLogic(
            self.node_id,
            self.store,
            matcher_by_name(config.matcher),
            local_index=config.local_index,
        )
        #: SWIM membership mirror (records, states, incarnations, epoch).
        self.table = MembershipTable(address, host, port)
        self.router: ChordRouter | None = None
        self.metrics = MetricsRegistry()
        # Failure-detector knobs.  swim_interval_ms == 0 disables the
        # detector (PR 6 behaviour: membership only changes on join/leave);
        # repair_interval_ms == 0 leaves repair to clients.
        self.swim_interval_ms = swim_interval_ms
        self.suspect_timeout_ms = (
            suspect_timeout_ms
            if suspect_timeout_ms is not None
            else 3.0 * swim_interval_ms
        )
        self.swim_proxies = swim_proxies
        self.ping_timeout_ms = (
            ping_timeout_ms
            if ping_timeout_ms is not None
            else max(200.0, min(swim_interval_ms, 1_000.0))
        )
        self.repair_interval_ms = repair_interval_ms
        #: Peers whose last member-update delivery failed; the SWIM loop
        #: prioritises pinging them (the ping piggybacks the full table,
        #: which *is* the re-delivery) and every later broadcast retries.
        self._retry_updates: set[str] = set()
        # Chaos-injection state, driven by the ``chaos-set`` RPC.
        self.chaos_delay_ms = 0.0
        self.chaos_drop = 0.0
        self.chaos_blocked: set[str] = set()
        self._chaos_rng = random.Random(0)
        self._swim_rng = random.Random(node_id_for_address(address, 32))
        self._ping_queue: list[str] = []
        self._swim_tick_count = 0
        #: Wall-clock ms of the first un-healed eviction this peer knows
        #: of; cleared (into ``repair.heal_ms``) by the first repair round
        #: that finds nothing missing.
        self._evicted_at: float | None = None
        #: Always-on black box of recent server-side spans and events;
        #: dumped to ``flight_dir`` on SWIM evictions when configured.
        self.flight = FlightRecorder(address, capacity=flight_capacity)
        self.flight_dir = flight_dir
        #: Durable store under ``--data-dir`` (WAL + snapshot + meta);
        #: None keeps the pre-durability, purely in-memory behavior.
        self.durability = (
            PeerDurability(data_dir, fsync=wal_fsync, compact_every=compact_every)
            if data_dir
            else None
        )
        #: Concurrently-executing requests right now (all kinds).
        self._inflight = 0
        #: Replica copies the last repair round found missing; the
        #: telemetry RPC and SWIM health piggyback both report it.
        self._pending_repair = 0
        self._server: asyncio.AbstractServer | None = None
        #: Accepted connections still open, each with the task serving it;
        #: :meth:`close` shuts them so clients' pooled connections see EOF.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: Outgoing connections to other members, reused across calls.
        self._pool = wire.ConnectionPool()
        self._stopped = asyncio.Event()
        self._repair_now = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()

    # -- clocks and views ------------------------------------------------

    @staticmethod
    def _now_ms() -> float:
        return time.monotonic() * 1000.0

    def _health_payload(self) -> dict:
        """The cheap health sample piggybacked on SWIM ping replies."""
        return {
            "queue_depth": self._inflight,
            "pending_repair": self._pending_repair,
            "entries": sum(1 for _ in self.store.entries()),
        }

    @property
    def members(self) -> dict[str, tuple[str, int]]:
        """``address -> (host, port)`` of every non-dead member."""
        return self.table.endpoints()

    @property
    def epoch(self) -> int:
        return self.table.epoch

    # -- ring mirror -----------------------------------------------------

    def _rebuild_ring(self) -> None:
        ring = ChordRing(
            m=self.config.id_bits,
            successor_list_size=max(4, self.config.replicas),
        )
        for address in self.table.endpoints():
            ring.add_node(address)
        ring.build()
        self.router = ChordRouter(ring)

    def _place(self, identifier: int) -> int:
        if self.config.placement == "rehash":
            return rehash_for_placement(identifier, self.config.id_bits)
        return identifier

    def replica_owners(self, identifier: int) -> list[int]:
        """The identifier's current replica set on the mirrored ring."""
        assert self.router is not None
        return self.router.replica_set(
            self._place(identifier), self.config.replicas
        )

    def _address_of(self, node_id: int) -> str:
        assert self.router is not None
        return self.router.ring.node(node_id).address

    def _endpoint_of(self, node_id: int) -> tuple[str, int]:
        return self.table.endpoints()[self._address_of(node_id)]

    # -- outgoing calls (all server-to-server traffic funnels here) ------

    async def _call_member(
        self,
        address: str,
        kind: str,
        payload: Any = None,
        *,
        timeout_ms: float = CONTROL_TIMEOUT_MS,
        peer_id: int = -1,
    ) -> Any:
        """One RPC to a member by address, honouring the chaos partition
        (calls to blocked peers are refused locally, without a socket)."""
        if address in self.chaos_blocked:
            raise PeerUnavailableError(peer_id)
        member = self.table.get(address)
        if member is None:
            raise PeerUnavailableError(peer_id)
        return await wire.call(
            member.host,
            member.port,
            kind,
            payload,
            sender=self.node_id,
            sender_address=self.address,
            peer_id=peer_id,
            timeout_ms=timeout_ms,
            pool=self._pool,
        )

    def _spawn(self, coroutine) -> None:
        """Run a coroutine in the background, tracked for teardown."""
        task = asyncio.get_running_loop().create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the port, join via the bootstrap peer (if any), go live.

        With a ``data_dir``, the store is rebuilt from snapshot + WAL
        *before* the port binds (no request can observe a half-recovered
        store), the SWIM incarnation resumes past the persisted one (so
        the rejoin beats any tombstone from the previous life), and a
        reconciliation round runs once the ring mirror is adopted.
        """
        restored = None
        if self.durability is not None:
            restored = self.durability.recover(self.store)
            persisted = self.durability.load_incarnation()
            if persisted is not None:
                self.table.set_incarnation(persisted + 1)
            self._persist_incarnation()
            self.durability.attach(self.store)
            self.metrics.counter(
                "restore.entries",
                help="entries rebuilt from disk at startup",
            ).inc(restored["entries"])
            self.metrics.counter(
                "restore.wal_records",
                help="WAL records replayed at startup",
            ).inc(restored["wal_records"])
            self.metrics.counter(
                "restore.torn_records",
                help="torn WAL tail records skipped at startup",
            ).inc(restored["torn_records"])
            if restored["entries"] or restored["wal_records"]:
                logger.info(
                    "peer %s: restored %d entrie(s) from disk "
                    "(%d snapshot, %d WAL record(s), %d torn)",
                    self.address, restored["entries"],
                    restored["snapshot_entries"], restored["wal_records"],
                    restored["torn_records"],
                )
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.table.set_endpoint(self.host, self.port)
        if self.bootstrap is None:
            self.table.epoch = 1
        else:
            boot_host, boot_port = self.bootstrap
            my_incarnation = self.table.incarnation
            reply = await wire.call(
                boot_host,
                boot_port,
                "join",
                {
                    "address": self.address,
                    "host": self.host,
                    "port": self.port,
                },
                sender_address=self.address,
                timeout_ms=CONTROL_TIMEOUT_MS,
                pool=self._pool,
            )
            self.table.replace(reply)
            # The adopted map may carry this address as a tombstone (or
            # at a stale incarnation) from a previous life; restore the
            # identity the restart resumed before anything gossips.
            self.table.reassert_self(my_incarnation)
            self._persist_incarnation()
        self._rebuild_ring()
        if self.durability is not None and self.table.peers(ALIVE, SUSPECT):
            self._spawn(self._reconcile_after_restart())
        if self.swim_interval_ms > 0:
            self._spawn(self._swim_loop())
        if self.repair_interval_ms > 0:
            self._spawn(self._repair_loop())
        print(
            f"{READY_PREFIX} address={self.address} node_id={self.node_id} "
            f"host={self.host} port={self.port}",
            flush=True,
        )
        logger.info(
            "peer %s (id %d) serving on %s:%d, %d member(s), swim=%s repair=%s",
            self.address, self.node_id, self.host, self.port,
            len(self.table.endpoints()),
            f"{self.swim_interval_ms:g}ms" if self.swim_interval_ms else "off",
            f"{self.repair_interval_ms:g}ms" if self.repair_interval_ms else "off",
        )

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` or ``leave`` request stops the server."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()
        await self.close()

    async def close(self) -> None:
        """Stop serving: no new connections, and every accepted one shut.

        Clients keep connections open between requests, so closing the
        listener alone would leave them answered (and, on Python 3.12+,
        ``wait_closed()`` waiting for them forever).  Each connection's
        serving task is cancelled after its writer is closed; a reply
        already written (the answer to ``leave`` or ``shutdown``) is
        flushed before the socket closes.
        """
        self._stopped.set()
        if self._server is not None:
            self._server.close()
        for writer in self._connections:
            writer.close()
        current = asyncio.current_task()
        tasks = [
            task
            for task in (*self._tasks, *self._connections.values())
            if task is not current
        ]
        self._tasks.clear()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        await self._pool.close()
        if self.durability is not None:
            self.durability.close()

    # -- durability ------------------------------------------------------

    def _persist_incarnation(self) -> None:
        """Write the current SWIM incarnation to the data dir (if any).

        Called on the initial restore bump and on every refutation —
        every path that increments our own incarnation — so a future
        restart always resumes past the last value the cluster saw.
        """
        if self.durability is not None:
            self.durability.store_incarnation(self.table.incarnation)

    async def _reconcile_after_restart(self) -> None:
        """One recovery reconciliation against the adopted ring.

        The restored store reflects the ring as it was before the crash:
        entries may have moved off this peer (shed them) and writes may
        have landed elsewhere while it was down (pull them).  Shedding
        and promotion reuse :meth:`rebalance`; the pull pages every live
        member's chunked ``entries`` feed and keeps what the current
        replica sets say belongs here.
        """
        try:
            shed_before = self.store.partition_count
            await self.rebalance()
            shed = max(0, shed_before - self.store.partition_count)
            pulled = await self._pull_owned_entries()
            self.metrics.counter(
                "reconcile.shed",
                help="restored entries shed because ownership moved away",
            ).inc(shed)
            self.metrics.counter(
                "reconcile.pulled",
                help="entries pulled from the ring after a restart",
            ).inc(pulled)
            self.metrics.counter(
                "reconcile.rounds", help="restart reconciliation rounds run"
            ).inc()
            if shed or pulled:
                logger.info(
                    "peer %s: reconciled after restart (shed %d, pulled %d)",
                    self.address, shed, pulled,
                )
            self._repair_now.set()
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - reconciliation is best-effort
            logger.exception("restart reconciliation failed on %s", self.address)

    async def _pull_owned_entries(self) -> int:
        """Fetch entries whose current replica set includes this peer."""
        pulled = 0
        for address in self.table.peers(ALIVE, SUSPECT):
            offset = 0
            while True:
                try:
                    page = await self._call_member(
                        address, "entries",
                        {"offset": offset, "limit": ENTRIES_PAGE_SIZE},
                        timeout_ms=CONTROL_TIMEOUT_MS,
                    )
                except ReproError:
                    break  # unreachable peer; repair owns convergence
                if not isinstance(page, dict):
                    break
                records = page.get("entries", [])
                for identifier, descriptor, partition, _primary in records:
                    identifier = int(identifier)
                    targets = self.replica_owners(identifier)
                    if self.node_id not in targets:
                        continue
                    if self.logic.holds(identifier, descriptor):
                        continue
                    self.store.store(
                        identifier, descriptor, partition,
                        primary=targets[0] == self.node_id,
                        via="reconcile",
                    )
                    pulled += 1
                offset += len(records)
                if not records or offset >= int(page.get("total", 0)):
                    break
        return pulled

    # -- membership gossip -----------------------------------------------

    def _membership_payload(self) -> dict:
        return self.table.payload()

    async def _broadcast_membership(self, exclude: set[str]) -> None:
        """Push the current member map to every live peer, concurrently.

        A failed delivery no longer drops the update forever: the peer is
        queued for re-delivery (the SWIM loop pings it next, piggybacking
        the full table) and counted as ``member.update_failed``.
        """
        payload = self._membership_payload()
        targets = [
            address
            for address in self.table.peers(ALIVE, SUSPECT)
            if address not in exclude
        ]

        async def push(address: str) -> None:
            try:
                await self._call_member(
                    address, "member-update", payload,
                    timeout_ms=CONTROL_TIMEOUT_MS,
                )
            except ReproError:
                self._retry_updates.add(address)
                self.metrics.counter(
                    "member.update_failed",
                    help="member-update deliveries that failed and were "
                    "queued for re-delivery",
                ).inc()
                logger.warning(
                    "member-update to %s failed; queued for re-delivery",
                    address,
                )
            else:
                self._retry_updates.discard(address)

        if targets:
            await asyncio.gather(*(push(address) for address in targets))

    def _after_merge(self, outcome: MergeOutcome) -> None:
        """React to membership news learned from any gossip exchange."""
        if outcome.ring_changed:
            self._rebuild_ring()
        if outcome.evicted:
            for address in outcome.evicted:
                logger.info(
                    "peer %s: learned %s is dead (gossip)",
                    self.address, address,
                )
            self.metrics.counter(
                "swim.evicted",
                help="members learned dead via gossip",
            ).inc(len(outcome.evicted))
            if self._evicted_at is None:
                self._evicted_at = self._now_ms()
            self._flight_dump(f"gossip-evicted:{','.join(outcome.evicted)}")
            self._repair_now.set()
        if outcome.joined:
            # A member we did not know (or thought dead) is alive — make
            # sure its share of the data reaches it.
            self._repair_now.set()
        if outcome.refuted:
            self.metrics.counter(
                "swim.refuted",
                help="times this peer refuted an accusation against it",
            ).inc()
            logger.info(
                "peer %s: refuted suspicion, incarnation now %d",
                self.address, self.table.incarnation,
            )
            self._persist_incarnation()
            self._spawn(self._broadcast_membership(exclude=set()))

    # -- the flight recorder ---------------------------------------------

    def _flight_dump(self, reason: str) -> None:
        """Mark an incident in the black box and dump it when configured.

        Called on every eviction this peer learns of; with ``flight_dir``
        set the whole ring buffer is appended to
        ``flight-<address>.jsonl`` so the moments *before* the failure
        survive the failure.  Dump errors are counted, never raised — the
        recorder must not take down the ring it is documenting.
        """
        self.flight.record_event("incident", reason=reason)
        if not self.flight_dir:
            return
        safe = self.address.replace("/", "_").replace(":", "_")
        path = os.path.join(self.flight_dir, f"flight-{safe}.jsonl")
        try:
            self.flight.dump(path, reason=reason)
            self.metrics.counter(
                "flight.dumps", help="flight-recorder dumps written"
            ).inc()
        except OSError:
            self.metrics.counter(
                "flight.dump_failures",
                help="flight-recorder dumps that could not be written",
            ).inc()
            logger.warning("flight dump to %s failed", path)

    # -- the SWIM failure detector ---------------------------------------

    async def _swim_loop(self) -> None:
        while not self._stopped.is_set():
            await asyncio.sleep(self.swim_interval_ms / 1000.0)
            if self._stopped.is_set():
                return
            try:
                await self._swim_tick()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - detector must survive
                logger.exception("swim tick failed on %s", self.address)

    def _next_ping_target(self) -> str | None:
        """Round-robin over a shuffled member list, SWIM-style.

        Peers with a pending member-update re-delivery go first; every
        :data:`RESURRECTION_PROBE_PERIOD`-th tick probes a tombstone
        instead, so paused peers and healed partitions can rejoin.
        """
        self._swim_tick_count += 1
        for address in list(self._retry_updates):
            if self.table.state_of(address) in (ALIVE, SUSPECT):
                return address
        if self._swim_tick_count % RESURRECTION_PROBE_PERIOD == 0:
            dead = self.table.peers(DEAD)
            if dead:
                return dead[self._swim_rng.randrange(len(dead))]
        candidates = set(self.table.peers(ALIVE, SUSPECT))
        self._ping_queue = [a for a in self._ping_queue if a in candidates]
        if not self._ping_queue:
            self._ping_queue = sorted(candidates)
            self._swim_rng.shuffle(self._ping_queue)
        return self._ping_queue.pop() if self._ping_queue else None

    async def _direct_ping(self, address: str) -> dict | None:
        """Ping a member, piggybacking our table; returns its table."""
        try:
            reply = await self._call_member(
                address, "swim-ping", self._membership_payload(),
                timeout_ms=self.ping_timeout_ms,
            )
        except ReproError:
            self.metrics.counter(
                "swim.ping_failures", help="direct pings that went unanswered"
            ).inc()
            return None
        self.metrics.counter(
            "swim.pings", help="direct pings answered"
        ).inc()
        self._retry_updates.discard(address)
        if isinstance(reply, dict):
            self._absorb_health(address, reply.get("health"))
            return reply
        return None

    def _absorb_health(self, address: str, health: Any) -> None:
        """Record a peer's piggybacked health sample as local gauges."""
        if not isinstance(health, dict):
            return
        self.metrics.counter(
            "swim.health_piggybacked",
            help="health samples received on SWIM ping replies",
        ).inc()
        for field in ("queue_depth", "pending_repair", "entries"):
            value = health.get(field)
            if isinstance(value, (int, float)):
                self.metrics.gauge(
                    f"swim.peer_{field}",
                    help=f"last piggybacked {field} per pinged peer",
                ).set(float(value), peer=address)

    async def _indirect_ping(self, address: str) -> dict | None:
        """Ask ``swim_proxies`` other members to ping ``address`` for us."""
        member = self.table.get(address)
        if member is None or self.swim_proxies == 0:
            return None
        candidates = [
            proxy for proxy in self.table.peers(ALIVE) if proxy != address
        ]
        if not candidates:
            return None
        self._swim_rng.shuffle(candidates)
        proxies = candidates[: self.swim_proxies]
        request = {
            "address": address,
            "host": member.host,
            "port": member.port,
            "timeout_ms": self.ping_timeout_ms,
        }

        async def ask(proxy: str) -> Any:
            try:
                return await self._call_member(
                    proxy, "ping-req", request,
                    timeout_ms=2.0 * self.ping_timeout_ms,
                )
            except ReproError:
                return None

        self.metrics.counter(
            "swim.ping_reqs", help="indirect ping-req probes issued"
        ).inc(len(proxies))
        replies = await asyncio.gather(*(ask(proxy) for proxy in proxies))
        for reply in replies:
            if isinstance(reply, dict):
                return reply
        return None

    async def _swim_tick(self) -> None:
        now = self._now_ms()
        # 1. Age out suspicions that were never refuted.
        evicted = []
        for address in self.table.expired_suspects(now, self.suspect_timeout_ms):
            member = self.table.get(address)
            suspected_at = member.suspected_at or now
            if self.table.confirm_dead(address):
                evicted.append(address)
                self.metrics.counter(
                    "swim.dead", help="members this peer confirmed dead"
                ).inc()
                self.metrics.histogram(
                    "swim.detect_ms",
                    help="suspicion-to-eviction latency",
                ).observe(now - suspected_at)
                logger.info(
                    "peer %s: %s is dead (suspect for %.0f ms), evicting",
                    self.address, address, now - suspected_at,
                )
        if evicted:
            self._rebuild_ring()
            if self._evicted_at is None:
                self._evicted_at = now
            self._flight_dump(f"confirmed-dead:{','.join(evicted)}")
            self._repair_now.set()
            await self._broadcast_membership(exclude=set(evicted))
        # 2. Probe one member: direct ping, then through proxies.
        target = self._next_ping_target()
        if target is None:
            return
        reply = await self._direct_ping(target)
        if reply is None and self.table.state_of(target) != DEAD:
            reply = await self._indirect_ping(target)
        if reply is not None:
            self._after_merge(self.table.merge(reply, self._now_ms()))
            return
        # 3. Unreachable both ways: suspect and tell the ring (including
        # the accused, so an alive-but-slow peer can refute).
        if self.table.state_of(target) == DEAD:
            return  # a failed resurrection probe changes nothing
        if self.table.suspect(target, self._now_ms()):
            self.metrics.counter(
                "swim.suspected", help="members this peer marked suspect"
            ).inc()
            self.flight.record_event("swim-suspect", target=target)
            logger.info("peer %s: suspecting %s", self.address, target)
            await self._broadcast_suspect(target)

    async def _broadcast_suspect(self, target: str) -> None:
        """Best-effort fan-out of one suspicion record."""
        member = self.table.get(target)
        if member is None:
            return
        accusation = {
            "address": target,
            "host": member.host,
            "port": member.port,
            "incarnation": member.incarnation,
        }

        async def push(address: str) -> None:
            try:
                await self._call_member(
                    address, "suspect", accusation,
                    timeout_ms=self.ping_timeout_ms,
                )
            except ReproError:
                pass  # gossip is redundant; the next ping re-delivers

        recipients = self.table.peers(ALIVE, SUSPECT)
        if recipients:
            await asyncio.gather(*(push(address) for address in recipients))

    # -- server-driven anti-entropy repair -------------------------------

    async def _repair_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                await asyncio.wait_for(
                    self._repair_now.wait(),
                    timeout=self.repair_interval_ms / 1000.0,
                )
            except asyncio.TimeoutError:
                pass
            self._repair_now.clear()
            if self._stopped.is_set():
                return
            try:
                created = await self.repair_round()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - repair must survive
                logger.exception("repair round failed on %s", self.address)
                continue
            if created:
                # Converge fast: re-run immediately until nothing is
                # missing (the digest makes repeat rounds cheap).
                self._repair_now.set()

    async def repair_round(self) -> int:
        """One anti-entropy pass from this peer's entries outward.

        For every held entry, computes the replica set over the current
        (non-dead) ring, digests each remote target for the keys it
        should hold (``has-entries``), and pushes only the missing copies
        (``repair-push``).  Entries whose ownership moved onto this peer
        are promoted in place.  Returns the copies created.
        """
        started = self._now_ms()
        wanted: dict[str, list[tuple[int, Any, bool]]] = {}
        for identifier, entry in list(self.store.entries()):
            targets = self.replica_owners(identifier)
            if targets and targets[0] == self.node_id and not entry.primary:
                self.store.store(
                    identifier, entry.descriptor, entry.partition, primary=True
                )
            for rank, target in enumerate(targets):
                if target == self.node_id:
                    continue
                address = self._address_of(target)
                wanted.setdefault(address, []).append(
                    (identifier, entry, rank == 0)
                )
        created = 0
        missing = 0
        for address, items in wanted.items():
            digest = [
                (identifier, entry.descriptor)
                for identifier, entry, _ in items
            ]
            try:
                held = await self._call_member(
                    address, "has-entries", digest,
                    timeout_ms=CONTROL_TIMEOUT_MS,
                )
            except ReproError:
                self.metrics.counter(
                    "repair.push.peer_failures",
                    help="repair digests whose target never answered",
                ).inc()
                continue
            for (identifier, entry, primary), has in zip(items, held):
                if has:
                    self.metrics.counter(
                        "repair.push.skipped",
                        help="copies the digest showed already in place",
                    ).inc()
                    continue
                missing += 1
                try:
                    stored = await self._call_member(
                        address,
                        "repair-push",
                        (identifier, entry.descriptor, entry.partition,
                         primary),
                        timeout_ms=CONTROL_TIMEOUT_MS,
                    )
                except ReproError:
                    self.metrics.counter(
                        "repair.push.failures",
                        help="repair pushes whose target never answered",
                    ).inc()
                    continue
                if stored:
                    created += 1
                    self.metrics.counter(
                        "repair.push.copies",
                        help="missing copies re-replicated by this peer",
                    ).inc()
        self.metrics.counter(
            "repair.push.rounds", help="anti-entropy rounds run"
        ).inc()
        self.metrics.histogram(
            "repair.push.round_ms", help="wall time of one repair round"
        ).observe(self._now_ms() - started)
        #: Replica debt after this round: copies found missing minus
        #: copies successfully pushed — what telemetry and the SWIM
        #: health piggyback report as ``pending_repair``.
        self._pending_repair = max(0, missing - created)
        self.metrics.gauge(
            "repair.pending", help="missing copies left after the last round"
        ).set(self._pending_repair)
        if created or missing:
            self.flight.record_event(
                "repair-round", created=created, missing=missing
            )
        if missing == 0 and self._evicted_at is not None:
            self.metrics.histogram(
                "repair.heal_ms",
                help="eviction-to-fully-replicated latency",
            ).observe(self._now_ms() - self._evicted_at)
            self._evicted_at = None
        if created or missing:
            logger.info(
                "peer %s: repair round pushed %d/%d missing copies",
                self.address, created, missing,
            )
        return created

    # -- data hand-off ---------------------------------------------------

    async def rebalance(self) -> int:
        """Re-place local entries against the current ring.

        Pushes each held entry to every peer of its replica set (the
        newcomer after a join, the new successor after a leave) and drops
        the local copy when this peer is no longer in the set.  Returns
        the number of copies pushed.  Unreachable targets are skipped —
        anti-entropy repair owns eventual convergence.
        """
        pushed = 0
        for identifier, entry in list(self.store.entries()):
            targets = self.replica_owners(identifier)
            for rank, target in enumerate(targets):
                if target == self.node_id:
                    continue
                try:
                    stored = await self._call_member(
                        self._address_of(target),
                        "store-request",
                        (identifier, entry.descriptor, entry.partition,
                         rank == 0),
                        peer_id=target,
                        timeout_ms=CONTROL_TIMEOUT_MS,
                    )
                except ReproError:
                    logger.warning(
                        "rebalance push of id %d to peer %d failed",
                        identifier, target,
                    )
                    continue
                if stored:
                    pushed += 1
            if self.node_id not in targets:
                self.store.remove(identifier, entry.descriptor, via="handoff")
            elif targets[0] == self.node_id and not entry.primary:
                # Ownership moved onto this replica: promote in place.
                self.store.store(
                    identifier, entry.descriptor, entry.partition, primary=True
                )
        return pushed

    async def _hand_off_and_leave(self) -> int:
        """Graceful departure: push every entry to its post-leave replica
        set, announce the departure, then stop serving."""
        self.table.depart()
        self._rebuild_ring()
        moved = await self.rebalance()
        await self._broadcast_membership(exclude=set())
        logger.info(
            "peer %s leaving: moved %d copie(s) to %d member(s)",
            self.address, moved, len(self.table.endpoints()),
        )
        self._stopped.set()
        return moved

    # -- request dispatch --------------------------------------------------

    async def _handle(self, kind: str, payload: Any) -> Any:
        if kind in DATA_KINDS:
            return self.logic.handle(kind, payload)
        if kind == "hello":
            endpoints = self.table.endpoints()
            return {
                "address": self.address,
                "node_id": self.node_id,
                "config": wire.config_to_wire(self.config),
                "epoch": self.table.epoch,
                "members": {
                    address: [host, port]
                    for address, (host, port) in endpoints.items()
                },
                "states": {
                    address: [member.state, member.incarnation]
                    for address, member in self.table.members.items()
                },
            }
        if kind == "join":
            address = str(payload["address"])
            self.table.add(
                address, str(payload["host"]), int(payload["port"])
            )
            self._rebuild_ring()
            reply = self._membership_payload()
            await self._broadcast_membership(exclude={address})
            await self.rebalance()
            return reply
        if kind == "member-update":
            outcome = self.table.merge(payload, self._now_ms())
            if outcome.joined:
                # A genuinely new member must receive its share of the
                # data; re-place our entries against the new ring.
                self._rebuild_ring()
                await self.rebalance()
            self._after_merge(outcome)
            return outcome.changed
        if kind == "swim-ping":
            if isinstance(payload, dict):
                self._after_merge(self.table.merge(payload, self._now_ms()))
            # The failure detector doubles as a health sampler: the reply
            # piggybacks queue depth and repair debt.  ``merge()`` only
            # reads "epoch"/"members", so peers that predate the field
            # (and the chaos connection filter) ignore it — bit-compatible
            # by construction.
            return {**self._membership_payload(), "health": self._health_payload()}
        if kind == "ping-req":
            return await self._serve_ping_req(payload)
        if kind == "suspect":
            return self._serve_suspect(payload)
        if kind == "has-entries":
            return [
                self.logic.holds(int(identifier), descriptor)
                for identifier, descriptor in payload
            ]
        if kind == "repair-push":
            identifier, descriptor, partition, primary = payload
            self.metrics.counter(
                "repair.push.received", help="repair pushes served"
            ).inc()
            return self.store.store(
                identifier, descriptor, partition, primary=primary,
                via="repair-push",
            )
        if kind == "chaos-set":
            return self._serve_chaos_set(payload)
        if kind == "entries":
            records = [
                (identifier, entry.descriptor, entry.partition, entry.primary)
                for identifier, entry in self.store.entries()
            ]
            if isinstance(payload, dict):
                # Chunked form: {"offset", "limit"} -> {"total", "entries"}.
                # Pages bound the reply frame; the legacy None payload
                # keeps the full list for small stores and old callers.
                offset = max(0, int(payload.get("offset", 0)))
                limit = max(1, int(payload.get("limit", ENTRIES_PAGE_SIZE)))
                return {
                    "total": len(records),
                    "entries": records[offset : offset + limit],
                }
            return records
        if kind == "metrics":
            return self.metrics.snapshot()
        if kind == "telemetry":
            return self._serve_telemetry(payload)
        if kind == "leave":
            return await self._hand_off_and_leave()
        if kind == "ping":
            return True
        if kind == "shutdown":
            self._stopped.set()
            return True
        # Unknown kinds surface the same ConfigError the in-process
        # handler raises, reported over the wire as an error reply.
        return self.logic.handle(kind, payload)

    async def _serve_ping_req(self, payload: Any) -> Any:
        """Probe a third peer on a requester's behalf (SWIM ping-req)."""
        target = str(payload["address"])
        host, port = str(payload["host"]), int(payload["port"])
        timeout_ms = float(payload.get("timeout_ms", self.ping_timeout_ms))
        if target in self.chaos_blocked:
            return False
        self.metrics.counter(
            "swim.ping_reqs_served", help="ping-req probes served as proxy"
        ).inc()
        try:
            reply = await wire.call(
                host, port, "swim-ping", self._membership_payload(),
                sender=self.node_id, sender_address=self.address,
                timeout_ms=timeout_ms, pool=self._pool,
            )
        except ReproError:
            return False
        if isinstance(reply, dict):
            self._after_merge(self.table.merge(reply, self._now_ms()))
            return reply
        return False

    def _serve_suspect(self, payload: Any) -> Any:
        """Apply one gossiped suspicion record (possibly about us)."""
        address = str(payload["address"])
        incarnation = int(payload["incarnation"])
        if address == self.address:
            if incarnation >= self.table.incarnation:
                # Someone suspects us and we are obviously alive: refute.
                me = self.table.get(self.address)
                me.incarnation = incarnation
                self.table.refute()
                self.metrics.counter(
                    "swim.refuted",
                    help="times this peer refuted an accusation against it",
                ).inc()
                logger.info(
                    "peer %s: refuting suspicion, incarnation now %d",
                    self.address, self.table.incarnation,
                )
                self._persist_incarnation()
                self._spawn(self._broadcast_membership(exclude=set()))
            return self._membership_payload()
        outcome = self.table.merge(
            {
                "epoch": 0,
                "members": {
                    address: [
                        str(payload.get("host", "")),
                        int(payload.get("port", 0)),
                        SUSPECT,
                        incarnation,
                    ]
                },
            },
            self._now_ms(),
        )
        self._after_merge(outcome)
        return outcome.changed

    def _serve_telemetry(self, payload: Any) -> dict:
        """One node's full observability surface, in one reply.

        With ``{"spans_for": <trace id>}`` in the payload, returns only
        the retained span fragments of that distributed trace (what
        :meth:`ClusterClient.query_traced` collects for stitching).
        Otherwise returns the versioned snapshot the
        :class:`~repro.rpc.client.ClusterScraper` merges: registry
        metrics, queue depth, SWIM state, a partition/replica census, and
        the newest span fragments.  Both capture timestamps travel —
        monotonic for in-process deltas, wall for cross-node skew checks.
        """
        body = payload if isinstance(payload, dict) else {}
        if body.get("spans_for"):
            return {
                "version": TELEMETRY_VERSION,
                "node": self.address,
                "spans": self.flight.spans_for(str(body["spans_for"])),
            }
        entries = 0
        primaries = 0
        for _identifier, entry in self.store.entries():
            entries += 1
            if entry.primary:
                primaries += 1
        return {
            "version": TELEMETRY_VERSION,
            "node": self.address,
            "node_id": self.node_id,
            "captured_mono_ms": self._now_ms(),
            "captured_wall_ms": time.time() * 1000.0,
            "queue_depth": self._inflight,
            "pending_repair": self._pending_repair,
            "swim": {
                "epoch": self.table.epoch,
                "incarnation": self.table.incarnation,
                "states": {
                    address: [member.state, member.incarnation]
                    for address, member in self.table.members.items()
                },
            },
            "census": {
                "entries": entries,
                "primaries": primaries,
                "replicas": entries - primaries,
            },
            "metrics": self.metrics.snapshot(),
            "spans": self.flight.recent(int(body.get("spans", 32))),
            "flight": {
                "recorded": self.flight.recorded,
                "retained": len(self.flight),
                "dumps": self.flight.dumps,
            },
        }

    def _serve_chaos_set(self, payload: Any) -> dict:
        """Install fault-injection settings (the chaos harness hook)."""
        body = payload if isinstance(payload, dict) else {}
        if "delay_ms" in body:
            self.chaos_delay_ms = max(0.0, float(body["delay_ms"]))
        if "drop" in body:
            drop = float(body["drop"])
            if not 0.0 <= drop < 1.0:
                raise ReproError("chaos drop probability must be in [0, 1)")
            self.chaos_drop = drop
        if "blocked" in body:
            self.chaos_blocked = {str(a) for a in body["blocked"]}
        if "seed" in body:
            self._chaos_rng = random.Random(int(body["seed"]))
        return {
            "delay_ms": self.chaos_delay_ms,
            "drop": self.chaos_drop,
            "blocked": sorted(self.chaos_blocked),
        }

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopped.is_set():
            writer.close()
            return
        self._connections[writer] = asyncio.current_task()
        try:
            while True:
                request = await wire.read_frame(reader)
                if request is None:
                    return
                sender_address = request.get("from")
                if sender_address and sender_address in self.chaos_blocked:
                    return  # partitioned: drop silently, like a dead link
                if self.chaos_delay_ms > 0:
                    await asyncio.sleep(self.chaos_delay_ms / 1000.0)
                if (
                    self.chaos_drop > 0.0
                    and self._chaos_rng.random() < self.chaos_drop
                ):
                    return  # injected loss: hang up without a reply
                kind = str(request.get("kind"))
                # A garbled or missing trace envelope degrades the request
                # to untraced (``from_wire`` returns None) — propagation
                # can add observability but never fail a request.
                ctx = TraceContext.from_wire(request.get("trace"))
                self._inflight += 1
                self.metrics.counter(
                    "server.requests", help="requests served, by kind"
                ).inc(kind=kind)
                self.metrics.gauge(
                    "server.inflight", help="requests executing right now"
                ).set(self._inflight)
                started = self._now_ms()
                fragment: SpanFragment | None = None
                if (ctx is not None and ctx.sampled) or kind in DATA_KINDS:
                    fragment = SpanFragment(
                        f"serve:{kind}",
                        self.address,
                        trace_id=ctx.trace_id if ctx is not None else None,
                        parent_span_id=(
                            ctx.parent_span_id if ctx is not None else None
                        ),
                        attrs={"kind": kind, "inflight": self._inflight},
                    )
                try:
                    value = await self._handle(
                        kind,
                        wire.decode_value(request.get("payload")),
                    )
                    reply = {
                        "id": request.get("id", 0),
                        "ok": True,
                        "value": wire.encode_value(value),
                    }
                    if fragment is not None:
                        fragment.end(outcome="ok")
                except Exception as exc:  # noqa: BLE001 - reported to caller
                    reply = {
                        "id": request.get("id", 0),
                        "ok": False,
                        "error": str(exc),
                        "error_type": type(exc).__name__,
                    }
                    if fragment is not None:
                        fragment.end(
                            outcome="error", error=type(exc).__name__
                        )
                finally:
                    self._inflight -= 1
                    self.metrics.gauge("server.inflight").set(self._inflight)
                    self.metrics.histogram(
                        "server.service_ms",
                        help="request service time, by kind",
                    ).observe(self._now_ms() - started, kind=kind)
                    if fragment is not None:
                        self.flight.record_span(fragment)
                await wire.write_frame(writer, reply)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return  # client hung up mid-exchange; nothing to answer
        except wire.WireError:
            return  # torn or corrupt frame; drop the connection
        finally:
            self._connections.pop(writer, None)
            writer.close()


async def run_server(
    address: str,
    config: SystemConfig,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    bootstrap: tuple[str, int] | None = None,
    swim_interval_ms: float = 0.0,
    suspect_timeout_ms: float | None = None,
    swim_proxies: int = 2,
    repair_interval_ms: float = 0.0,
    flight_dir: str | None = None,
    data_dir: str | None = None,
    wal_fsync: bool = True,
    compact_every: int = 512,
) -> None:
    """Start one peer and serve until asked to stop (``repro serve``)."""
    server = PeerServer(
        address,
        config,
        host=host,
        port=port,
        bootstrap=bootstrap,
        swim_interval_ms=swim_interval_ms,
        suspect_timeout_ms=suspect_timeout_ms,
        swim_proxies=swim_proxies,
        repair_interval_ms=repair_interval_ms,
        flight_dir=flight_dir,
        data_dir=data_dir,
        wal_fsync=wal_fsync,
        compact_every=compact_every,
    )
    await server.serve_forever()
