"""The range-selection P2P system (paper Section 4).

Query procedure, exactly as the paper's pseudocode sketches it:

1. hash the (possibly padded) selection range to ``l`` identifiers;
2. route each identifier through Chord to its owning peer, counting hops;
3. each owner searches the identifier's bucket for its best match and
   replies with the candidate descriptor and score;
4. the querying peer picks the overall best reply and, for the database
   front end, fetches the winning partition's tuples from that peer;
5. "if none of the match is exact, also store the computed partition at
   the peers holding the computed identifiers."
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Callable, NamedTuple

from repro.chord.hashing import rehash_for_placement
from repro.core.config import SystemConfig
from repro.core.matcher import Matcher, matcher_by_name
from repro.core.overlays import ChordRouter, build_overlay
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import ConfigError, PeerUnavailableError
from repro.lsh import DomainMinHashIndex, LSHIdentifierScheme, family_for_domain
from repro.net.message import Message
from repro.net.transport import SimulatedNetwork
from repro.obs.log import get_logger
from repro.obs.registry import (
    MetricsRegistry,
    RegistryBackedCounters,
    registry_field,
)
from repro.obs.trace import NULL_TRACE, QueryTrace
from repro.ranges.interval import IntRange
from repro.rpc.engine import MatchReply, QueryEngine
from repro.rpc.peer import PeerLogic
from repro.rpc.transports import SyncTransport
from repro.storage.store import LRUEviction, NoEviction, PeerStore
from repro.util.rng import derive_rng

__all__ = [
    "RangeSelectionSystem",
    "RangeQueryResult",
    "LocateResult",
    "MatchReply",
    "ReplicationPlan",
]

logger = get_logger("core.system")

#: Default relation/attribute used by the pure-simulation experiments, which
#: hash bare integer ranges without a real schema behind them.
SIM_RELATION = "R"
SIM_ATTRIBUTE = "value"


class ReplicationPlan(NamedTuple):
    """One repair round's work (see
    :meth:`RangeSelectionSystem.replication_plan`)."""

    #: ``(identifier, descriptor, source_id, partition, target_id, primary)``
    #: per copy to make, in scan order.
    copies: list[tuple[int, PartitionDescriptor, int, Partition | None, int, bool]]
    #: ``(identifier, descriptor)`` entries some peer holds but no alive
    #: peer does: unrepairable, since no alive holder can source a copy.
    lost: set[tuple[int, PartitionDescriptor]]


@dataclass(frozen=True)
class LocateResult:
    """Outcome of locating candidate partitions for one range.

    ``owners`` records the peer that *answered* each identifier (the
    nominal owner, or the replica that served after failover); identifiers
    whose entire replica set was unreachable are absent from ``owners``
    and counted in ``unreachable``.
    """

    query: IntRange
    identifiers: tuple[int, ...]
    owners: tuple[int, ...]
    replies: tuple[MatchReply, ...]
    best: MatchReply | None
    overlay_hops: int
    peers_contacted: int
    #: Identifiers answered by a non-primary replica.
    failovers: int = 0
    #: Identifiers for which no replica answered at all.
    unreachable: int = 0


@dataclass(frozen=True)
class RangeQueryResult:
    """Outcome of one approximate range query.

    ``similarity`` is Jaccard between the original query and the match
    (the x-axis of Figures 6-7); ``recall`` is the containment of the
    original query in the match (the x-axis of Figures 8-10).  Both are 0.0
    when nothing matched.
    """

    query: IntRange
    hashed_query: IntRange
    matched: PartitionDescriptor | None
    similarity: float
    recall: float
    matcher_score: float
    exact: bool
    stored: bool
    overlay_hops: int
    peers_contacted: int

    @property
    def found(self) -> bool:
        """Whether any candidate partition was located."""
        return self.matched is not None


class SystemCounters(RegistryBackedCounters):
    """Running totals the system maintains across queries.

    Served from a :class:`~repro.obs.MetricsRegistry` (counters named
    ``system.<field>``); the attribute API is unchanged from the old
    dataclass.  A standalone ``SystemCounters()`` binds a private
    registry; the system binds its unified one.
    """

    SCALAR_FIELDS = (
        "queries",
        "exact_hits",
        "misses",
        "stores",
        "placements",
        "overlay_hops",
        "failovers",
        "failed_lookups",
        "replica_placements",
        "store_failures",
        "repairs",
    )

    queries = registry_field("queries")
    exact_hits = registry_field("exact_hits")
    misses = registry_field("misses")
    stores = registry_field("stores")
    placements = registry_field("placements")
    overlay_hops = registry_field("overlay_hops")
    #: Lookups served by a successor replica after the owner was down.
    failovers = registry_field("failovers")
    #: Lookups for which every replica was unreachable.
    failed_lookups = registry_field("failed_lookups")
    #: Redundant (non-primary) placements made by the replication layer.
    replica_placements = registry_field("replica_placements")
    #: Store placements skipped because the target replica was unreachable.
    store_failures = registry_field("store_failures")
    #: Copies created by :meth:`RangeSelectionSystem.repair_replicas`.
    repairs = registry_field("repairs")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._bind(registry, "system")
        self.by_origin = self._labeled("queries_by_origin", "origin")


class RangeSelectionSystem:
    """All peers, the ring, the hash scheme, and the query procedure."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        family = family_for_domain(config.family, config.domain)
        self.scheme = LSHIdentifierScheme.from_family(
            family, l=config.l, k=config.k, seed=config.seed, id_bits=config.id_bits
        )
        self._accel: DomainMinHashIndex | None = None
        if config.accelerate:
            self._accel = DomainMinHashIndex(self.scheme, config.domain)
        self.matcher: Matcher = matcher_by_name(config.matcher)
        self.router = build_overlay(
            config.overlay,
            config.n_peers,
            id_bits=config.id_bits,
            dimensions=config.can_dimensions,
            seed=config.seed,
            successor_list_size=max(4, config.replicas),
        )
        #: The underlying Chord ring when the overlay is Chord (used by the
        #: churn helpers and Chord-specific tests); None under CAN.
        self.ring = (
            self.router.ring if isinstance(self.router, ChordRouter) else None
        )
        #: The unified metrics registry: the transport's TrafficStats, the
        #: SystemCounters, and any engine/collector bound to this system
        #: all publish here (one export surface; see :mod:`repro.obs`).
        self.metrics = MetricsRegistry()
        self.network = SimulatedNetwork(registry=self.metrics)
        self.stores: dict[int, PeerStore] = {}
        for node_id in self.router.node_ids:
            self._register_peer(node_id)
        self._rng = derive_rng(config.seed, "system/origins")
        self.counters = SystemCounters(registry=self.metrics)
        #: The synchronous transport + the shared query engine bound to it.
        #: Requests on :class:`~repro.rpc.transports.SyncTransport` settle
        #: immediately, so the engine's futures are already resolved when
        #: :meth:`locate` / :meth:`query` / :meth:`store_partition` return.
        self.transport = SyncTransport(self.network)
        self._engine = QueryEngine(self, self.transport)

    def _place(self, identifier: int) -> int:
        """Ring position for a bucket identifier.

        ``rehash`` placement (the default) spreads buckets uniformly with
        SHA-1; ``direct`` placement uses the raw LSH identifier, which is
        what the paper's text literally describes — and which concentrates
        load, because min-hash identifiers are small by construction.  The
        bucket is always keyed by the raw identifier, so matching semantics
        are identical under both modes.
        """
        if self.config.placement == "rehash":
            return rehash_for_placement(identifier, self.config.id_bits)
        return identifier

    # ------------------------------------------------------------------
    # Peer wiring
    # ------------------------------------------------------------------

    def _register_peer(self, node_id: int) -> None:
        if config_cap := self.config.max_partitions_per_peer:
            eviction: LRUEviction | NoEviction = LRUEviction(config_cap)
        else:
            eviction = NoEviction()
        self.stores[node_id] = PeerStore(node_id, eviction)
        self.network.register(node_id, self._make_handler(node_id))

    def peer_handler(self, node_id: int):
        """The message handler of one peer, for wiring onto other
        transports (the event-driven engine registers these on its
        :class:`~repro.sim.network.AsyncNetwork`)."""
        return self._make_handler(node_id)

    def place_identifier(self, identifier: int) -> int:
        """Public access to the placement mapping (see :meth:`_place`)."""
        return self._place(identifier)

    def _make_handler(self, node_id: int):
        # One PeerLogic per peer: the same dispatch the socket server
        # runs, so the data plane cannot drift between transports.
        logic = PeerLogic(
            node_id,
            self.stores[node_id],
            self.matcher,
            local_index=self.config.local_index,
        )

        def handler(message: Message):
            return logic.handle(message.kind, message.payload)

        return handler

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def identifiers_for(self, r: IntRange) -> list[int]:
        """The ``l`` identifiers of ``r``.

        Uses the O(1) range-minimum index when the range lies inside the
        configured domain; ranges over other attribute domains (the SQL
        front end hashes ages, ids and date codes alike) fall back to the
        direct vectorized path.  Both paths produce identical identifiers.
        """
        if self._accel is not None:
            domain = self.config.domain
            if r.start >= domain.low and r.end <= domain.high:
                return self._accel.identifiers(r)
        return self.scheme.identifiers(r)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def replica_owners(self, identifier: int) -> list[int]:
        """The nominal replica set of ``identifier``: its owner followed by
        the next ``replicas - 1`` distinct ring successors."""
        return self.router.replica_set(
            self._place(identifier), self.config.replicas
        )

    def replica_targets(
        self, identifier: int, is_alive: Callable[[int], bool]
    ) -> list[int]:
        """Where ``identifier`` should live *right now*: the first
        ``replicas`` alive peers down the successor chain.  This is the
        repair loop's goal state — it keeps data on peers a failover
        lookup will actually reach."""
        return self.router.replica_set(
            self._place(identifier), self.config.replicas, predicate=is_alive
        )

    def failover_candidates(
        self,
        identifier: int,
        is_alive: Callable[[int], bool] | None = None,
    ) -> list[int]:
        """Peers to ask for ``identifier``, in order: the nominal replica
        set first (warm copies live there), then — when liveness is known —
        the alive successors the repair loop re-replicates onto.

        With ``replicas == 1`` there is nothing to fail over to: the list
        is just the owner, reproducing the unreplicated behaviour (a
        crashed owner means a lost lookup)."""
        candidates = self.replica_owners(identifier)
        if self.config.replicas > 1 and is_alive is not None:
            for peer in self.replica_targets(identifier, is_alive):
                if peer not in candidates:
                    candidates.append(peer)
        return candidates

    def crash_peer(self, node_id: int) -> None:
        """Fail-stop a peer on the synchronous transport (its data stays
        in place but is unreachable until :meth:`recover_peer`)."""
        self.network.crash(node_id)

    def recover_peer(self, node_id: int) -> None:
        """Bring a synchronously-crashed peer back."""
        self.network.recover(node_id)

    # ------------------------------------------------------------------
    # Query procedure
    # ------------------------------------------------------------------

    def pick_origin(self) -> int:
        """A uniformly random querying peer."""
        router = self.router
        return router.node_id_at(int(self._rng.integers(router.node_count)))

    def start_trace(self, query: IntRange | None = None, **attrs) -> QueryTrace:
        """A :class:`~repro.obs.QueryTrace` for the synchronous path.

        The trace clock is the transport's cumulative simulated wire time
        (``network.stats.latency_ms``), so span durations measure the
        milliseconds of network traffic each step cost — the synchronous
        transport has no other notion of time.  Pass the trace to
        :meth:`query` / :meth:`locate` / :meth:`store_partition`.
        """
        if query is not None:
            attrs.setdefault("query", str(query))
        attrs.setdefault("path", "sync")
        return QueryTrace(clock=lambda: self.network.stats.latency_ms, **attrs)

    def locate(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        trace: QueryTrace | None = None,
    ) -> LocateResult:
        """Steps 1-4 of the query procedure (no storing).

        When the identifier's owner is unreachable the lookup fails over
        down the successor list and answers in degraded mode from whichever
        replica responds; each failover hop is charged one overlay edge
        (the successor pointer is already known, no re-routing needed).

        With a ``trace``, the lifecycle is recorded span by span: a
        ``hash`` span with one ``group`` event per identifier, then one
        ``chain`` span per identifier carrying its ``route-hop`` events
        (with the finger-table edge each hop followed), per-replica
        ``attempt`` events, ``failover`` steps and the ``match-reply``.
        """
        trace = trace if trace is not None else NULL_TRACE
        if origin is None:
            origin = self.pick_origin()
        # The sync transport settles every request before returning, so
        # the shared engine's future is already resolved here.
        phase = self._engine.locate(
            query, relation, attribute, origin, trace=trace
        ).result()
        owners = phase.answered_by
        replies = tuple(
            c.reply
            if c.reply is not None
            else MatchReply(c.owner, c.identifier, None, 0.0)
            for c in phase.chains
        )
        return LocateResult(
            query=query,
            identifiers=tuple(c.identifier for c in phase.chains),
            owners=owners,
            replies=replies,
            best=phase.best,
            overlay_hops=phase.overlay_hops,
            peers_contacted=len(set(owners)),
            failovers=phase.failovers,
            unreachable=phase.timeouts,
        )

    def store_partition(
        self,
        r: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        partition: Partition | None = None,
        origin: int | None = None,
        identifiers: list[int] | None = None,
        owners: list[int] | None = None,
        trace: QueryTrace | None = None,
    ) -> int:
        """Step 5: store a partition at the ``l`` identifier owners.

        With ``replicas = r > 1`` each identifier's entry is additionally
        placed on the owner's ``r - 1`` ring successors, marked as
        replicas.  Unreachable targets are skipped (and counted) — the
        repair loop re-establishes the replication factor later.

        Returns the number of *new* primary placements.  ``identifiers``
        may be passed from a prior :meth:`locate` to avoid re-hashing;
        ``owners`` is accepted for backward compatibility but placement
        always targets the identifiers' *current* replica sets (with
        ``replicas = 1`` and no faults the two coincide by construction).
        A ``trace`` records the store fan-out as one ``placement`` event
        per (identifier, target) pair.
        """
        del owners  # placement recomputes replica sets; see docstring
        trace = trace if trace is not None else NULL_TRACE
        if origin is None:
            origin = self.pick_origin()
        outcome = self._engine.store(
            r, relation, attribute, origin,
            identifiers=identifiers, partition=partition, trace=trace,
        ).result()
        return outcome.new_placements

    def fetch_rows(
        self, reply: MatchReply, origin: int
    ) -> Partition | None:
        """Retrieve the winning partition's tuples from its holder."""
        return self.network.send(
            origin,
            reply.peer_id,
            "fetch-partition",
            payload=(reply.identifier, reply.descriptor),
        )

    def query(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        padding: float | None = None,
        trace: QueryTrace | None = None,
    ) -> RangeQueryResult:
        """The full query procedure over a bare range (simulation mode).

        Padding (configured, or overridden per query — the adaptive
        controller uses the override) expands the range *before* hashing
        and storing, exactly as Section 5.2's padded-query experiment does;
        similarity and recall are always reported against the original
        query.

        Pass a trace from :meth:`start_trace` to capture the whole
        lifecycle; it is ended here with the outcome attributes.
        """
        trace = trace if trace is not None else NULL_TRACE
        if origin is None:
            origin = self.pick_origin()
        timed = self._engine.query(
            query, relation, attribute, origin, padding=padding, trace=trace
        ).result()
        answered = {
            c.reply.peer_id if c.reply is not None else c.owner
            for c in timed.chains
        }
        return RangeQueryResult(
            query=query,
            hashed_query=timed.hashed_query,
            matched=timed.matched,
            similarity=timed.similarity,
            recall=timed.recall,
            matcher_score=timed.matcher_score,
            exact=timed.exact,
            stored=timed.stored,
            overlay_hops=timed.overlay_hops,
            peers_contacted=len(answered),
        )

    # ------------------------------------------------------------------
    # Exact-match keys (Section 3.1: equality predicates)
    # ------------------------------------------------------------------

    def exact_store(self, key_identifier: int, descriptor: PartitionDescriptor,
                    partition: Partition | None = None, origin: int | None = None) -> bool:
        """Store a partition under an exact-match (SHA-1) identifier."""
        if origin is None:
            origin = self.pick_origin()
        owner = self.router.owner_of(key_identifier)
        return bool(
            self.network.send(
                origin,
                owner,
                "store-request",
                payload=(key_identifier, descriptor, partition, True),
                size_bytes=partition.size_bytes if partition else 64,
            )
        )

    def exact_lookup(
        self, key_identifier: int, origin: int | None = None
    ) -> tuple[Partition | None, int]:
        """Fetch the single partition stored under an exact identifier.

        Returns (partition-or-None, overlay hops).
        """
        if origin is None:
            origin = self.pick_origin()
        owner_id, hops = self.router.lookup(key_identifier, start_id=origin)
        store = self.stores[owner_id]
        bucket = store.bucket(key_identifier)
        if bucket is None:
            return (None, hops)
        entries = list(bucket)
        if not entries:
            return (None, hops)
        partition = self.network.send(
            origin,
            owner_id,
            "fetch-partition",
            payload=(key_identifier, entries[0].descriptor),
        )
        return (partition, hops)

    # ------------------------------------------------------------------
    # Membership changes (churn extension)
    # ------------------------------------------------------------------

    def join_peer(self, address: str):
        """Add a peer to the running system and hand over its partitions.

        The overlay is rebuilt (static mode; the protocol-level incremental
        join lives in :class:`~repro.chord.ring.ChordRing`), the new peer is
        wired to the transport with an empty store, and every cached entry
        now falling in the new peer's interval migrates to it.
        """
        if self.ring is None:
            raise ConfigError("the churn helpers require the chord overlay")
        node = self.ring.add_node(address)
        self._register_peer(node.node_id)
        self.ring.build()
        self.rebalance()
        return node

    def leave_peer(self, node_id: int) -> int:
        """Gracefully remove a peer, migrating its partitions first.

        The ring's :meth:`~repro.chord.ring.ChordRing.leave` hands back the
        identifier interval whose ownership moved; every entry the peer
        held (primary or replica) is re-placed on the identifier's current
        replica set, so no descriptor is lost and a replica that just
        became the owner's copy is promoted to primary in place.

        Returns the number of entries that created at least one new copy.
        """
        if self.ring is None:
            raise ConfigError("the churn helpers require the chord overlay")
        if len(self.ring.node_ids) <= 1:
            raise ConfigError("cannot remove the last peer of the system")
        departing = self.stores.pop(node_id)
        self.network.unregister(node_id)
        self.ring.leave(node_id)
        self.ring.build()
        moved = 0
        for identifier, entry in departing.entries():
            placed = False
            for rank, target in enumerate(self.replica_owners(identifier)):
                if self.stores[target].store(
                    identifier,
                    entry.descriptor,
                    entry.partition,
                    primary=rank == 0,
                ):
                    placed = True
            if placed:
                moved += 1
        return moved

    def rebalance(self) -> int:
        """Converge every cached entry onto its current replica set.

        For each stored (identifier, descriptor): ensure all ``replicas``
        desired holders have a copy, correct primary/replica flags after
        ownership moved, and drop copies from peers outside the set.  Used
        after membership changes.  Idempotent: a second call fixes
        nothing.  Returns the number of placements that needed fixing.
        """
        placements: dict[
            tuple[int, PartitionDescriptor], dict[int, "object"]
        ] = {}
        for store in self.stores.values():
            for identifier, entry in store.entries():
                placements.setdefault((identifier, entry.descriptor), {})[
                    store.peer_id
                ] = entry
        fixed = 0
        for (identifier, descriptor), holders in placements.items():
            desired = self.replica_owners(identifier)
            partition = next(
                (e.partition for e in holders.values() if e.partition is not None),
                None,
            )
            changed = False
            for rank, target in enumerate(desired):
                primary = rank == 0
                held = holders.get(target)
                if held is None:
                    self.stores[target].store(
                        identifier, descriptor, partition, primary=primary
                    )
                    changed = True
                elif held.primary != primary:
                    held.primary = primary
                    changed = True
            for holder_id in holders:
                if holder_id not in desired:
                    self.stores[holder_id].remove(identifier, descriptor)
                    changed = True
            if changed:
                fixed += 1
        return fixed

    def replication_plan(
        self, is_alive: Callable[[int], bool]
    ) -> ReplicationPlan:
        """The copy operations needed to restore the replication factor,
        and the identifiers lost outright, from one scan of the stores.

        Each copy is ``(identifier, descriptor, source_id, partition,
        target_id, primary)``: ``identifier`` should live on ``target_id``
        (an alive peer in its successor chain) but currently does not, and
        an alive ``source_id`` still holds it.  An entry whose every copy
        sits on crashed peers is unrepairable: it yields no copy and is
        listed in ``lost`` instead.  The scan skips empty stores and asks
        ``is_alive`` once per store.  Both the synchronous
        :meth:`repair_replicas` and the event-driven
        :class:`~repro.sim.repair.ReplicaRepairer` execute this plan —
        only the transport differs.
        """
        placements: dict[
            tuple[int, PartitionDescriptor], dict[int, "object"]
        ] = {}
        dead_held: set[tuple[int, PartitionDescriptor]] = set()
        for store in self.stores.values():
            if not store.bucket_count:
                continue
            peer_id = store.peer_id
            if not is_alive(peer_id):
                dead_held.update(
                    (identifier, entry.descriptor)
                    for identifier, entry in store.entries()
                )
                continue
            for identifier, entry in store.entries():
                placements.setdefault((identifier, entry.descriptor), {})[
                    peer_id
                ] = entry
        copies = []
        for (identifier, descriptor), holders in placements.items():
            targets = self.replica_targets(identifier, is_alive)
            missing = [t for t in targets if t not in holders]
            if not missing:
                continue
            source_id, source_entry = next(iter(holders.items()))
            partition = next(
                (e.partition for e in holders.values() if e.partition is not None),
                source_entry.partition,
            )
            for target in missing:
                copies.append((
                    identifier,
                    descriptor,
                    source_id,
                    partition,
                    target,
                    target == targets[0],
                ))
        return ReplicationPlan(copies, dead_held.difference(placements))

    def repair_replicas(
        self, is_alive: Callable[[int], bool] | None = None
    ) -> int:
        """One synchronous anti-entropy pass: re-replicate every
        under-replicated identifier onto alive successors.

        Copies travel peer-to-peer over the transport (charged like any
        store), so repair traffic shows up in :class:`TrafficStats`.
        Returns the number of copies created.
        """
        alive = is_alive if is_alive is not None else self.network.is_alive
        copies = 0
        for identifier, descriptor, source, partition, target, primary in (
            self.replication_plan(alive).copies
        ):
            try:
                self.network.send(
                    source,
                    target,
                    "store-request",
                    payload=(identifier, descriptor, partition, primary),
                    size_bytes=partition.size_bytes if partition else 64,
                )
            except PeerUnavailableError:
                self.counters.store_failures += 1
                continue
            copies += 1
        self.counters.repairs += copies
        if copies:
            logger.info("synchronous repair pass created %d copies", copies)
        return copies

    def check_placement_invariant(self) -> None:
        """Raise if any cached entry sits outside its replica set, or
        carries the wrong primary/replica flag."""
        for store in self.stores.values():
            for identifier, entry in store.entries():
                desired = self.replica_owners(identifier)
                if store.peer_id not in desired:
                    raise ConfigError(
                        f"entry for identifier {identifier} held by "
                        f"{store.peer_id} but owned by {desired}"
                    )
                expected_primary = store.peer_id == desired[0]
                if entry.primary != expected_primary:
                    raise ConfigError(
                        f"entry for identifier {identifier} at {store.peer_id} "
                        f"has primary={entry.primary}, expected "
                        f"{expected_primary}"
                    )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def load_distribution(self) -> list[int]:
        """Partitions stored per peer (the quantity of Figure 11)."""
        return [self.stores[nid].partition_count for nid in self.router.node_ids]

    def total_placements(self) -> int:
        """Total stored entries across all peers."""
        return sum(self.load_distribution())

    def unique_partitions(self) -> int:
        """Number of distinct partition descriptors stored system-wide."""
        seen: set[PartitionDescriptor] = set()
        for store in self.stores.values():
            for _, entry in store.entries():
                seen.add(entry.descriptor)
        return len(seen)
