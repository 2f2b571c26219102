"""Tests for the Chord ring: construction, routing, churn."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.lookup import LookupResult
from repro.chord.ring import ChordRing
from repro.errors import (
    ChordError,
    DuplicateNodeError,
    EmptyRingError,
    NodeNotFoundError,
)
from repro.util.rng import derive_rng


def built_ring(n: int, m: int = 16) -> ChordRing:
    ring = ChordRing(m=m)
    ring.add_nodes(n)
    ring.build()
    return ring


class TestMembership:
    def test_add_and_lookup_node(self):
        ring = ChordRing()
        node = ring.add_node("peer-0")
        assert node.node_id in ring
        assert ring.node(node.node_id) is node

    def test_add_nodes_exact_count_despite_collisions(self):
        ring = ChordRing(m=8)  # tiny space: collisions certain
        added = ring.add_nodes(100)
        assert len(added) == 100
        assert len(ring) == 100

    def test_duplicate_id_rejected(self):
        ring = ChordRing()
        ring.add_node(node_id=5)
        with pytest.raises(DuplicateNodeError):
            ring.add_node(node_id=5)

    def test_node_without_identity_rejected(self):
        with pytest.raises(ChordError):
            ChordRing().add_node()

    def test_unknown_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            ChordRing().node(7)

    def test_remove_node(self):
        ring = ChordRing()
        node = ring.add_node(node_id=9)
        ring.remove_node(node.node_id)
        assert node.node_id not in ring


class TestOwnership:
    def test_successor_of_simple(self):
        ring = ChordRing(m=8)
        for nid in (10, 100, 200):
            ring.add_node(node_id=nid)
        assert ring.successor_of(5) == 10
        assert ring.successor_of(10) == 10  # least id >= key
        assert ring.successor_of(150) == 200
        assert ring.successor_of(201) == 10  # wraps

    def test_predecessor_of(self):
        ring = ChordRing(m=8)
        for nid in (10, 100, 200):
            ring.add_node(node_id=nid)
        assert ring.predecessor_of(10) == 200
        assert ring.predecessor_of(100) == 10

    def test_owned_interval(self):
        ring = ChordRing(m=8)
        for nid in (10, 100, 200):
            ring.add_node(node_id=nid)
        assert ring.owned_interval(100) == (10, 100)
        assert ring.owned_interval(10) == (200, 10)

    def test_empty_ring_raises(self):
        with pytest.raises(EmptyRingError):
            ChordRing().successor_of(1)


class TestStaticBuild:
    def test_invariants_hold_after_build(self):
        ring = built_ring(200)
        ring.check_invariants()

    def test_build_empty_raises(self):
        with pytest.raises(EmptyRingError):
            ChordRing().build()

    def test_single_node_ring(self):
        ring = built_ring(1)
        node = ring.node(ring.node_ids[0])
        assert node.successor_id == node.node_id
        assert node.predecessor_id == node.node_id
        result = ring.lookup(123, start_id=node.node_id)
        assert result.owner_id == node.node_id
        assert result.hops == 0

    def test_two_node_ring_routing(self):
        ring = ChordRing(m=8)
        ring.add_node(node_id=10)
        ring.add_node(node_id=200)
        ring.build()
        result = ring.lookup(150, start_id=10)
        assert result.owner_id == 200
        assert result.hops == 1


class TestLookup:
    def test_owner_matches_successor_for_random_keys(self, rng):
        ring = built_ring(150)
        ids = ring.node_ids
        for _ in range(300):
            key = int(rng.integers(0, ring.space.size))
            start = ids[int(rng.integers(len(ids)))]
            result = ring.lookup(key, start_id=start)
            assert result.owner_id == ring.successor_of(key)

    def test_path_starts_at_origin_and_ends_at_owner(self, rng):
        ring = built_ring(80)
        start = ring.node_ids[0]
        result = ring.lookup(12345, start_id=start)
        assert result.path[0] == start
        assert result.path[-1] == result.owner_id
        assert result.hops == len(result.path) - 1

    def test_mean_hops_scale_logarithmically(self):
        """Paper Fig 12a: mean path length ~ (1/2) log2 N."""
        rng = derive_rng(17, "hops")
        ring = ChordRing(m=32)
        ring.add_nodes(1000)
        ring.build()
        ids = ring.node_ids
        hops = []
        for _ in range(1500):
            key = int(rng.integers(0, 2**32))
            start = ids[int(rng.integers(len(ids)))]
            hops.append(ring.lookup(key, start_id=start).hops)
        mean = sum(hops) / len(hops)
        expected = 0.5 * math.log2(1000)
        assert expected - 1.0 < mean < expected + 2.0

    def test_lookup_without_build_raises(self):
        ring = ChordRing()
        ring.add_node(node_id=1)
        with pytest.raises(ChordError):
            ring.lookup(5, start_id=1)

    def test_lookup_empty_raises(self):
        with pytest.raises(EmptyRingError):
            ChordRing().lookup(5)

    @given(st.integers(0, (1 << 16) - 1))
    @settings(max_examples=40, deadline=None)
    def test_lookup_correct_for_any_key(self, key):
        ring = _PROPERTY_RING
        result = ring.lookup(key, start_id=ring.node_ids[3])
        assert result.owner_id == ring.successor_of(key)


class TestLookupResult:
    def test_validates_hop_count(self):
        with pytest.raises(ValueError):
            LookupResult(key=1, owner_id=2, hops=5, path=(1, 2))

    def test_validates_terminal_node(self):
        with pytest.raises(ValueError):
            LookupResult(key=1, owner_id=9, hops=1, path=(1, 2))


class TestChurn:
    def test_join_then_stabilize_converges_to_static_build(self):
        ring = ChordRing(m=16)
        boot = ring.bootstrap("n-0")
        for i in range(1, 40):
            ring.join(f"n-{i}", via=boot.node_id)
            ring.stabilize()
        ring.check_invariants()

    def test_joined_ring_routes_correctly(self, rng):
        ring = ChordRing(m=16)
        boot = ring.bootstrap("n-0")
        for i in range(1, 25):
            ring.join(f"n-{i}", via=boot.node_id)
            ring.stabilize()
        for _ in range(100):
            key = int(rng.integers(0, ring.space.size))
            assert ring.lookup(key, start_id=boot.node_id).owner_id == (
                ring.successor_of(key)
            )

    def test_bootstrap_only_on_empty_ring(self):
        ring = ChordRing()
        ring.bootstrap("first")
        with pytest.raises(ChordError):
            ring.bootstrap("second")

    def test_leave_splices_ring(self):
        ring = ChordRing(m=16)
        boot = ring.bootstrap("n-0")
        for i in range(1, 10):
            ring.join(f"n-{i}", via=boot.node_id)
            ring.stabilize()
        victim = next(nid for nid in ring.node_ids if nid != boot.node_id)
        ring.leave(victim)
        ring.stabilize()
        ring.check_invariants()
        assert victim not in ring

    def test_stabilize_reports_rounds(self):
        ring = ChordRing(m=16)
        boot = ring.bootstrap("n-0")
        ring.join("n-1", via=boot.node_id)
        rounds = ring.stabilize()
        assert rounds >= 1


def reference_lookup(ring: ChordRing, key: int, start_id: int):
    """``ChordRing.lookup`` written with :class:`IdSpace` interval tests:
    the reference the plain-integer routing must agree with.  Returns
    ``(path, hops, edges)`` where ``edges`` are the recorder triples."""
    space = ring.space
    key = space.wrap(key)
    current = ring.node(start_id)
    path = [current.node_id]
    edges = []
    max_hops = 4 * space.m + len(ring)
    while not space.in_half_open(key, current.node_id, current.successor_id):
        for index in range(len(current.fingers) - 1, -1, -1):
            finger_id = current.fingers[index]
            if finger_id is not None and space.in_open(
                finger_id, current.node_id, key
            ):
                next_id, via = finger_id, f"finger[{index}]"
                break
        else:
            next_id, via = current.successor_id, "successor"
        if next_id == current.node_id:
            break
        edges.append((current.node_id, next_id, via))
        current = ring.node(next_id)
        path.append(current.node_id)
        if len(path) > max_hops:
            raise ChordError("hop bound")
    owner_id = current.successor_id
    if owner_id != current.node_id:
        edges.append((current.node_id, owner_id, "successor"))
        path.append(owner_id)
    return tuple(path), len(path) - 1, edges


@st.composite
def routed_rings(draw):
    """A small-``m`` ring, either statically built or joined and only
    partly stabilized (stale fingers, successor fallbacks), plus a key
    and a start node."""
    m = draw(st.integers(2, 8))
    size = 1 << m
    if draw(st.booleans()):
        ids = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(size, 12)))
        ring = ChordRing(m=m, successor_list_size=2)
        for node_id in ids:
            ring.add_node(node_id=node_id)
        ring.build()
    else:
        ring = ChordRing(m=m, successor_list_size=2)
        boot = ring.bootstrap("boot")
        for i in range(draw(st.integers(0, 8))):
            try:
                ring.join(f"j-{i}", via=boot.node_id)
            except DuplicateNodeError:
                continue
        for _ in range(draw(st.integers(0, 3))):
            ring.stabilize_round()
    ids = ring.node_ids
    start_id = draw(st.sampled_from(ids))
    key = draw(
        st.one_of(
            st.integers(-size, 2 * size),  # wraps past 0 and past the top
            st.sampled_from(ids),  # key == some node id
            st.just(start_id),
            st.just(ring.successor_of(start_id)),
        )
    )
    if draw(st.booleans()):
        # Start at the key's owner: a zero-hop route.
        start_id = ring.successor_of(key)
    return ring, key, start_id


class TestPlainIntRouting:
    @given(routed_rings())
    @settings(max_examples=300, deadline=None)
    def test_lookup_matches_idspace_reference(self, case):
        ring, key, start_id = case
        try:
            expected = reference_lookup(ring, key, start_id)
        except ChordError:
            with pytest.raises(ChordError):
                ring.lookup(key, start_id=start_id)
            return
        edges = []
        result = ring.lookup(
            key, start_id=start_id, recorder=lambda *edge: edges.append(edge)
        )
        assert (result.path, result.hops, edges) == expected
        assert ring.lookup(key, start_id=start_id) == result

    def test_single_node_owns_every_key(self):
        ring = ChordRing(m=4)
        ring.add_node(node_id=9)
        ring.build()
        for key in (-1, 0, 9, 15, 16, 40):
            edges = []
            result = ring.lookup(key, start_id=9, recorder=lambda *e: edges.append(e))
            assert result.path == (9,) and result.hops == 0 and edges == []
            assert reference_lookup(ring, key, 9) == (result.path, 0, [])

    def test_self_successor_owns_every_key_despite_stale_fingers(self):
        # (n, n] is the whole circle: no finger is consulted.
        ring = built_ring(2, m=6)
        a, b = ring.node_ids
        ring.node(a).successor_id = a
        for key in range(-2, 70, 7):
            result = ring.lookup(key, start_id=a)
            assert result.path == (a,)
            assert reference_lookup(ring, key, a) == (result.path, 0, [])


# A moderately sized ring shared by property-based lookup tests.
_PROPERTY_RING = built_ring(60)
