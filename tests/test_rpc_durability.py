"""Live-server durability: restart recovery, paged entries, data dirs.

In-process counterparts of the CLI restart drills: a
:class:`~repro.rpc.server.PeerServer` with a ``data_dir`` must come back
from disk with its store intact (and say so in its restore counters),
the ``entries`` bulk RPC must page instead of blowing the wire frame
cap, and a :class:`~repro.rpc.cluster.LocalCluster` must not leak the
per-node data directories it created.
"""

from __future__ import annotations

import asyncio
import os
import struct

import pytest

from repro.core.config import SystemConfig
from repro.db.partition import PartitionDescriptor
from repro.errors import ReproError
from repro.obs.distributed import counter_total
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.rpc.client import ClusterClient
from repro.rpc.cluster import LocalCluster
from repro.rpc.server import PeerServer
from repro.storage.wal import PeerDurability

SEED = 1707


def desc(start: int, end: int) -> PartitionDescriptor:
    return PartitionDescriptor("R", "value", IntRange(start, end))


@pytest.fixture()
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


def boot(loop, *, data_dir=None) -> PeerServer:
    server = PeerServer(
        "peer-0",
        SystemConfig(n_peers=1, seed=SEED, replicas=1),
        data_dir=data_dir,
    )
    loop.run_until_complete(server.start())
    return server


class TestServerRestartRecovery:
    def test_store_survives_a_restart_from_disk(self, loop, tmp_path):
        data_dir = str(tmp_path / "peer-0")
        server = boot(loop, data_dir=data_dir)
        try:
            with ClusterClient((server.host, server.port), loop=loop) as client:
                for low in (100, 300, 500, 700):
                    client.query(IntRange(low, low + 50))
            stored = server.store.partition_count
            assert stored > 0
            before = sorted(
                (identifier, entry.descriptor)
                for identifier, entry in server.store.entries()
            )
        finally:
            loop.run_until_complete(server.close())

        reborn = boot(loop, data_dir=data_dir)
        try:
            after = sorted(
                (identifier, entry.descriptor)
                for identifier, entry in reborn.store.entries()
            )
            assert after == before
            snapshot = reborn.metrics.snapshot()
            assert counter_total(snapshot, "restore.entries") == stored
            assert counter_total(snapshot, "restore.torn_records") == 0
            # A re-queried range hits the recovered entry exactly.
            with ClusterClient((reborn.host, reborn.port), loop=loop) as client:
                assert client.query(IntRange(100, 150)).exact
        finally:
            loop.run_until_complete(reborn.close())

    def test_restart_tolerates_a_torn_wal_tail(self, loop, tmp_path):
        data_dir = tmp_path / "peer-0"
        server = boot(loop, data_dir=str(data_dir))
        try:
            with ClusterClient((server.host, server.port), loop=loop) as client:
                for low in (100, 300, 500):
                    client.query(IntRange(low, low + 50))
            stored = server.store.partition_count
        finally:
            loop.run_until_complete(server.close())

        wal = data_dir / PeerDurability.WAL_NAME
        with open(wal, "ab") as handle:  # SIGKILL mid-append
            handle.write(struct.pack("!I", 4096) + b"torn")

        reborn = boot(loop, data_dir=str(data_dir))
        try:
            snapshot = reborn.metrics.snapshot()
            assert counter_total(snapshot, "restore.entries") == stored
            assert counter_total(snapshot, "restore.torn_records") == 1
            assert reborn.store.partition_count == stored
        finally:
            loop.run_until_complete(reborn.close())

    def test_incarnation_rises_across_restarts(self, loop, tmp_path):
        data_dir = str(tmp_path / "peer-0")
        server = boot(loop, data_dir=data_dir)
        first = server.table.incarnation
        loop.run_until_complete(server.close())
        reborn = boot(loop, data_dir=data_dir)
        second = reborn.table.incarnation
        loop.run_until_complete(reborn.close())
        # The rejoin must beat any tombstone from the previous life.
        assert second > first

    def test_no_data_dir_means_no_durability(self, loop):
        server = boot(loop)
        try:
            assert server.durability is None
            assert server.store.mutation_hook is None
            assert counter_total(
                server.metrics.snapshot(), "restore.entries"
            ) == 0
        finally:
            loop.run_until_complete(server.close())


class TestEntriesPaging:
    N_ENTRIES = 300

    def test_chunked_entries_survive_a_small_frame_cap(
        self, loop, monkeypatch
    ):
        server = boot(loop)
        try:
            for i in range(self.N_ENTRIES):
                server.store.store(i, desc(i * 10, i * 10 + 9))
            with ClusterClient((server.host, server.port), loop=loop) as client:
                page = client.call("peer-0", "entries", {"offset": 10, "limit": 5})
                assert page["total"] == self.N_ENTRIES
                assert len(page["entries"]) == 5

                # With a frame cap smaller than the full entry list, the
                # legacy single-frame reply dies on the wire...
                monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 8 * 1024)
                full_reply = wire.encode_value([
                    (identifier, entry.descriptor, entry.partition, entry.primary)
                    for identifier, entry in server.store.entries()
                ])
                assert len(str(full_reply)) > wire.MAX_FRAME_BYTES
                with pytest.raises(ReproError):
                    client.call("peer-0", "entries")
                # ...while the paged iterator streams every record through.
                records = client.entries_of("peer-0", page_size=32)
                assert len(records) == self.N_ENTRIES
                assert {record[0] for record in records} == set(
                    range(self.N_ENTRIES)
                )
        finally:
            loop.run_until_complete(server.close())

    def test_legacy_none_payload_still_returns_full_list(self, loop):
        server = boot(loop)
        try:
            for i in range(5):
                server.store.store(i, desc(i * 10, i * 10 + 9))
            with ClusterClient((server.host, server.port), loop=loop) as client:
                records = client.call("peer-0", "entries")
            assert isinstance(records, list) and len(records) == 5
        finally:
            loop.run_until_complete(server.close())


class TestChaosRestart:
    def test_spec_accepts_restart(self):
        from repro.rpc.chaos import ChaosSchedule

        assert ChaosSchedule.parse_spec("restart=2,kill=1") == {
            "restart": 2, "kill": 1,
        }

    def test_restart_schedules_a_kill_then_restart_pair(self):
        from repro.rpc.chaos import ChaosSchedule

        peers = [f"peer-{i}" for i in range(4)]
        schedule = ChaosSchedule.generate(
            7, peers, {"restart": 1},
            restart_hold_s=2.5, protect=("peer-0",),
        )
        kills = [e for e in schedule.events if e.action == "kill"]
        restarts = [e for e in schedule.events if e.action == "restart"]
        assert len(kills) == 1 and len(restarts) == 1
        assert kills[0].targets == restarts[0].targets
        assert restarts[0].targets[0] != "peer-0"  # bootstrap protected
        assert restarts[0].at_s == pytest.approx(kills[0].at_s + 2.5)

    def test_same_seed_same_schedule(self):
        from repro.rpc.chaos import ChaosSchedule

        peers = [f"peer-{i}" for i in range(5)]
        counts = {"restart": 2, "kill": 1}
        first = ChaosSchedule.generate(11, peers, counts)
        second = ChaosSchedule.generate(11, peers, counts)
        assert first.events == second.events


class TestClusterDataDirs:
    def test_owned_temp_root_is_removed_on_shutdown(self):
        cluster = LocalCluster(1, durable=True)
        root = cluster.data_root
        assert root is not None and os.path.isdir(root)
        assert os.path.basename(root).startswith("repro-cluster-")
        cluster.shutdown()
        assert not os.path.exists(root)

    def test_owned_temp_root_is_removed_on_exception(self):
        with pytest.raises(RuntimeError):
            with LocalCluster(1, durable=True) as cluster:
                root = cluster.data_root
                raise RuntimeError("drill gone wrong")
        assert not os.path.exists(root)

    def test_explicit_data_root_is_left_in_place(self, tmp_path):
        root = tmp_path / "cluster-state"
        root.mkdir()
        cluster = LocalCluster(1, data_root=str(root))
        assert cluster.data_root == str(root)
        cluster.shutdown()
        assert root.is_dir()  # the caller owns it; harness must not delete

    def test_plain_cluster_has_no_data_root(self):
        cluster = LocalCluster(1)
        assert cluster.data_root is None
        cluster.shutdown()
