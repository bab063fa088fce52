"""Master/worker corner cases not covered by the main integration tests."""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import Cluster, small_cluster_spec
from repro.errors import BlockError, PathError, WorkerError
from repro.fs.worker import Worker
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


class TestWorkerCornerCases:
    def test_worker_requires_media(self, fs):
        master_node = fs.cluster.node("master")
        with pytest.raises(WorkerError):
            Worker(fs.cluster, master_node)

    def test_medium_lookup(self, fs):
        worker = fs.workers["worker1"]
        medium = worker.node.media[0]
        assert worker.medium(medium.medium_id) is medium
        with pytest.raises(WorkerError):
            worker.medium("worker9:ssd0")

    def test_duplicate_replica_rejected(self, fs, client):
        client.write_file("/f", size=MB, rep_vector=1)
        loc = client.get_file_block_locations("/f")[0]
        worker = fs.workers[loc.hosts[0]]
        replica = worker.read_replica(loc.block_id, loc.media[0])
        with pytest.raises(BlockError):
            worker.create_replica(replica.block, replica.medium, None)

    def test_corrupting_missing_replica_rejected(self, fs):
        worker = fs.workers["worker1"]
        with pytest.raises(BlockError):
            worker.corrupt_replica(424242, "worker1:ssd1")

    def test_heartbeat_payload(self, fs, client):
        client.write_file("/h", size=4 * MB, rep_vector=1)
        for worker in fs.workers.values():
            report = worker.heartbeat()
            assert report.node_name == worker.name
            assert set(report.media_remaining) == {
                m.medium_id for m in worker.node.media
            }

    def test_probe_within_jitter(self, fs):
        for worker in fs.workers.values():
            for probe in worker.probes:
                medium = worker.medium(probe.medium_id)
                assert probe.write_throughput == pytest.approx(
                    medium.write_throughput, rel=0.03
                )


class TestMasterCornerCases:
    def test_rename_updates_block_paths(self, fs, client):
        client.write_file("/old/name", size=4 * MB, rep_vector=1)
        client.rename("/old/name", "/old/renamed")
        inode = fs.master.namespace.get_file("/old/renamed")
        meta = fs.master.block_map[inode.blocks[0].block_id]
        assert meta.block.file_path == "/old/renamed"

    def test_heartbeat_from_unknown_worker_rejected(self, fs):
        from repro.fs.worker import HeartbeatReport

        ghost = HeartbeatReport("worker42", 0.0, {}, {}, 0)
        with pytest.raises(WorkerError):
            fs.master.receive_heartbeat(ghost)

    def test_block_report_reconciles_unknown_replicas(self, fs, client):
        client.write_file("/known", size=MB, rep_vector=1)
        loc = client.get_file_block_locations("/known")[0]
        worker = fs.workers[loc.hosts[0]]
        meta = fs.master.block_map[loc.block_id]
        replica = meta.replicas[0]
        meta.replicas.clear()  # simulate master amnesia for this block
        assert fs.master.receive_block_report(worker) == 0
        assert replica in meta.replicas  # re-learned from the report

    def test_block_report_drops_stale_replicas(self, fs, client):
        client.write_file("/stale", size=MB, rep_vector=1)
        loc = client.get_file_block_locations("/stale")[0]
        worker = fs.workers[loc.hosts[0]]
        # The master forgets the whole block (e.g. deleted during an
        # outage); the worker's copy is then garbage.
        del fs.master.block_map[loc.block_id]
        dropped = fs.master.receive_block_report(worker)
        assert dropped == 1
        assert (loc.block_id, loc.media[0]) not in worker.replicas

    def test_commit_unknown_block_rejected(self, fs):
        from repro.fs.blocks import Block

        ghost = Block("/ghost", 0, MB)
        with pytest.raises(BlockError):
            fs.master.commit_block(ghost, MB, [])

    def test_worker_liveness_expiry(self, fs, client):
        fs.master.heartbeat_expiry = 5.0
        record = fs.master.workers["worker1"]
        record.last_heartbeat = -10.0  # ancient
        expired = fs.master.check_worker_liveness()
        assert "worker1" in expired
        # Heartbeat silence alone does not prove a crash: the worker is
        # declared silent (unreachable, data intact), not dead.
        assert record.silent and not record.dead
        assert not record.reachable
        assert not record.worker.node.failed

    def test_silent_worker_reconciles_instead_of_reregistering(self, fs, client):
        """Regression: silence and death are distinct states.

        A heartbeat-silent worker used to be marked ``node.failed``, so
        its later re-heartbeat looked like a fresh registration. Now the
        silent worker keeps its replicas and the re-heartbeat reconciles
        them (marking its blocks dirty for the replication manager).
        """
        client.write_file("/sil", size=MB, rep_vector=2)
        fs.master.heartbeat_expiry = 5.0
        record = fs.master.workers["worker1"]
        inventory_before = len(record.worker.block_report())
        record.last_heartbeat = -10.0
        fs.master.check_worker_liveness()
        assert record.silent and not record.dead
        # The silent worker's replicas were NOT pruned from its disk.
        assert len(record.worker.block_report()) == inventory_before
        # Re-heartbeat: reconciliation, not a fresh registration.
        fs.master._dirty_blocks.clear()
        fs.master.receive_heartbeat(record.worker.heartbeat())
        assert record.reachable and not record.silent
        assert not record.worker.node.unreachable
        # Its blocks were queued for revalidation.
        if inventory_before:
            assert fs.master.pending_replication > 0
        fs.await_replication()

    def test_crashed_node_still_declared_dead(self, fs, client):
        fs.cluster.fail_node("worker2")
        expired = fs.master.check_worker_liveness()
        assert "worker2" in expired
        record = fs.master.workers["worker2"]
        assert record.dead and not record.silent

    def test_pending_replication_counter(self, fs, client):
        client.write_file("/p", size=MB, rep_vector=ReplicationVector.of(hdd=1))
        assert fs.master.pending_replication >= 0
        client.set_replication("/p", ReplicationVector.of(hdd=2))
        assert fs.master.pending_replication >= 1
        fs.await_replication()
        assert fs.master.pending_replication == 0

    def test_rejected_overwrite_keeps_file_and_blocks(self, fs, client):
        """Regression: a zero-replica overwrite used to delete the old
        file before rejecting the vector, orphaning its block."""
        client.write_file("/keep", size=MB, rep_vector=1)
        edits = len(fs.master.edit_log.records)
        blocks = dict(fs.master.block_map)
        with pytest.raises(PathError):
            fs.master.create_file("/keep", ReplicationVector(), overwrite=True)
        assert fs.master.namespace.exists("/keep")
        assert fs.master.block_map == blocks
        assert len(fs.master.edit_log.records) == edits

    def test_full_scan_mode(self, fs, client):
        client.write_file("/scan", size=MB, rep_vector=2)
        fs.master._dirty_blocks.clear()
        # Full scan revisits every block even with an empty dirty set.
        procs = fs.master.check_replication(full_scan=True)
        assert procs == []  # nothing to fix, but it did not crash


class TestServiceLoops:
    def test_backup_checkpoint_loop(self, fs, client):
        from repro.fs.backup import BackupMaster

        backup = BackupMaster(fs.master)
        fs.start_services(heartbeat_interval=1.0, replication_interval=2.0)
        fs.engine.process(backup.checkpoint_loop(fs, interval=3.0))
        client.write_file("/periodic", size=MB)
        fs.engine.run(until=fs.engine.now + 10.0)
        fs.stop_services()
        assert backup.checkpoints  # at least one periodic checkpoint
        restored, _ = __import__(
            "repro.fs.checkpoint", fromlist=["load_checkpoint"]
        ).load_checkpoint(backup.latest_checkpoint)
        assert restored.exists("/periodic")

    def test_services_stop_cleanly(self, fs):
        fs.start_services()
        fs.stop_services()
        fs.engine.run(until=fs.engine.now + 30.0)  # loops exit; no hang

    def test_double_start_rejected(self, fs):
        from repro.errors import ConfigurationError

        fs.start_services()
        with pytest.raises(ConfigurationError):
            fs.start_services()
        fs.stop_services()
