"""Tests for the edit log, checkpoints, backup masters, and failover."""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.core.replication_vector import DEFAULT_TIER_ORDER
from repro.cluster import small_cluster_spec
from repro.fs import checkpoint as ckpt
from repro.fs.backup import BackupMaster, restore_master_from_checkpoint
from repro.fs.editlog import EditLog, replay
from repro.fs.namespace import Namespace
from repro.util.units import MB

RV = ReplicationVector.of(u=2)
#: The vector of /a/b/f2 per tier axis; HDFS (no tiers) takes a count.
F2_VECTOR = {
    DEFAULT_TIER_ORDER: ReplicationVector.of(memory=1, hdd=1),
    (): ReplicationVector.from_replication_factor(3),
}


def populated_namespace(tier_order=DEFAULT_TIER_ORDER):
    ns = Namespace(tier_order=tier_order)
    ns.mkdir("/a/b")
    ns.create_file("/a/b/f1", RV, 4 * MB)
    ns.complete_file("/a/b/f1")
    ns.create_file("/a/f2", F2_VECTOR[tier_order], 8 * MB)
    ns.complete_file("/a/f2")
    ns.rename("/a/f2", "/a/b/f2")
    ns.set_permission("/a/b/f1", 0o600)
    if tier_order:
        ns.set_quota("/a", namespace_quota=100, tier_space_quota={"SSD": MB})
    else:
        ns.set_quota("/a", namespace_quota=100)
    ns.mkdir("/doomed")
    ns.delete("/doomed")
    return ns


class TestEditLog:
    def test_records_assigned_txids(self):
        log = EditLog()
        ns = Namespace()
        ns.add_listener(log.append)
        ns.mkdir("/x")
        ns.mkdir("/y")
        assert [r["txid"] for r in log.records] == [1, 2]
        assert log.last_txid == 2

    @staticmethod
    def check_replay_reproduces_tree(tier_order):
        log = EditLog()
        ns = Namespace(tier_order=tier_order)
        ns.add_listener(log.append)
        # Rebuild the same mutations while logging.
        ns.mkdir("/a/b")
        ns.create_file("/a/b/f1", RV, 4 * MB)
        ns.complete_file("/a/b/f1")
        ns.rename("/a/b/f1", "/a/b/g1")
        replica = Namespace(tier_order=tier_order)
        replay(log.records, replica)
        assert replica.exists("/a/b/g1")
        status = replica.get_status("/a/b/g1")
        assert status.rep_vector == RV
        assert not status.under_construction

    def test_replay_reproduces_tree(self):
        self.check_replay_reproduces_tree(DEFAULT_TIER_ORDER)

    def test_replay_reproduces_tierless_tree(self):
        self.check_replay_reproduces_tree(())

    def test_replay_preserves_quotas_and_permissions(self):
        log = EditLog()
        ns = Namespace()
        ns.add_listener(log.append)
        ns.mkdir("/q")
        ns.set_quota("/q", namespace_quota=5, tier_space_quota={"MEMORY": MB})
        ns.set_permission("/q", 0o711)
        replica = Namespace()
        replay(log.records, replica)
        root_q = replica._resolve_dir("/q", __import__("repro.fs.namespace", fromlist=["SUPERUSER"]).SUPERUSER)
        assert root_q.namespace_quota == 5
        assert root_q.tier_space_quota == {"MEMORY": MB}
        assert replica.get_status("/q").mode == 0o711

    def test_since_and_truncate(self):
        log = EditLog()
        for i in range(5):
            log.append({"op": "mkdir", "path": f"/d{i}", "user": "u", "mode": 0o755})
        assert len(log.since(3)) == 2
        log.truncate_through(3)
        assert [r["txid"] for r in log.records] == [4, 5]

    def test_unknown_op_rejected(self):
        from repro.errors import FileSystemError

        with pytest.raises(FileSystemError):
            replay([{"op": "defragment"}], Namespace())


class TestCheckpoint:
    @staticmethod
    def check_roundtrip_structure(tier_order):
        ns = populated_namespace(tier_order)
        snapshot = ckpt.write_checkpoint(ns, last_txid=17)
        restored, txid = ckpt.load_checkpoint(snapshot)
        assert txid == 17
        assert restored.tier_order == tier_order
        assert restored.exists("/a/b/f1")
        assert restored.exists("/a/b/f2")
        assert not restored.exists("/doomed")
        assert restored.get_status("/a/b/f1").mode == 0o600
        assert restored.get_status("/a/b/f2").rep_vector == F2_VECTOR[tier_order]

    def test_roundtrip_structure(self):
        self.check_roundtrip_structure(DEFAULT_TIER_ORDER)

    def test_roundtrip_tierless_structure(self):
        self.check_roundtrip_structure(())

    def test_roundtrip_preserves_block_shape(self):
        from repro.fs.blocks import Block

        ns = populated_namespace()
        inode = ns.get_file("/a/b/f1")
        block = Block("/a/b/f1", 0, 4 * MB)
        block.size = 3 * MB
        inode.blocks.append(block)
        restored, _ = ckpt.load_checkpoint(ckpt.write_checkpoint(ns))
        restored_file = restored.get_file("/a/b/f1")
        assert [b.size for b in restored_file.blocks] == [3 * MB]
        assert restored_file.length == 3 * MB

    def test_quotas_survive(self):
        ns = populated_namespace()
        restored, _ = ckpt.load_checkpoint(ckpt.write_checkpoint(ns))
        from repro.fs.namespace import SUPERUSER

        directory = restored._resolve_dir("/a", SUPERUSER)
        assert directory.namespace_quota == 100
        assert directory.tier_space_quota == {"SSD": MB}

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            ckpt.load_checkpoint({"version": 99})

    def test_checkpoint_is_json_compatible(self):
        import json

        snapshot = ckpt.write_checkpoint(populated_namespace())
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestBackupMaster:
    def test_hot_standby_tracks_primary(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.mkdir("/live")
        client.write_file("/live/f", size=4 * MB)
        assert backup.image.exists("/live/f")
        assert backup.image.get_status("/live/f").length == 4 * MB == (
            fs.master.namespace.get_status("/live/f").length
        )

    def test_backup_catches_up_on_history(self):
        fs = OctopusFileSystem(small_cluster_spec())
        client = fs.client(on="worker1")
        client.mkdir("/before")
        backup = BackupMaster(fs.master)  # attached late
        assert backup.image.exists("/before")

    def test_periodic_checkpoints(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        fs.client().mkdir("/x")
        snapshot = backup.create_checkpoint()
        assert snapshot["last_txid"] == backup.applied_txid
        assert backup.latest_checkpoint is snapshot

    def test_promote_preserves_data_access(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        payload = b"failover" * 1000
        client.write_file("/crit", data=payload, rep_vector=3)
        old_master = fs.master
        backup.promote(fs)
        assert fs.master is not old_master
        # New clients read through the promoted master.
        assert fs.client(on="worker2").read_file("/crit") == payload

    def test_promote_rebuilds_block_map(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/blocks", size=12 * MB, rep_vector=2)
        backup.promote(fs)
        inode = fs.master.namespace.get_file("/blocks")
        assert len(inode.blocks) == 3
        for block in inode.blocks:
            assert len(fs.master.block_map[block.block_id].replicas) == 2

    def test_cold_restore_from_checkpoint_and_tail(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/early", data=b"a" * MB)
        backup.create_checkpoint()
        client.write_file("/late", data=b"b" * MB)  # after the checkpoint
        tail = fs.master.edit_log.records
        restore_master_from_checkpoint(fs, backup.latest_checkpoint, tail)
        assert fs.client(on="worker2").read_file("/early") == b"a" * MB
        assert fs.client(on="worker3").read_file("/late") == b"b" * MB

    def test_stale_replicas_dropped_on_restore(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/keep", size=4 * MB)
        snapshot = backup.create_checkpoint()
        client.write_file("/orphan", size=4 * MB)
        # Restore from a checkpoint that predates /orphan, with no tail:
        # its replicas are stale and must be wiped from workers.
        restore_master_from_checkpoint(fs, snapshot, [])
        assert not fs.master.namespace.exists("/orphan")
        for worker in fs.workers.values():
            for replica in worker.block_report():
                assert replica.block.file_path != "/orphan"
