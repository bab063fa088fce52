"""Tests for the S-Live stress test and its HDFS baseline.

The HDFS baseline is the OctopusFS namespace with an empty tier axis
(``tier_order=()``): the scalar replication factor ``r`` is the vector
``⟨U=r⟩`` and journals as the plain count.
"""

import pytest

from repro.core.replication_vector import ReplicationVector
from repro.errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    PermissionDeniedError,
    QuotaExceededError,
    ReplicationVectorError,
)
from repro.fs.namespace import Namespace, UserContext
from repro.util.units import MB
from repro.workloads.slive import OPERATIONS, OctopusNamespaceAdapter, SLive

R3 = ReplicationVector.from_replication_factor(3)
BS = 128 * MB


def hdfs_adapter() -> OctopusNamespaceAdapter:
    return OctopusNamespaceAdapter(Namespace(tier_order=()))


class TestHdfsBaseline:
    @pytest.fixture
    def ns(self):
        return Namespace(tier_order=())

    def test_mkdir_create_open(self, ns):
        ns.create_file("/a/b/f", ReplicationVector.from_replication_factor(2), BS)
        status = ns.get_status("/a/b/f")
        assert status.rep_vector == ReplicationVector.from_replication_factor(2)
        assert not status.is_directory

    def test_replication_factor_encodes_to_count(self, ns):
        records = []
        ns.add_listener(records.append)
        ns.create_file("/f", R3, BS)
        ns.complete_file("/f")
        ns.set_replication_vector("/f", ReplicationVector.from_replication_factor(2))
        encoded = [r["rep_vector"] for r in records if "rep_vector" in r]
        assert encoded == [3, 2]

    def test_tiered_vector_rejected(self, ns):
        with pytest.raises(ReplicationVectorError):
            ns.create_file("/f", ReplicationVector.of(memory=1, u=2), BS)

    def test_list_sorted(self, ns):
        ns.create_file("/d/b", R3, BS)
        ns.create_file("/d/a", R3, BS)
        assert [s.path for s in ns.list_status("/d")] == ["/d/a", "/d/b"]

    def test_rename_and_delete(self, ns):
        ns.create_file("/x/f", R3, BS)
        ns.rename("/x/f", "/x/g")
        assert ns.exists("/x/g")
        ns.delete("/x", recursive=True)
        assert not ns.exists("/x")

    def test_delete_nonrecursive_guard(self, ns):
        ns.create_file("/d/f", R3, BS)
        with pytest.raises(DirectoryNotEmptyError):
            ns.delete("/d")

    def test_duplicate_create_rejected(self, ns):
        ns.create_file("/f", R3, BS)
        with pytest.raises(FileAlreadyExistsError):
            ns.create_file("/f", R3, BS)

    def test_missing_path(self, ns):
        with pytest.raises(FileNotFoundInNamespaceError):
            ns.get_status("/ghost")

    def test_permissions_enforced(self, ns):
        ns.mkdir("/private")
        # root-owned 0o755: others lack write.
        with pytest.raises(PermissionDeniedError):
            ns.create_file("/private/f", R3, BS, UserContext("eve"))

    def test_namespace_quota(self, ns):
        ns.mkdir("/q")
        ns.set_quota("/q", namespace_quota=2)
        ns.create_file("/q/one", R3, BS)
        with pytest.raises(QuotaExceededError):
            ns.create_file("/q/two", R3, BS)

    def test_edit_emission(self, ns):
        records = []
        ns.add_listener(records.append)
        ns.create_file("/j/f", R3, BS)
        ops = [r["op"] for r in records]
        assert ops == ["mkdir", "create_file"]

    def test_inode_counting(self, ns):
        before = ns.total_inodes
        ns.create_file("/c/d/e", R3, BS)
        assert ns.total_inodes == before + 3
        ns.delete("/c", recursive=True)
        assert ns.total_inodes == before


class TestSLive:
    def test_runs_all_operation_types(self):
        slive = SLive(ops_per_type=50, dirs=5)
        result = slive.run(OctopusNamespaceAdapter())
        assert set(result.ops_per_second) == set(OPERATIONS)
        assert all(rate > 0 for rate in result.ops_per_second.values())
        assert all(count == 50 for count in result.op_counts.values())

    def test_hdfs_adapter_runs(self):
        slive = SLive(ops_per_type=50, dirs=5)
        result = slive.run(hdfs_adapter())
        assert result.system == "HDFS"
        assert set(result.ops_per_second) == set(OPERATIONS)

    def test_namespace_drained_after_run(self):
        adapter = OctopusNamespaceAdapter()
        SLive(ops_per_type=30, dirs=3).run(adapter)
        # All renamed files were deleted; only dirs remain.
        listing = adapter.namespace.list_status("/slive")
        assert all(s.is_directory for s in listing)

    def test_per_worker_scaling(self):
        slive = SLive(ops_per_type=30, dirs=3)
        result = slive.run(OctopusNamespaceAdapter())
        per_worker = result.per_worker(9)
        for op in OPERATIONS:
            assert per_worker[op] == pytest.approx(result.ops_per_second[op] / 9)

    def test_same_workload_both_systems(self):
        """Both adapters must accept the identical operation stream."""
        slive = SLive(ops_per_type=40, dirs=4, seed=7)
        octo = slive.run(OctopusNamespaceAdapter())
        hdfs = slive.run(hdfs_adapter())
        assert octo.op_counts == hdfs.op_counts

    def test_overhead_within_reason(self):
        """The tier machinery must not blow up namespace costs.

        The paper reports <1%; we allow a generous envelope to keep the
        test robust on shared CI machines while still catching
        regressions that would invalidate the Table 3 claim.
        """
        slive = SLive(ops_per_type=2000)
        best: dict[str, dict[str, float]] = {"o": {}, "h": {}}
        for _trial in range(3):  # best-of-3 damps wall-clock noise
            octo = slive.run(OctopusNamespaceAdapter())
            hdfs = slive.run(hdfs_adapter())
            for op in OPERATIONS:
                best["o"][op] = max(best["o"].get(op, 0), octo.ops_per_second[op])
                best["h"][op] = max(best["h"].get(op, 0), hdfs.ops_per_second[op])
        for op in OPERATIONS:
            ratio = best["h"][op] / best["o"][op]
            assert ratio < 2.0, f"{op}: OctopusFS more than 2x slower"
