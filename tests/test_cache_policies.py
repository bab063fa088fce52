"""Tests for the §6 multi-level cache: LRU/LFU policies on the tiering engine.

The cache is two :class:`~repro.tier.TieringPolicy` implementations run
in the tiering engine's rounds, so the same safety rails apply to it as
to every other policy: compare-and-set vector changes, and an
application's own memory replica is never doubled or stripped.
"""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import ConfigurationError
from repro.tier import (
    DEMOTE,
    PROMOTE,
    FileObservation,
    LfuPolicy,
    LruPolicy,
    ObservedState,
    TieringEngine,
)
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


def memory_tiers(fs, path):
    return [
        tier
        for loc in fs.client().get_file_block_locations(path)
        for tier in loc.tiers
        if tier == "MEMORY"
    ]


def cached(engine):
    """Paths holding a memory replica this engine added."""
    return {f.path for f in engine.observe().files if f.policy_memory_replicas}


def read(client, path, times=1):
    for _ in range(times):
        client.open(path).read_size()


def observed(path, accesses, last_access, resident=False, length=4 * MB):
    return FileObservation(
        path=path,
        heat=0.0,
        length=length,
        memory_replicas=int(resident),
        policy_memory_replicas=int(resident),
        accesses=accesses,
        last_access=last_access,
    )


def plan(policy, *files):
    actions = policy.decide(ObservedState(now=10.0, half_life=30.0, files=files))
    return [(a.kind, a.path) for a in actions]


class TestEvictionOrder:
    """Pure decisions: which resident makes room for a candidate."""

    def test_lru_victim_is_least_recent(self):
        policy = LruPolicy(memory_budget=8 * MB, promote_after=1)
        assert plan(
            policy,
            observed("/a", 2, 3.0, resident=True),
            observed("/b", 1, 2.0, resident=True),
            observed("/c", 1, 4.0),
        ) == [(DEMOTE, "/b"), (PROMOTE, "/c")]

    def test_lru_same_instant_ties_broken_by_path(self):
        policy = LruPolicy(memory_budget=8 * MB, promote_after=1)
        assert plan(
            policy,
            observed("/b", 1, 1.0, resident=True),
            observed("/a", 1, 1.0, resident=True),
            observed("/c", 1, 2.0),
        ) == [(DEMOTE, "/a"), (PROMOTE, "/c")]

    def test_nothing_cached_nothing_evicted(self):
        policy = LruPolicy(memory_budget=8 * MB, promote_after=1)
        assert plan(policy) == []
        assert plan(policy, observed("/c", 1, 2.0)) == [(PROMOTE, "/c")]

    def test_lfu_victim_is_least_frequent(self):
        policy = LfuPolicy(memory_budget=8 * MB, promote_after=1)
        assert plan(
            policy,
            observed("/hot", 3, 1.0, resident=True),
            observed("/cold", 1, 2.0, resident=True),
            observed("/new", 2, 3.0),
        ) == [(DEMOTE, "/cold"), (PROMOTE, "/new")]

    def test_lfu_frequency_ties_broken_by_recency(self):
        policy = LfuPolicy(memory_budget=8 * MB, promote_after=1)
        assert plan(
            policy,
            observed("/a", 1, 1.0, resident=True),
            observed("/b", 1, 2.0, resident=True),
            observed("/c", 1, 3.0),
        ) == [(DEMOTE, "/a"), (PROMOTE, "/c")]

    def test_lfu_admission_refuses_to_displace_frequent_residents(self):
        policy = LfuPolicy(memory_budget=8 * MB, promote_after=1)
        assert plan(
            policy,
            observed("/a", 5, 1.0, resident=True),
            observed("/b", 3, 1.0, resident=True),
            observed("/c", 2, 9.0),
        ) == []

    def test_over_budget_cache_is_evicted_down_to_budget(self):
        policy = LruPolicy(memory_budget=4 * MB, promote_after=1)
        assert plan(
            policy,
            observed("/a", 1, 1.0, resident=True),
            observed("/b", 1, 2.0, resident=True),
        ) == [(DEMOTE, "/a")]


class TestCachePolicies:
    def test_promotes_hot_file_to_memory(self, fs, client):
        engine = TieringEngine(fs, LruPolicy(memory_budget=64 * MB)).attach()
        client.write_file("/hot", size=8 * MB, rep_vector=ReplicationVector.of(hdd=2))
        read(client, "/hot")
        engine.run_round()
        assert memory_tiers(fs, "/hot") == []  # one access: not hot yet
        read(client, "/hot")
        engine.run_round()
        fs.await_replication()
        assert len(memory_tiers(fs, "/hot")) == 2  # one per block
        assert engine.stats.promotions == 1
        assert cached(engine) == {"/hot"}

    def test_single_access_files_not_promoted(self, fs, client):
        engine = TieringEngine(
            fs, LfuPolicy(memory_budget=64 * MB, promote_after=3)
        ).attach()
        client.write_file("/once", size=4 * MB)
        read(client, "/once", times=2)
        assert engine.run_round() == []
        assert engine.stats.promotions == 0
        read(client, "/once")
        engine.run_round()
        assert engine.stats.promotions == 1

    def test_budget_evicts_lru_victim(self, fs, client):
        engine = TieringEngine(
            fs, LruPolicy(memory_budget=10 * MB, promote_after=1)
        ).attach()
        for name in ("a", "b"):
            client.write_file(f"/{name}", size=8 * MB, rep_vector=ReplicationVector.of(hdd=2))
        read(client, "/a")
        engine.run_round()
        fs.await_replication()
        assert cached(engine) == {"/a"}
        read(client, "/b")  # budget forces /a out
        engine.run_round()
        fs.await_replication()
        assert cached(engine) == {"/b"}
        assert engine.stats.demotions == 1
        assert memory_tiers(fs, "/a") == []
        assert len(memory_tiers(fs, "/b")) == 2

    def test_file_larger_than_budget_never_promoted(self, fs, client):
        engine = TieringEngine(
            fs, LruPolicy(memory_budget=4 * MB, promote_after=1)
        ).attach()
        client.write_file("/big", size=16 * MB)
        read(client, "/big", times=3)
        assert engine.run_round() == []
        assert engine.stats.promotions == 0

    def test_demotion_keeps_durable_replicas(self, fs, client):
        engine = TieringEngine(
            fs, LruPolicy(memory_budget=MB, promote_after=1)
        ).attach()
        client.write_file("/keep", data=b"k" * MB, rep_vector=ReplicationVector.of(hdd=2))
        client.open("/keep").read()
        engine.run_round()
        fs.await_replication()
        assert len(memory_tiers(fs, "/keep")) == 1
        client.write_file("/next", size=MB, rep_vector=ReplicationVector.of(hdd=2))
        read(client, "/next")  # evicts /keep
        engine.run_round()
        fs.await_replication()
        assert memory_tiers(fs, "/keep") == []
        assert client.read_file("/keep") == b"k" * MB  # data intact

    def test_shrunk_budget_flushes_cached_files(self, fs, client):
        engine = TieringEngine(
            fs, LruPolicy(memory_budget=64 * MB, promote_after=1)
        ).attach()
        for name in ("x", "y"):
            client.write_file(f"/{name}", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2))
            read(client, f"/{name}")
        engine.run_round()
        fs.await_replication()
        assert cached(engine) == {"/x", "/y"}
        engine.policy = LruPolicy(memory_budget=1)  # smaller than any file
        engine.run_round()
        fs.await_replication()
        assert cached(engine) == set()
        assert engine.stats.demotions == 2
        assert memory_tiers(fs, "/x") == memory_tiers(fs, "/y") == []

    def test_cached_reads_are_faster(self, fs, client):
        engine = TieringEngine(
            fs, LruPolicy(memory_budget=64 * MB, promote_after=1)
        ).attach()
        client.write_file("/speed", size=16 * MB, rep_vector=ReplicationVector.of(hdd=2))
        t0 = fs.engine.now
        read(client, "/speed")
        cold = fs.engine.now - t0
        engine.run_round()
        fs.await_replication()
        t1 = fs.engine.now
        read(client, "/speed")
        warm = fs.engine.now - t1
        assert warm < cold

    def test_application_pinned_files_not_doubled(self, fs, client):
        """A file the app already pinned in memory is not promoted
        again, and its replica is not counted against the budget."""
        engine = TieringEngine(
            fs, LruPolicy(memory_budget=64 * MB, promote_after=1)
        ).attach()
        client.write_file(
            "/pinned", size=4 * MB, rep_vector=ReplicationVector.of(memory=1, hdd=1)
        )
        read(client, "/pinned")
        assert engine.run_round() == []
        fs.await_replication()
        assert len(memory_tiers(fs, "/pinned")) == 1  # still exactly one
        assert cached(engine) == set()

    @pytest.mark.parametrize("policy_class", [LruPolicy, LfuPolicy])
    def test_application_pin_survives_eviction_pressure(self, fs, client, policy_class):
        """The pinned file is read first (and, for LFU, more often), so
        a cache that counted it would evict it to admit /other."""
        engine = TieringEngine(
            fs, policy_class(memory_budget=10 * MB, promote_after=1)
        ).attach()
        pinned = ReplicationVector.of(memory=1, hdd=1)
        client.write_file("/pinned", size=8 * MB, rep_vector=pinned)
        client.write_file("/other", size=8 * MB, rep_vector=ReplicationVector.of(hdd=2))
        read(client, "/pinned", times=5)
        engine.run_round()
        read(client, "/other")
        engine.run_rounds(2)
        fs.await_replication()
        assert fs.master.get_status("/pinned").rep_vector == pinned
        assert len(memory_tiers(fs, "/pinned")) == 2
        assert cached(engine) == {"/other"}
        assert engine.stats.demotions == 0

    def test_lfu_policy_keeps_frequent_files(self, fs, client):
        engine = TieringEngine(
            fs, LfuPolicy(memory_budget=10 * MB, promote_after=1)
        ).attach()
        client.write_file("/freq", size=8 * MB)
        client.write_file("/rare", size=8 * MB)
        read(client, "/freq", times=5)
        engine.run_round()
        fs.await_replication()
        read(client, "/rare")
        # /freq has 5 accesses, /rare 1, and the budget fits one file:
        # admission control refuses to displace /freq.
        assert engine.run_round() == []
        fs.await_replication()
        assert cached(engine) == {"/freq"}

    def test_detach_stops_tracking(self, fs, client):
        engine = TieringEngine(
            fs, LruPolicy(memory_budget=64 * MB, promote_after=1)
        ).attach()
        engine.detach()
        client.write_file("/quiet", size=4 * MB)
        read(client, "/quiet")
        assert "/quiet" not in engine.heat
        assert engine.run_round() == []

    def test_double_attach_rejected(self, fs):
        engine = TieringEngine(fs, LruPolicy(memory_budget=MB)).attach()
        with pytest.raises(ConfigurationError):
            engine.attach()

    def test_invalid_budget_rejected(self):
        for policy_class in (LruPolicy, LfuPolicy):
            for budget in (0, -MB):
                with pytest.raises(ConfigurationError):
                    policy_class(memory_budget=budget)

    def test_invalid_promote_after_rejected(self):
        for policy_class in (LruPolicy, LfuPolicy):
            with pytest.raises(ConfigurationError):
                policy_class(memory_budget=MB, promote_after=0)


class TestAccessCountBookkeeping:
    """Access counts live in the engine's heat tracker and stay bounded."""

    def test_deleted_file_dropped(self, fs, client):
        engine = TieringEngine(fs, LruPolicy(memory_budget=64 * MB)).attach()
        client.write_file("/gone", size=4 * MB)
        read(client, "/gone")
        assert "/gone" in engine.heat
        client.delete("/gone")
        # The access notification can outlive the file (listener queues,
        # in-flight opens); the round must drop the path, not fail on it.
        fs.notify_access("/gone")
        assert engine.run_round() == []
        assert "/gone" not in engine.heat

    def test_never_promoted_paths_bounded(self, fs, client):
        engine = TieringEngine(
            fs, LruPolicy(memory_budget=64 * MB, promote_after=100), half_life=1.0
        ).attach()
        for index in range(20):
            client.write_file(f"/one-shot-{index:02d}", size=MB)
            read(client, f"/one-shot-{index:02d}")
            fs.engine.run(until=fs.engine.now + 5.0)
            engine.run_round()
            # A one-shot entry decays below the prune floor within
            # ~20 half-lives: at most five 5 s windows survive.
            assert len(engine.heat) <= 5

    def test_pruning_spares_cached(self, fs, client):
        engine = TieringEngine(
            fs, LfuPolicy(memory_budget=64 * MB, promote_after=2), half_life=1.0
        ).attach()
        client.write_file("/hot", size=MB, rep_vector=ReplicationVector.of(hdd=2))
        read(client, "/hot", times=3)
        engine.run_round()
        fs.await_replication()
        assert cached(engine) == {"/hot"}
        for index in range(5):
            client.write_file(f"/cold-{index}", size=MB)
            read(client, f"/cold-{index}")
        fs.engine.run(until=fs.engine.now + 100.0)
        engine.run_round()
        # The cached path keeps its count (admission control needs it);
        # the one-access cold entries were pruned.
        assert [(f.path, f.accesses) for f in engine.observe().files] == [("/hot", 3)]
        assert cached(engine) == {"/hot"}
