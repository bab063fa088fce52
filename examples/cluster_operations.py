#!/usr/bin/env python3
"""Day-2 operations: LRU cache, balancer, decommissioning, append.

A tour of the operational tooling built around the paper's mechanisms:

1. an **internal multi-level cache** (§6): the tiering engine under an
   LRU policy auto-promotes hot files to the memory tier within a
   memory budget;
2. the **balancer** redistributes replicas within a tier after skewed
   ingestion;
3. **append** extends an existing log file, filling its tail block;
4. **decommissioning** retires a worker gracefully — replicas drain to
   the remaining nodes while reads keep working.

Run:  python examples/cluster_operations.py
"""

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.fs.balancer import Balancer
from repro.tier import LruPolicy, TieringEngine
from repro.util.units import MB


def show_spread(balancer, label):
    spread = balancer.spread()
    rendered = ", ".join(f"{t}: {v * 100:.1f}%" for t, v in spread.items())
    print(f"  {label}: worst deviation from tier mean -> {rendered}")


def main() -> None:
    fs = OctopusFileSystem(small_cluster_spec())
    client = fs.client(on="worker1")

    # ---------------------------------------------------------- LRU cache
    print("1. LRU cache policy (32 MB memory budget)")
    policy = LruPolicy(memory_budget=32 * MB, promote_after=2)
    tiering = TieringEngine(fs, policy).attach()
    for name in ("alpha", "beta", "gamma"):
        client.write_file(f"/tables/{name}", size=12 * MB,
                          rep_vector=ReplicationVector.of(hdd=2))
    for _ in range(3):  # alpha and beta become hot; gamma stays cold
        client.open("/tables/alpha").read_size()
        client.open("/tables/beta").read_size()
    client.open("/tables/gamma").read_size()
    tiering.run_round()
    fs.await_replication()
    cached = [f for f in tiering.observe().files if f.policy_memory_replicas]
    cached_bytes = sum(f.length for f in cached)
    print(f"  promoted: {[f.path for f in cached]}")
    print(f"  memory pinned: {cached_bytes // MB} MB "
          f"of {policy.memory_budget // MB} MB budget")
    assert {f.path for f in cached} == {"/tables/alpha", "/tables/beta"}
    assert cached_bytes <= policy.memory_budget
    tiering.detach()

    # ----------------------------------------------------------- balancer
    print("\n2. balancer (after skewed single-node ingestion)")
    for index in range(8):
        client.write_file(f"/skewed/part-{index}", size=4 * MB,
                          rep_vector=ReplicationVector.of(hdd=1))
    balancer = Balancer(fs, threshold=0.002)
    show_spread(balancer, "before")
    report = balancer.run()
    show_spread(balancer, "after ")
    print(f"  moved {report.moves_executed} replicas, "
          f"{report.bytes_moved // MB} MB total")

    # ------------------------------------------------------------- append
    print("\n3. append (tail block fills in place)")
    client.write_file("/logs/app.log", data=b"2026-07-06 boot\n")
    with client.append("/logs/app.log") as stream:
        stream.write(b"2026-07-06 ready\n")
    print("  log now reads:", client.read_file("/logs/app.log").decode().strip().split("\n"))

    # ----------------------------------------------------- decommissioning
    print("\n4. decommissioning worker2")
    before = len(fs.workers["worker2"].block_report())
    drained = fs.decommission_worker("worker2")
    print(f"  drained {drained} replicas (had {before}); data still readable:")
    sample = fs.client(on="worker3").read_file("/logs/app.log")
    print("  ", sample.decode().strip().splitlines()[-1])
    live_workers = [n for n, r in fs.master.workers.items() if not r.dead]
    print(f"  remaining workers: {sorted(live_workers)}")


if __name__ == "__main__":
    main()
