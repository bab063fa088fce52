"""S-Live: the namespace stress test of the paper's §7.4.

S-Live ("Stress Test for Live Data Verification") hammers the Master
with a mix of typical file-system operations and reports the rate of
successful operations per second per operation type. Following the
paper, we run the same generated workload against the OctopusFS
namespace and the plain HDFS namesystem, measuring real wall-clock CPU
cost of the metadata paths — Table 3's "despite the extra processing
related to the tiers, OctopusFS offers very similar performance" claim
is about exactly this overhead.

As in the paper, where OctopusFS is an HDFS fork, both systems run one
code path: HDFS is a :class:`~repro.fs.namespace.Namespace` with an
empty tier axis (``tier_order=()``), on which the scalar replication
factor ``r`` is the vector ``⟨U=r⟩`` and encodes to the plain count.
:class:`OctopusNamespaceAdapter` drives either one; :class:`SLive`
generates and executes the operation mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.replication_vector import ReplicationVector
from repro.fs.master import Master
from repro.fs.namespace import Namespace
from repro.util.rng import DeterministicRng
from repro.util.units import MB

#: The operation types reported in Table 3.
OPERATIONS = ("mkdir", "ls", "create", "open", "rename", "delete")


class OctopusNamespaceAdapter:
    """Drives a namespace with the S-Live operation surface.

    The default is the OctopusFS namespace on the paper's tier axis; a
    namespace built with ``tier_order=()`` is the HDFS baseline, and the
    adapter reports itself as such.
    """

    def __init__(self, namespace: Namespace | None = None) -> None:
        self.namespace = namespace or Namespace()
        self.name = "OctopusFS" if self.namespace.tier_order else "HDFS"
        self._vector = ReplicationVector.from_replication_factor(3)
        # Journal like a real Master would: edits go somewhere.
        self.edit_records: list[dict] = []
        self.namespace.add_listener(self.edit_records.append)

    def mkdir(self, path: str) -> None:
        self.namespace.mkdir(path)

    def create(self, path: str) -> None:
        self.namespace.create_file(path, self._vector, 128 * MB)

    def open(self, path: str) -> object:
        return self.namespace.get_status(path)

    def ls(self, path: str) -> object:
        return self.namespace.list_status(path)

    def rename(self, src: str, dst: str) -> None:
        self.namespace.rename(src, dst)

    def delete(self, path: str) -> None:
        self.namespace.delete(path, recursive=True)

    @classmethod
    def for_master(cls, master: Master) -> "OctopusNamespaceAdapter":
        return cls(master.namespace)


@dataclass
class SLiveResult:
    """Successful operations per second, per operation type."""

    system: str
    ops_per_second: dict[str, float] = field(default_factory=dict)
    op_counts: dict[str, int] = field(default_factory=dict)

    def per_worker(self, workers: int) -> dict[str, float]:
        """The paper reports ops/s *per worker* on a 9-worker cluster."""
        return {op: rate / workers for op, rate in self.ops_per_second.items()}


class SLive:
    """The stress-test driver."""

    def __init__(
        self,
        ops_per_type: int = 2000,
        dirs: int = 50,
        seed: int = 0,
        obs=None,
        monitor=None,
    ) -> None:
        self.ops_per_type = ops_per_type
        self.dirs = dirs
        self.seed = seed
        if obs is None:
            from repro.obs import Observability, join_capture

            obs = Observability()  # disabled no-op bundle
            join_capture(obs=obs)  # e.g. the CLI's --trace-out collects it
        #: Optional :class:`~repro.obs.Observability`; S-Live is a pure
        #: metadata benchmark with no simulation engine, so its metrics
        #: are wall-clock-free counters and per-phase events.
        self.obs = obs
        #: Optional engine-less :class:`~repro.obs.SloMonitor`
        #: (constructed with ``obs=``, not a system); with no engine to
        #: schedule periodic ticks, S-Live ticks it once per phase.
        self.monitor = monitor

    def run(self, adapter) -> SLiveResult:
        """Execute the full mix against one namesystem adapter.

        Phases run in dependency order (create before open/rename,
        rename before delete) with per-phase wall-clock timing, like the
        real S-Live's per-operation reporting.
        """
        rng = DeterministicRng(self.seed, f"slive/{adapter.name}")
        result = SLiveResult(system=adapter.name)
        n = self.ops_per_type

        dir_paths = [f"/slive/d{i % self.dirs}/sub{i}" for i in range(n)]
        file_paths = [
            f"/slive/d{i % self.dirs}/file_{i}" for i in range(n)
        ]
        renamed = [f"/slive/d{i % self.dirs}/renamed_{i}" for i in range(n)]
        ls_targets = [f"/slive/d{i % self.dirs}" for i in range(n)]

        self._timed(result, "mkdir", dir_paths, adapter.mkdir)
        self._timed(result, "create", file_paths, adapter.create)
        # Open and ls sample paths in random order, like S-Live's reads.
        opens = rng.shuffled(file_paths)
        self._timed(result, "open", opens, adapter.open)
        self._timed(result, "ls", ls_targets, adapter.ls)
        self._timed(
            result,
            "rename",
            list(zip(file_paths, renamed)),
            lambda pair: adapter.rename(pair[0], pair[1]),
        )
        self._timed(result, "delete", renamed, adapter.delete)
        return result

    def _timed(self, result: SLiveResult, op: str, items, fn) -> None:
        start = time.perf_counter()
        for item in items:
            fn(item)
        elapsed = time.perf_counter() - start
        result.op_counts[op] = len(items)
        result.ops_per_second[op] = (
            len(items) / elapsed if elapsed > 0 else float("inf")
        )
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "slive_ops_total", system=result.system, op=op
            ).inc(len(items))
            obs.tracer.event(
                "workload.phase", workload="slive", system=result.system,
                phase=op, ops=len(items),
            )
        if self.monitor is not None:
            self.monitor.tick()
