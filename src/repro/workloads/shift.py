"""The workload-shift scenario: a hot set that rotates mid-run.

CFS-style churn (PAPERS.md) is the case static tiering handles worst: a
fixed vector keeps yesterday's hot files in memory while today's hot
files grind the HDDs. This workload makes that failure mode measurable.
It writes a pool of files to the disk tier, then runs several read
*phases*; within a phase a seeded reader directs most reads
(``hot_fraction``) at a small hot set, and at every phase boundary the
hot set rotates to a disjoint group of files. Per-read latency and
whether the read was served by a memory replica are recorded per phase,
so an adaptive policy's reaction to the shift shows up directly in the
post-shift p99 and memory hit rate — the comparison
``BENCH_tiering.json`` records.

The driver composes with whatever management is attached to the file
system (a :class:`~repro.tier.TieringEngine` under any policy, the §6
LRU/LFU cache included, or nothing): it only opens files and measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.core.replication_vector import ReplicationVector
from repro.errors import ConfigurationError
from repro.util.rng import DeterministicRng
from repro.util.units import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem


def _quantile(sorted_values: list[float], q: float) -> float:
    """Exact quantile by linear interpolation (deterministic)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


@dataclass
class PhaseStats:
    """Measurements of one phase of the rotating workload."""

    phase: int
    hot_files: tuple[str, ...]
    reads: int = 0
    memory_hits: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.memory_hits / self.reads if self.reads else 0.0

    def latency_quantile(self, q: float) -> float:
        return _quantile(sorted(self.latencies), q)

    @property
    def p50(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99(self) -> float:
        return self.latency_quantile(0.99)


@dataclass
class ShiftResult:
    """All phases of one workload-shift run."""

    files: int
    phases: list[PhaseStats]
    elapsed: float
    #: Alert records captured by any live monitors passed to ``run``.
    alerts: list[dict] = field(default_factory=list)

    @property
    def post_shift(self) -> list[PhaseStats]:
        """Phases after the first rotation (where adaptation can pay)."""
        return self.phases[1:]

    @property
    def post_shift_p99(self) -> float:
        latencies = sorted(
            lat for phase in self.post_shift for lat in phase.latencies
        )
        return _quantile(latencies, 0.99)

    @property
    def post_shift_p50(self) -> float:
        latencies = sorted(
            lat for phase in self.post_shift for lat in phase.latencies
        )
        return _quantile(latencies, 0.50)

    @property
    def post_shift_hit_rate(self) -> float:
        reads = sum(phase.reads for phase in self.post_shift)
        hits = sum(phase.memory_hits for phase in self.post_shift)
        return hits / reads if reads else 0.0


class WorkloadShift:
    """Seeded rotating-hot-set read workload over one file system."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        files: int = 8,
        file_size: int = 4 * MB,
        phases: int = 3,
        reads_per_phase: int = 30,
        hot_set_size: int = 2,
        hot_fraction: float = 0.9,
        think_time: float = 0.5,
        rep_vector: ReplicationVector | None = None,
        base_dir: str = "/benchmarks/shift",
        rng: DeterministicRng | None = None,
    ) -> None:
        if hot_set_size > files:
            raise ConfigurationError("hot set cannot exceed the file pool")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be within [0, 1]")
        self.system = system
        self.files = files
        self.file_size = file_size
        self.phases = phases
        self.reads_per_phase = reads_per_phase
        self.hot_set_size = hot_set_size
        self.hot_fraction = hot_fraction
        self.think_time = think_time
        #: Disk-resident by default, so promotion has something to win.
        self.rep_vector = rep_vector or ReplicationVector.of(hdd=2)
        self.base_dir = base_dir
        self.rng = rng or DeterministicRng(system.cluster.spec.seed, "shift")

    def _path(self, index: int) -> str:
        return f"{self.base_dir}/f{index:03d}"

    def _hot_set(self, phase: int) -> tuple[str, ...]:
        """Phase ``p``'s hot files: a rotating disjoint window."""
        start = (phase * self.hot_set_size) % self.files
        return tuple(
            self._path((start + i) % self.files)
            for i in range(self.hot_set_size)
        )

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Write the file pool (round-robin over the workers)."""
        names = sorted(self.system.workers)
        for index in range(self.files):
            client = self.system.client(on=names[index % len(names)])
            client.write_file(
                self._path(index),
                size=self.file_size,
                rep_vector=self.rep_vector,
                overwrite=True,
            )

    def _served_from_memory(self, client, path: str) -> bool:
        """Would a read of ``path`` be served by the memory tier now?

        True only when *every* block has a live memory replica — the
        retrieval policy reads from the fastest available tier, so one
        disk-bound block drags the whole file read.
        """
        locations = client.get_file_block_locations(path)
        return bool(locations) and all(
            "MEMORY" in location.tiers for location in locations
        )

    def run(self, monitors: tuple = ()) -> ShiftResult:
        """Run every phase; the reader is one sequential engine process.

        Reads are spaced by ``think_time`` so any periodic management
        (tiering rounds, replication passes) interleaves with the
        workload, exactly as it would on a busy cluster. ``monitors``
        (``SloMonitor`` / ``HealthMonitor``) are started for the run
        and stopped before it returns; their combined alert timeline
        lands on :attr:`ShiftResult.alerts`.
        """
        engine = self.system.engine
        obs = self.system.obs
        start = engine.now
        stats: list[PhaseStats] = []
        reader_rng = self.rng.fork("reader")
        names = sorted(self.system.workers)
        paths = [self._path(i) for i in range(self.files)]

        def reader() -> Generator:
            for phase in range(self.phases):
                hot = self._hot_set(phase)
                cold = [p for p in paths if p not in hot]
                phase_stats = PhaseStats(phase=phase, hot_files=hot)
                stats.append(phase_stats)
                if obs.enabled:
                    obs.tracer.event(
                        "workload.phase", workload="shift",
                        phase=f"phase-{phase}", state="start",
                        hot=",".join(hot),
                    )
                for read_index in range(self.reads_per_phase):
                    if cold and reader_rng.random() >= self.hot_fraction:
                        path = reader_rng.choice(cold)
                    else:
                        path = reader_rng.choice(list(hot))
                    client = self.system.client(
                        on=names[read_index % len(names)]
                    )
                    hit = self._served_from_memory(client, path)
                    stream = client.open(path)
                    read_start = engine.now
                    yield from stream.read_proc(collect=False)
                    phase_stats.latencies.append(engine.now - read_start)
                    phase_stats.reads += 1
                    phase_stats.memory_hits += 1 if hit else 0
                    yield engine.timeout(self.think_time)
                if obs.enabled:
                    obs.tracer.event(
                        "workload.phase", workload="shift",
                        phase=f"phase-{phase}", state="end",
                        reads=phase_stats.reads,
                        memory_hits=phase_stats.memory_hits,
                    )

        for monitor in monitors:
            if not monitor.running:
                monitor.start()
        engine.run(engine.process(reader(), name="shift-reader"))
        for monitor in monitors:
            monitor.stop()
        alerts: list[dict] = []
        seen_sinks: set[int] = set()
        for monitor in monitors:
            # Monitors usually share one sink; merge each timeline once.
            if id(monitor.sink) not in seen_sinks:
                seen_sinks.add(id(monitor.sink))
                alerts.extend(monitor.sink.timeline)
        return ShiftResult(
            files=self.files, phases=stats, elapsed=engine.now - start,
            alerts=alerts,
        )

    def cleanup(self) -> None:
        client = self.system.client()
        if client.exists(self.base_dir):
            client.delete(self.base_dir, recursive=True)
