"""The four benchmark workloads, driven only through public ``repro`` APIs.

Each workload is one closed loop: a single client thread issues one
user-level run (``run``) and waits for it to finish before the harness
starts the next. Concurrency inside a run is simulated (DFSIO's 27
tasks are engine processes), so a run is single-threaded Python.

Life cycle per repetition, as :mod:`perfbench.run` drives it::

    workload.prepare()   # untimed: build the deployment, pre-populate
    workload.run()       # timed: the operations a user waits for
    workload.outcome()   # untimed: check outputs, report counts

Inputs come only from the seed: the cluster spec, the deployment's
placement/retrieval RNG streams, DFSIO's reader rotation, S-Live's
shuffle and the shift reader's hot-set draws are all seeded with it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.deployments import build_deployment
from repro.cluster.spec import paper_cluster_spec
from repro.fs.client import Client
from repro.fs.invariants import block_map_fingerprint, collect_violations
from repro.obs import (
    FlightRecorder,
    HealthMonitor,
    ProvenanceLedger,
    SloMonitor,
    default_read_rules,
    read_jsonl_records,
    validate_ledger_records,
    validate_trace_records,
    write_jsonl,
    write_metrics,
)
from repro.tier import DecayHeatPolicy, TieringEngine
from repro.util.units import GB, MB
from repro.workloads.dfsio import Dfsio
from repro.workloads.shift import WorkloadShift
from repro.workloads.slive import OPERATIONS, OctopusNamespaceAdapter, SLive

#: DFSIO input: 100 GB over 27 tasks, default U=3 vector, so 300 GB of
#: replicas against a 9 x 4 GB memory tier (the data does not fit).
DFSIO_BYTES = 100 * GB
DFSIO_TASKS = 27
DFSIO_VECTOR = 3

#: S-Live input: 2000 operations per type over 50 directories, so every
#: listed directory holds 40 sub-directories and 40 files (fan-out 80).
SLIVE_OPS_PER_TYPE = 2000
SLIVE_DIRS = 50

#: Shift input: 32 files of 16 MB (HDD x2), 8 phases of 300 reads, a
#: 4-file hot set drawing 90% of reads, 0.5 s simulated think time.
#: The hot set (64 MB) and the whole pool fit the memory tier.
SHIFT_FILES = 32
SHIFT_FILE_SIZE = 16 * MB
SHIFT_PHASES = 8
SHIFT_READS_PER_PHASE = 300
SHIFT_HOT_SET = 4
#: Tiering cadence of ``repro experiment tiering``.
SHIFT_TIER_INTERVAL = 2.0
SHIFT_HALF_LIFE = 8.0


def _digest(value) -> str:
    """Stable short hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one repetition produced, as checked after it ran."""

    #: Operations the run attempted (blocks moved, namespace calls, reads).
    ops: int
    #: Output-check failures; any failure marks every op of the run failed.
    problems: list[str] = field(default_factory=list)
    #: Simulated outputs, for traced-vs-untraced and cross-workload equality.
    sim: dict = field(default_factory=dict)
    #: Workload-specific end-to-end figures: name -> (value, unit).
    figures: dict = field(default_factory=dict)


class Workload:
    """Base: one seeded workload bound to an output directory."""

    name = ""
    #: Nominal op count, used when a run raises before it can report.
    nominal_ops = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def outcome(self, wall: float) -> Outcome:
        raise NotImplementedError

    def counters(self) -> dict:
        """Deterministic work counters the program keeps (public attributes)."""
        return {}

    def exports(self) -> dict:
        """Per exporter, ``(wall seconds, bytes written)`` of the last run."""
        return {}

    @property
    def namespace(self):
        raise NotImplementedError


class DfsioWorkload(Workload):
    """``repro dfsio --size 100GB -d 27`` on the octopus deployment."""

    name = "dfsio"
    #: 27 files x 30 blocks of 128 MB, each written once and read once.
    nominal_ops = 2 * DFSIO_TASKS * 30

    def prepare(self) -> None:
        spec = paper_cluster_spec(seed=self.seed)
        self.fs = build_deployment("octopus", spec=spec, seed=self.seed)
        self.bench = Dfsio(self.fs)

    def run(self) -> None:
        start = time.perf_counter()
        self.write = self.bench.write(
            DFSIO_BYTES, parallelism=DFSIO_TASKS, rep_vector=DFSIO_VECTOR
        )
        middle = time.perf_counter()
        self.read = self.bench.read(parallelism=DFSIO_TASKS)
        self.write_wall = middle - start
        self.read_wall = time.perf_counter() - middle

    @property
    def namespace(self):
        return self.fs.master.namespace

    def counters(self) -> dict:
        flows = self.fs.cluster.flows
        return {
            "events": self.fs.engine.events_processed,
            "flows_started": flows.total_flows_started,
            "rate_computations": flows.rate_computations,
        }

    def outcome(self, wall: float) -> Outcome:
        write, read = self.write, self.read
        blocks = sum(len(f.blocks) for f in self.namespace.iter_files())
        problems = []
        if read.total_bytes != write.total_bytes:
            problems.append(
                f"read {read.total_bytes} bytes of {write.total_bytes} written"
            )
        task_bytes = sum(nbytes for nbytes, _ in read.task_stats)
        if task_bytes != write.total_bytes:
            problems.append(
                f"reader tasks returned {task_bytes} of {write.total_bytes} bytes"
            )
        for check, violations in collect_violations(self.fs).items():
            problems.extend(f"{check}: {v}" for v in violations)
        return Outcome(
            ops=2 * blocks,
            problems=problems,
            sim={
                "layout": _digest(block_map_fingerprint(self.fs)),
                "write_makespan": repr(write.elapsed),
                "read_makespan": repr(read.elapsed),
                "locality": repr(read.locality_fraction),
            },
            figures={
                "write_gb_per_s": (write.total_bytes / GB / self.write_wall, "GB/s"),
                "read_gb_per_s": (read.total_bytes / GB / self.read_wall, "GB/s"),
            },
        )


class DfsioObservedWorkload(DfsioWorkload):
    """The same DFSIO run with every observation channel a user can enable.

    Equals ``repro dfsio --size 100GB -d 27 --trace-out --metrics-out
    --slo --recorder-out --ledger-out``: tracer and metrics exported to
    files, SLO + health monitors, flight recorder and provenance ledger.
    """

    name = "dfsio_observed"

    def prepare(self) -> None:
        self.bundle_dir = self.out_dir / "bundles"
        shutil.rmtree(self.bundle_dir, ignore_errors=True)
        self.trace_path = self.out_dir / "trace.jsonl"
        self.metrics_path = self.out_dir / "metrics.prom"
        self.ledger_path = self.out_dir / "ledger.jsonl"
        spec = paper_cluster_spec(seed=self.seed)
        self.fs = build_deployment("octopus", spec=spec, seed=self.seed)
        self.fs.obs.enable()
        self.slo = SloMonitor(self.fs, rules=default_read_rules())
        self.health = HealthMonitor(self.fs, sink=self.slo.sink)
        self.recorder = FlightRecorder(
            self.fs, out_dir=str(self.bundle_dir)
        ).attach()
        self.ledger = ProvenanceLedger(self.fs.obs).attach()
        self.bench = Dfsio(self.fs, monitors=(self.slo, self.health))

    def run(self) -> None:
        super().run()
        obs = self.fs.obs
        start = time.perf_counter()
        self.recorder.detach()
        recorder_done = time.perf_counter()
        self.ledger.detach()
        self.ledger.export(str(self.ledger_path))
        ledger_done = time.perf_counter()
        write_metrics(obs.metrics, str(self.metrics_path))
        metrics_done = time.perf_counter()
        write_jsonl(obs.tracer.records, str(self.trace_path))
        trace_done = time.perf_counter()
        self.export_walls = {
            "recorder": recorder_done - start,
            "ledger": ledger_done - recorder_done,
            "metrics": metrics_done - ledger_done,
            "trace": trace_done - metrics_done,
        }

    def exports(self) -> dict:
        bundles = list(self.bundle_dir.glob("*")) if self.bundle_dir.exists() else []
        sizes = {
            "recorder": sum(p.stat().st_size for p in bundles),
            "ledger": self.ledger_path.stat().st_size,
            "metrics": self.metrics_path.stat().st_size,
            "trace": self.trace_path.stat().st_size,
        }
        return {name: (self.export_walls[name], sizes[name]) for name in sizes}

    def counters(self) -> dict:
        counters = super().counters()
        obs = self.fs.obs
        counters.update(
            trace_records=len(obs.tracer.records),
            timeseries_samples=sum(
                len(getattr(instrument, "samples", ()))
                for instrument in obs.metrics.instruments()
            ),
            ledger_records=len(self.ledger),
            recorder_records=sum(self.recorder.ring_sizes().values()),
        )
        return counters

    def outcome(self, wall: float) -> Outcome:
        result = super().outcome(wall)
        trace_problems = validate_trace_records(
            read_jsonl_records(str(self.trace_path))
        )
        ledger_problems = validate_ledger_records(
            read_jsonl_records(str(self.ledger_path))
        )
        result.problems.extend(f"trace export: {p}" for p in trace_problems)
        result.problems.extend(f"ledger export: {p}" for p in ledger_problems)
        result.figures["export_s"] = (sum(self.export_walls.values()), "s")
        return result


class SliveWorkload(Workload):
    """The S-Live metadata mix against the OctopusFS namespace, no engine."""

    name = "slive"
    #: Six op types, plus the recursive delete that empties the tree.
    nominal_ops = len(OPERATIONS) * SLIVE_OPS_PER_TYPE + 1

    def prepare(self) -> None:
        self.adapter = OctopusNamespaceAdapter()
        self.slive = SLive(
            ops_per_type=SLIVE_OPS_PER_TYPE, dirs=SLIVE_DIRS, seed=self.seed
        )
        self.inodes_before = self.adapter.namespace.total_inodes

    def run(self) -> None:
        self.result = self.slive.run(self.adapter)
        # S-Live leaves its directories behind; removing the tree is the
        # one extra delete that returns the namespace to where it began.
        self.adapter.delete("/slive")

    @property
    def namespace(self):
        return self.adapter.namespace

    def outcome(self, wall: float) -> Outcome:
        result = self.result
        problems = [
            f"{op}: {result.op_counts.get(op)} of {SLIVE_OPS_PER_TYPE} ops ran"
            for op in OPERATIONS
            if result.op_counts.get(op) != SLIVE_OPS_PER_TYPE
        ]
        inodes = self.adapter.namespace.total_inodes
        if inodes != self.inodes_before:
            problems.append(
                f"namespace holds {inodes} inodes, {self.inodes_before} before"
            )
        edits = self.adapter.edit_records
        return Outcome(
            ops=sum(result.op_counts.values()) + 1,
            problems=problems,
            sim={
                "op_counts": dict(sorted(result.op_counts.items())),
                "edits": len(edits),
                "edit_log": _digest([sorted(r.items()) for r in edits]),
                "inodes": inodes,
            },
            figures={
                f"{op}_ops_s": (result.ops_per_second[op], "1/s")
                for op in OPERATIONS
            },
        )


class ShiftWorkload(Workload):
    """Rotating hot set under the adaptive tiering engine, services on."""

    name = "shift"
    nominal_ops = SHIFT_PHASES * SHIFT_READS_PER_PHASE

    def prepare(self) -> None:
        spec = paper_cluster_spec(seed=self.seed)
        self.fs = build_deployment("octopus", spec=spec, seed=self.seed)
        self.shift = WorkloadShift(
            self.fs,
            files=SHIFT_FILES,
            file_size=SHIFT_FILE_SIZE,
            phases=SHIFT_PHASES,
            reads_per_phase=SHIFT_READS_PER_PHASE,
            hot_set_size=SHIFT_HOT_SET,
            hot_fraction=0.9,
            think_time=0.5,
        )
        self.shift.setup()
        self.fs.await_replication()
        self.tiering = TieringEngine(
            self.fs,
            policy=DecayHeatPolicy(
                promote_heat=2.0, demote_heat=0.5, movement_budget=4
            ),
            interval=SHIFT_TIER_INTERVAL,
            half_life=SHIFT_HALF_LIFE,
        )

    def run(self) -> None:
        self.streams = []
        original_open = Client.open
        streams = self.streams

        def open_and_keep(client, path):
            stream = original_open(client, path)
            streams.append(stream)
            return stream

        # Keeping each read handle lets the check below confirm that
        # every read returned the whole file; the handle is unchanged.
        Client.open = open_and_keep
        try:
            self.tiering.start()
            self.fs.start_services(heartbeat_interval=3.0, replication_interval=1.0)
            self.result = self.shift.run()
            self.tiering.stop()
            self.fs.stop_services()
            self.fs.await_replication()
        finally:
            Client.open = original_open

    @property
    def namespace(self):
        return self.fs.master.namespace

    def counters(self) -> dict:
        flows = self.fs.cluster.flows
        stats = self.tiering.stats
        return {
            "events": self.fs.engine.events_processed,
            "flows_started": flows.total_flows_started,
            "rate_computations": flows.rate_computations,
            "promotions": stats.promotions,
            "demotions": stats.demotions,
            "conflicts": stats.conflicts,
        }

    def outcome(self, wall: float) -> Outcome:
        result = self.result
        reads = sum(phase.reads for phase in result.phases)
        problems = []
        if len(self.streams) != reads:
            problems.append(f"{len(self.streams)} files opened for {reads} reads")
        short = [s.bytes_read for s in self.streams if s.bytes_read != SHIFT_FILE_SIZE]
        if short:
            problems.append(f"{len(short)} reads returned a partial file")
        for check, violations in collect_violations(self.fs).items():
            problems.extend(f"{check}: {v}" for v in violations)
        return Outcome(
            ops=reads,
            problems=problems,
            sim={
                "layout": _digest(block_map_fingerprint(self.fs)),
                "elapsed": repr(result.elapsed),
                "hit_rate": repr(result.post_shift_hit_rate),
                "phase_hits": [phase.memory_hits for phase in result.phases],
                "latencies": _digest(
                    [repr(x) for phase in result.phases for x in phase.latencies]
                ),
            },
            figures={"reads_per_s": (reads / wall, "1/s")},
        )


WORKLOADS = {
    cls.name: cls
    for cls in (DfsioWorkload, DfsioObservedWorkload, SliveWorkload, ShiftWorkload)
}
