"""Observability data points: DFSIO with the metrics layer enabled.

Runs one DFSIO write/read round with full observability on and emits a
machine-readable ``BENCH_observability.json`` at the repository root —
ops/s and per-tier throughput for both phases — so the perf trajectory
of later PRs has concrete data points to compare against. Also asserts
the enabled layer's accounting agrees with the workload's own numbers.

The ``monitoring`` section covers the online SLO monitor:

* **overhead** — the per-event watch-hook cost (microbenchmarked)
  times the events the monitor observes on the scaled S-Live mix,
  relative to the baseline wall; the committed boolean gate is
  overhead below 5% (raw walls and percents are machine noise and
  stay un-gated);
* **invisibility** — a monitor whose rules stay quiet must leave the
  DFSIO trace/metrics exports byte-identical to a run without the
  subsystem (the differential guarantee the test suite also checks);
* **detection** — the chaos scenario's fault→alert delay, a pure
  function of the seed and therefore gated exactly.

The ``enabled`` section frames the cost of switching the metrics and
tracing layer on at all: the bench-scale DFSIO round untraced vs with
``obs.enable()``, as a best-of-5 wall ratio and a tracemalloc peak
ratio (both banded), plus the deterministic utilization sample count
and the time series' bytes per sample (gated exactly).

The ``provenance`` section covers the decision ledger with the same
structure: a per-feed microbench times the deterministic decision-record
count (gated boolean: under 5%), byte-invisibility of the attached
ledger on the other exports, and seed-determinism of its own .gz export.
"""

import json
import pathlib
import sys
import tempfile
import time
import tracemalloc

from repro import OctopusFileSystem, ReplicationVector
from repro.bench.deployments import build_deployment
from repro.cluster.spec import paper_cluster_spec, small_cluster_spec
from repro.obs import (
    AvailabilitySlo,
    BurnRateRule,
    FlightRecorder,
    LatencySlo,
    Observability,
    ProvenanceLedger,
    RecorderConfig,
    SloMonitor,
    default_read_rules,
    metrics_json,
    postmortem_report,
    to_jsonl,
)
from repro.util.units import GB, MB
from repro.workloads.dfsio import Dfsio
from repro.workloads.slive import OctopusNamespaceAdapter, SLive

SEED_FILE = pathlib.Path(__file__).parent.parent / "BENCH_observability.json"

#: The committed overhead bound for monitoring-enabled S-Live.
OVERHEAD_BOUND_PERCENT = 5.0


def run_observed_dfsio(scale: float, seed: int = 0) -> dict:
    """One DFSIO round with observability on; returns the data points."""
    fs = build_deployment(
        "octopus", spec=paper_cluster_spec(racks=1, seed=seed), seed=seed
    )
    fs.obs.enable()
    bench = Dfsio(fs)
    parallelism = max(3, int(27 * scale))
    total = int(10 * GB * scale)
    write = bench.write(total, parallelism=parallelism)
    read = bench.read(parallelism=parallelism)

    def tier_counter(name: str) -> dict:
        return {
            dict(i.labels)["tier"]: i.value
            for i in fs.obs.metrics.instruments()
            if i.name == name
        }

    written = tier_counter("bytes_written_total")
    read_bytes = tier_counter("bytes_read_total")
    data = {
        "benchmark": "observability",
        "seed": seed,
        "scale": scale,
        "parallelism": parallelism,
        "write": {
            "ops_per_second": write.files / write.elapsed,
            "throughput_mbs_per_worker": write.throughput_per_worker_mbs,
            "elapsed_sim_s": write.elapsed,
            "per_tier_throughput_mbs": {
                tier: value / write.elapsed / MB
                for tier, value in sorted(written.items())
            },
        },
        "read": {
            "ops_per_second": read.files / read.elapsed,
            "throughput_mbs_per_worker": read.throughput_per_worker_mbs,
            "elapsed_sim_s": read.elapsed,
            "per_tier_throughput_mbs": {
                tier: value / read.elapsed / MB
                for tier, value in sorted(read_bytes.items())
            },
        },
        "trace_records": len(fs.obs.tracer.records),
        "metric_instruments": len(fs.obs.metrics),
        "monitoring": {
            **measure_slive_overhead(scale),
            **measure_monitor_invisibility(),
            **measure_chaos_detection(),
        },
        "recorder": measure_recorder(scale),
        "provenance": measure_provenance(scale),
        "enabled": measure_enabled(),
    }
    return data


# ----------------------------------------------------------------------
# Enabled vs disabled data points
# ----------------------------------------------------------------------
def _bench_dfsio(enabled: bool, seed: int = 0):
    """Build the deployment and run one full-size DFSIO round (10 GB, d=27).

    Returns ``(fs, wall seconds of the write+read round)``.
    """
    fs = build_deployment(
        "octopus", spec=paper_cluster_spec(racks=1, seed=seed), seed=seed
    )
    if enabled:
        fs.obs.enable()
    bench = Dfsio(fs)
    start = time.perf_counter()
    bench.write(10 * GB, parallelism=27)
    bench.read(parallelism=27)
    return fs, time.perf_counter() - start


def _tracemalloc_peak(enabled: bool) -> int:
    """Peak traced bytes of one deployment build plus DFSIO round."""
    tracemalloc.start()
    try:
        _bench_dfsio(enabled)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_enabled() -> dict:
    """What turning observability on costs a DFSIO round.

    The round is fixed-size, like the provenance section's, because at
    reduced scales it shrinks to a few milliseconds and the ratios
    would gate timer noise. The walls are best-of-3, interleaved so
    host speed swings hit both variants alike; the committed figures
    are their ratio and the tracemalloc peak ratio, gated within bands
    (the wall ratio's is wide: it spans 1.0-1.5 run to run on a shared
    two-core host).
    The sample count is a pure function of the seed, and bytes per
    sample follows from it, so both gate exactly.
    """
    _bench_dfsio(enabled=True)  # warm imports and allocator pools
    disabled_wall = enabled_wall = None
    for _ in range(5):
        _, wall = _bench_dfsio(enabled=False)
        disabled_wall = wall if disabled_wall is None else min(disabled_wall, wall)
        fs, wall = _bench_dfsio(enabled=True)
        enabled_wall = wall if enabled_wall is None else min(enabled_wall, wall)
    series = [
        instrument for instrument in fs.obs.metrics.instruments()
        if instrument.kind == "timeseries"
    ]
    samples = sum(len(instrument.samples) for instrument in series)
    series_bytes = sum(sys.getsizeof(instrument) for instrument in series)
    return {
        # Wall-clock values are machine noise: reported, never gated.
        "disabled_wall_s": disabled_wall,
        "enabled_wall_s": enabled_wall,
        "enabled_wall_ratio": enabled_wall / disabled_wall,
        "enabled_tracemalloc_peak_ratio": (
            _tracemalloc_peak(enabled=True)
            / _tracemalloc_peak(enabled=False)
        ),
        "timeseries_samples": samples,
        "timeseries_bytes_per_sample": series_bytes / samples,
    }


# ----------------------------------------------------------------------
# Online-monitoring data points
# ----------------------------------------------------------------------
def _availability_rule() -> BurnRateRule:
    return BurnRateRule(
        AvailabilitySlo(
            "slive-availability",
            "slive_ops_total",
            "slive_errors_total",
        ),
        long_window=60.0,
        short_window=5.0,
    )


def _slive_wall(ops: int, monitored: bool) -> tuple[float, int]:
    """Best-of-3 wall seconds for one S-Live mix, optionally monitored.

    Observability is enabled in both variants so the comparison frames
    the monitor subsystem — watch hooks on the hot counters plus
    per-phase ticks — rather than the (already characterized) cost of
    turning the metrics layer on. Returns ``(wall, watched_events)``
    where the event count is the number of counter increments the
    monitor's rules observed (deterministic; 0 when unmonitored).
    """
    best = None
    events = 0
    for _ in range(3):
        obs = Observability(enabled=True)
        monitor = None
        if monitored:
            monitor = SloMonitor(rules=[_availability_rule()], obs=obs)
        slive = SLive(ops_per_type=ops, seed=0, obs=obs, monitor=monitor)
        start = time.perf_counter()
        slive.run(OctopusNamespaceAdapter())
        elapsed = time.perf_counter() - start
        if monitored:
            assert monitor.ticks > 0, "monitor must tick per phase"
            assert monitor.sink.timeline == [], "clean run must not alert"
            events = sum(
                entry["events"] for entry in monitor.watch_summary()["slos"]
            )
        best = elapsed if best is None else min(best, elapsed)
    return best, events


def _per_increment_seconds(watched: bool, iters: int = 200_000) -> float:
    """Best-of-3 seconds per counter increment, watched or not.

    A tight loop over one increment amortizes scheduler noise that an
    end-to-end wall delta cannot: multiplicative jitter on a
    microsecond-scale unit cost stays microsecond-scale.
    """
    obs = Observability(enabled=True)
    if watched:
        SloMonitor(rules=[_availability_rule()], obs=obs)
    counter = obs.metrics.counter("slive_ops_total", op="probe")
    best = None
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iters):
            counter.inc()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / iters


def measure_slive_overhead(scale: float) -> dict:
    """Monitoring overhead on the S-Live mix.

    The gated figure multiplies the microbenchmarked per-increment
    watch-hook cost by the (deterministic) number of events the
    monitor observes during the run, relative to the baseline wall —
    robust against the tens-of-percent wall jitter of shared runners,
    where a direct end-to-end delta would gate pure noise. The raw
    walls ride along as un-gated context.
    """
    # A floor of 2000 ops keeps the measured walls well clear of
    # fixed-cost noise even at reduced CI scales.
    ops = max(2000, int(2000 * scale))
    # One untimed pass warms imports and allocator pools; without it the
    # cold-start cost lands entirely on whichever variant runs first.
    _slive_wall(max(100, ops // 5), monitored=True)
    baseline, _ = _slive_wall(ops, monitored=False)
    monitored, watched_events = _slive_wall(ops, monitored=True)
    per_event = max(
        0.0,
        _per_increment_seconds(True) - _per_increment_seconds(False),
    )
    overhead = per_event * watched_events / baseline * 100.0
    return {
        "slive_ops_per_type": ops,
        "slive_watched_events": watched_events,
        # Wall-clock values are machine noise: reported, never gated.
        "slive_baseline_wall_s": baseline,
        "slive_monitored_wall_s": monitored,
        "slive_overhead_per_event_us": per_event * 1e6,
        "slive_overhead_percent": overhead,
        "overhead_within_bound": overhead < OVERHEAD_BOUND_PERCENT,
    }


def measure_monitor_invisibility() -> dict:
    """Quiet monitor vs no monitor: exports must match byte for byte."""

    def exports(with_monitor: bool) -> tuple[str, str]:
        fs = OctopusFileSystem(small_cluster_spec(seed=3))
        fs.obs.enable()
        monitors = ()
        if with_monitor:
            rules = default_read_rules(
                latency_threshold=1e6, burn_threshold=1e3,
                long_window=0.5, short_window=0.1,
            )
            monitors = (SloMonitor(fs, rules=rules, interval=0.01),)
        bench = Dfsio(fs, sample_interval=0.5, monitors=monitors)
        bench.write(24 * MB, parallelism=3)
        bench.read(parallelism=3)
        return to_jsonl(fs.obs.tracer.records), metrics_json(fs.obs.metrics)

    return {
        "disabled_path_byte_identical": exports(False) == exports(True),
    }


def measure_chaos_detection(seed: int = 0) -> dict:
    """The scheduled-degrade scenario's detection delay (sim seconds)."""
    fs = OctopusFileSystem(small_cluster_spec(seed=seed))
    fs.obs.enable()
    fs.client(on="worker1").write_file(
        "/hot", size=4 * MB,
        rep_vector=ReplicationVector.of(memory=1, hdd=1), overwrite=True,
    )
    engine = fs.engine
    rule = BurnRateRule(
        LatencySlo(
            "read-latency", "tier_read_seconds", threshold=0.01, target=0.95
        ),
        threshold=4.0, long_window=2.0, short_window=0.5,
    )
    monitor = SloMonitor(fs, rules=[rule], interval=0.25)
    fault_at = 3.0

    def reader():
        client = fs.client(on="worker2")
        for _ in range(200):
            stream = client.open("/hot")
            yield from stream.read_proc(collect=False)
            yield engine.timeout(0.05)

    def degrader():
        yield engine.timeout(fault_at)
        fs.faults.degrade_medium("worker1:memory0", factor=0.02)
        yield engine.timeout(3.0)
        fs.faults.repair_medium("worker1:memory0")

    monitor.start()
    done = engine.all_of([
        engine.process(reader(), name="reader"),
        engine.process(degrader(), name="degrader"),
    ])
    engine.run(done)
    monitor.stop()
    engine.run()
    timeline = monitor.sink.timeline
    fired = next(r for r in timeline if r["state"] == "firing")
    resolved = next(r for r in timeline if r["state"] == "resolved")
    return {
        "chaos_detection_delay_sim_s": fired["time"] - fault_at,
        "chaos_time_to_clear_sim_s": resolved["time"] - fired["time"],
        "chaos_alert_transitions": len(timeline),
    }


# ----------------------------------------------------------------------
# Flight-recorder data points
# ----------------------------------------------------------------------
def _per_trace_record_seconds(attached: bool, iters: int = 50_000) -> float:
    """Best-of-3 seconds per tracer event, with/without the recorder subscribed."""
    obs = Observability(enabled=True)
    if attached:
        FlightRecorder(obs=obs).attach()
    tracer = obs.tracer
    best = None
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iters):
            tracer.event("probe")
        elapsed = time.perf_counter() - start
        # The tracer's own stream grows unboundedly by design; clear it
        # between rounds so the loop measures subscriber cost, not allocation
        # pressure from an ever-larger list.
        tracer.records.clear()
        best = elapsed if best is None else min(best, elapsed)
    return best / iters


def _slive_recorder_wall(ops: int, attached: bool) -> tuple[float, int]:
    """Best-of-3 wall seconds for one S-Live mix, recorder on or off."""
    best = None
    records = 0
    for _ in range(3):
        obs = Observability(enabled=True)
        recorder = None
        if attached:
            recorder = FlightRecorder(obs=obs).attach()
        slive = SLive(ops_per_type=ops, seed=0, obs=obs)
        start = time.perf_counter()
        slive.run(OctopusNamespaceAdapter())
        elapsed = time.perf_counter() - start
        if recorder is not None:
            assert recorder.bundles == [], "clean run must not bundle"
            records = len(obs.tracer.records)
            recorder.detach()
        best = elapsed if best is None else min(best, elapsed)
    return best, records


def _recorder_invisibility() -> bool:
    """Attached-but-quiet recorder vs none: byte-identical exports."""

    def exports(with_recorder: bool) -> tuple[str, str]:
        fs = OctopusFileSystem(small_cluster_spec(seed=3))
        fs.obs.enable()
        recorder = None
        if with_recorder:
            recorder = FlightRecorder(fs).attach()
        bench = Dfsio(fs, sample_interval=0.5)
        bench.write(24 * MB, parallelism=3)
        bench.read(parallelism=3)
        if recorder is not None:
            assert recorder.bundles == []
            recorder.detach()
        return to_jsonl(fs.obs.tracer.records), metrics_json(fs.obs.metrics)

    return exports(False) == exports(True)


def _chaos_bundle(seed: int = 0) -> dict:
    """The scheduled-degrade scenario with the recorder attached.

    Returns the bundle-shape data points: record counts, on-disk gzip
    size (byte-stable for a given seed), ring occupancy vs configured
    bounds, and whether the postmortem's causal chain closed.
    """
    fs = OctopusFileSystem(small_cluster_spec(seed=seed))
    fs.obs.enable()
    config = RecorderConfig(post_roll=6.0)
    with tempfile.TemporaryDirectory() as out_dir:
        recorder = FlightRecorder(fs, config=config, out_dir=out_dir).attach()
        fs.client(on="worker1").write_file(
            "/hot", size=4 * MB,
            rep_vector=ReplicationVector.of(memory=1, hdd=1), overwrite=True,
        )
        engine = fs.engine
        rule = BurnRateRule(
            LatencySlo(
                "read-latency", "tier_read_seconds",
                threshold=0.01, target=0.95,
            ),
            threshold=4.0, long_window=2.0, short_window=0.5,
        )
        monitor = SloMonitor(fs, rules=[rule], interval=0.25)

        def reader():
            client = fs.client(on="worker2")
            for _ in range(200):
                stream = client.open("/hot")
                yield from stream.read_proc(collect=False)
                yield engine.timeout(0.05)

        def degrader():
            yield engine.timeout(3.0)
            fs.faults.degrade_medium("worker1:memory0", factor=0.02)
            yield engine.timeout(3.0)
            fs.faults.repair_medium("worker1:memory0")

        monitor.start()
        done = engine.all_of([
            engine.process(reader(), name="reader"),
            engine.process(degrader(), name="degrader"),
        ])
        engine.run(done)
        monitor.stop()
        engine.run()
        recorder.detach()
        (bundle,) = recorder.bundles
        (path,) = recorder.bundle_paths
        gz_bytes = pathlib.Path(path).stat().st_size
    report = postmortem_report(bundle)
    sizes = recorder.ring_sizes()
    limits = {
        "spans": config.max_spans,
        "events": config.max_events,
        "metric_deltas": config.max_metric_deltas,
        "faults": config.max_faults,
        "health": config.max_health,
        "alerts": config.max_alerts,
    }
    return {
        "bundle_records": sum(
            len(bundle[s])
            for s in ("spans", "events", "metric_deltas",
                      "faults", "health", "alerts")
        ),
        "bundle_gz_bytes": gz_bytes,
        "causal_chain_complete": report["causal_chain"]["complete"],
        "rings_within_bounds": all(
            sizes[name] <= limit for name, limit in limits.items()
        ),
    }


def measure_recorder(scale: float) -> dict:
    """Flight-recorder overhead and bundle-shape data points.

    Same gating structure as the monitoring section: the committed
    verdicts are booleans (overhead under the bound, byte invisibility,
    a complete causal chain, rings within their caps); raw walls and
    per-record costs ride along un-gated.
    """
    ops = max(2000, int(2000 * scale))
    _slive_recorder_wall(max(100, ops // 5), attached=True)  # warm-up
    baseline, _ = _slive_recorder_wall(ops, attached=False)
    attached, observed_records = _slive_recorder_wall(ops, attached=True)
    per_record = max(
        0.0,
        _per_trace_record_seconds(True) - _per_trace_record_seconds(False),
    )
    overhead = per_record * observed_records / baseline * 100.0
    return {
        "slive_observed_records": observed_records,
        # Wall-clock values are machine noise: reported, never gated.
        "baseline_wall_s": baseline,
        "attached_wall_s": attached,
        "tap_overhead_per_record_us": per_record * 1e6,
        "overhead_percent": overhead,
        "overhead_within_bound": overhead < OVERHEAD_BOUND_PERCENT,
        "invisible_when_quiet": _recorder_invisibility(),
        **_chaos_bundle(),
    }


# ----------------------------------------------------------------------
# Provenance-ledger data points
# ----------------------------------------------------------------------
def _per_feed_seconds(attached: bool, iters: int = 100_000) -> float:
    """Best-of-3 seconds per decision feed, attached vs the null path."""
    obs = Observability(enabled=True)
    if attached:
        ProvenanceLedger(obs).attach()
    ledger = obs.ledger
    best = None
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iters):
            if ledger.enabled:
                ledger.on_set_replication(
                    "/probe", old="<0,0,1,0,0>", new="<1,0,1,0,0>", cas=False
                )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / iters


def _dfsio_ledger_wall(attached: bool) -> tuple[float, int]:
    """Best-of-3 wall seconds for a ledgered DFSIO round."""
    best = None
    records = 0
    for _ in range(3):
        fs = OctopusFileSystem(small_cluster_spec(seed=3))
        fs.obs.enable()
        ledger = ProvenanceLedger(fs.obs).attach() if attached else None
        bench = Dfsio(fs)
        start = time.perf_counter()
        bench.write(24 * MB, parallelism=3)
        bench.read(parallelism=3)
        elapsed = time.perf_counter() - start
        if ledger is not None:
            ledger.detach()
            records = len(ledger)
        best = elapsed if best is None else min(best, elapsed)
    return best, records


def _ledger_invisibility() -> bool:
    """Attached-and-busy ledger vs none: byte-identical exports."""

    def exports(with_ledger: bool) -> tuple[str, str]:
        fs = OctopusFileSystem(small_cluster_spec(seed=3))
        fs.obs.enable()
        ledger = ProvenanceLedger(fs.obs).attach() if with_ledger else None
        bench = Dfsio(fs, sample_interval=0.5)
        bench.write(24 * MB, parallelism=3)
        bench.read(parallelism=3)
        if ledger is not None:
            ledger.detach()
        return to_jsonl(fs.obs.tracer.records), metrics_json(fs.obs.metrics)

    return exports(False) == exports(True)


def _ledger_export_determinism() -> bool:
    """Identical seeds must gzip to identical ledger bytes."""

    def export_bytes() -> bytes:
        fs = OctopusFileSystem(small_cluster_spec(seed=7))
        fs.obs.enable()
        ledger = ProvenanceLedger(fs.obs).attach()
        Dfsio(fs).write(16 * MB, parallelism=2)
        ledger.detach()
        with tempfile.TemporaryDirectory() as out_dir:
            path = pathlib.Path(out_dir) / "ledger.jsonl.gz"
            ledger.export(str(path))
            return path.read_bytes()

    return export_bytes() == export_bytes()


def measure_provenance(scale: float) -> dict:
    """Provenance-ledger overhead and determinism data points.

    Same gating structure as the recorder section: the committed
    verdicts are booleans (feed overhead under the bound, byte
    invisibility while busy, seed-deterministic exports) plus the
    exactly-gated decision-record count; raw walls and per-feed costs
    ride along un-gated.
    """
    del scale  # the DFSIO round is fixed-size: record counts must gate
    baseline, _ = _dfsio_ledger_wall(attached=False)
    attached_wall, decision_records = _dfsio_ledger_wall(attached=True)
    per_record = max(
        0.0, _per_feed_seconds(True) - _per_feed_seconds(False)
    )
    overhead = per_record * decision_records / baseline * 100.0
    return {
        "decision_records": decision_records,
        # Wall-clock values are machine noise: reported, never gated.
        "baseline_wall_s": baseline,
        "attached_wall_s": attached_wall,
        "feed_overhead_per_record_us": per_record * 1e6,
        "overhead_percent": overhead,
        "overhead_within_bound": overhead < OVERHEAD_BOUND_PERCENT,
        "invisible_when_attached": _ledger_invisibility(),
        "export_deterministic": _ledger_export_determinism(),
    }


def test_observability_data_points(benchmark, bench_scale, record_result):
    data = benchmark.pedantic(
        run_observed_dfsio, kwargs={"scale": bench_scale}, rounds=1,
        iterations=1,
    )
    payload = json.dumps(data, sort_keys=True, indent=2) + "\n"
    SEED_FILE.write_text(payload)
    record_result("observability", payload)

    # The metrics layer's per-tier accounting must add up to what the
    # workload itself reports having moved.
    total_written_mbs = sum(data["write"]["per_tier_throughput_mbs"].values())
    # Every write lands on 3 tiers (default U=3 spread) so tier-summed
    # throughput is >= the client-visible number.
    assert total_written_mbs > 0
    assert data["read"]["ops_per_second"] > 0
    assert data["trace_records"] > 0
    assert data["metric_instruments"] > 0

    # Online-monitoring guarantees, enforced here and gated by the
    # committed baseline booleans.
    monitoring = data["monitoring"]
    assert monitoring["overhead_within_bound"], (
        f"S-Live monitoring overhead "
        f"{monitoring['slive_overhead_percent']:.2f}% exceeds "
        f"{OVERHEAD_BOUND_PERCENT}%"
    )
    assert monitoring["disabled_path_byte_identical"]
    assert monitoring["chaos_alert_transitions"] == 2  # fire + resolve
    assert 0.0 < monitoring["chaos_detection_delay_sim_s"] <= 1.0

    # Flight-recorder guarantees, same structure: gated booleans plus
    # un-gated raw walls.
    recorder = data["recorder"]
    assert recorder["overhead_within_bound"], (
        f"flight-recorder overhead "
        f"{recorder['overhead_percent']:.2f}% exceeds "
        f"{OVERHEAD_BOUND_PERCENT}%"
    )
    assert recorder["invisible_when_quiet"]
    assert recorder["causal_chain_complete"]
    assert recorder["rings_within_bounds"]
    assert recorder["bundle_records"] > 0
    assert recorder["bundle_gz_bytes"] > 0

    # Provenance-ledger guarantees: the attached ledger's feed cost
    # stays under the bound, it never perturbs the other exports, and
    # its own export is a pure function of the seed.
    provenance = data["provenance"]
    assert provenance["overhead_within_bound"], (
        f"provenance feed overhead "
        f"{provenance['overhead_percent']:.2f}% exceeds "
        f"{OVERHEAD_BOUND_PERCENT}%"
    )
    assert provenance["invisible_when_attached"]
    assert provenance["export_deterministic"]
    assert provenance["decision_records"] > 0

    # Enabled vs disabled: the utilization series are columnar (16 B
    # per sample plus per-series and array-growth overhead).
    enabled = data["enabled"]
    assert enabled["timeseries_samples"] > 0
    assert 16 <= enabled["timeseries_bytes_per_sample"] < 24
    assert enabled["enabled_tracemalloc_peak_ratio"] > 1.0
