"""Simulation-time observability: metrics, tracing, and exporters.

The :class:`Observability` facade bundles a :class:`MetricsRegistry`
and a :class:`Tracer` behind one ``enabled`` switch. Every cluster owns
one (``cluster.obs``, mirrored as ``fs.obs`` and ``master.obs``),
disabled by default so instrumented hot paths cost one attribute load
and one branch.

Typical enablement::

    fs = build_deployment("octopus", spec=spec, seed=0)
    fs.obs.enable()
    ... run a workload ...
    write_jsonl(fs.obs.tracer.records, "trace.jsonl")
    print(prometheus_text(fs.obs.metrics))

Instrumented call sites follow one idiom::

    obs = self.obs
    if obs.enabled:
        obs.metrics.counter("bytes_written_total", tier=tier).inc(n)

The guard keeps the disabled path free of label-dict allocation; the
facade swaps in shared null singletons (:data:`NULL_REGISTRY`,
:data:`NULL_TRACER`) when disabled, so even unguarded calls are safe
no-ops.

See ``docs/OBSERVABILITY.md`` for the metric catalog and span taxonomy.
"""

from __future__ import annotations

import json
import os
from typing import Callable

from repro.obs.analyze import (
    Trace,
    alert_report,
    analysis_json,
    analyze_trace,
    critical_path,
    read_trace,
    read_trace_file,
)
from repro.obs.chrome import (
    chrome_trace,
    chrome_trace_json,
    read_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import (
    SCHEMA_VERSION,
    _write_text,
    metrics_json,
    prometheus_text,
    read_jsonl_records,
    tier_report_data,
    tier_utilization_rows,
    to_jsonl,
    validate_alert_records,
    validate_trace_records,
    write_jsonl,
    write_metrics,
)
from repro.obs.health import HealthMonitor
from repro.obs.provenance import (
    DECISION_ACTIONS,
    NULL_LEDGER,
    NullLedger,
    ProvenanceLedger,
    decision_summary,
    explain,
    explain_text,
    validate_ledger_records,
)
from repro.obs.postmortem import (
    BundleError,
    blast_radius_decisions,
    build_timeline,
    postmortem_json,
    postmortem_report,
    postmortem_text,
    read_bundle,
    validate_bundle,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    FlightRecorder,
    NullRecorder,
    RecorderConfig,
    write_bundle,
)
from repro.obs.registry import (
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.slo import (
    AlertSink,
    AvailabilitySlo,
    BurnRateRule,
    LatencySlo,
    SloMonitor,
    default_read_rules,
)
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.windows import QuantileSketch, WindowedCounts, WindowedSketch

__all__ = [
    "Observability",
    "ObsCapture",
    "active_capture",
    "join_capture",
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "NullTracer",
    "Span",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl_records",
    "validate_trace_records",
    "validate_alert_records",
    "QuantileSketch",
    "WindowedSketch",
    "WindowedCounts",
    "LatencySlo",
    "AvailabilitySlo",
    "BurnRateRule",
    "AlertSink",
    "SloMonitor",
    "HealthMonitor",
    "FlightRecorder",
    "NullRecorder",
    "RecorderConfig",
    "NULL_RECORDER",
    "ProvenanceLedger",
    "NullLedger",
    "NULL_LEDGER",
    "DECISION_ACTIONS",
    "validate_ledger_records",
    "decision_summary",
    "explain",
    "explain_text",
    "write_bundle",
    "read_bundle",
    "validate_bundle",
    "build_timeline",
    "blast_radius_decisions",
    "postmortem_report",
    "postmortem_json",
    "postmortem_text",
    "BundleError",
    "default_read_rules",
    "alert_report",
    "prometheus_text",
    "metrics_json",
    "write_metrics",
    "tier_report_data",
    "tier_utilization_rows",
    "Trace",
    "read_trace",
    "read_trace_file",
    "analyze_trace",
    "analysis_json",
    "critical_path",
    "chrome_trace",
    "chrome_trace_json",
    "read_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]


class Observability:
    """One switchable bundle of metrics + tracing for a cluster."""

    __slots__ = ("enabled", "metrics", "tracer", "recorder", "ledger",
                 "_clock")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = False,
    ) -> None:
        self._clock = clock
        self.enabled = False
        self.metrics: MetricsRegistry | NullRegistry = NULL_REGISTRY
        self.tracer: Tracer | NullTracer = NULL_TRACER
        #: The attached :class:`~repro.obs.recorder.FlightRecorder`, or
        #: the shared no-op singleton — instrumented sites feed it
        #: unconditionally (``obs.recorder.on_alert(...)``), so the
        #: detached path costs one attribute load and a no-op call.
        self.recorder: FlightRecorder | NullRecorder = NULL_RECORDER
        #: The attached :class:`~repro.obs.provenance.ProvenanceLedger`,
        #: or the shared no-op singleton — decision sites gate record
        #: construction on ``obs.ledger.enabled`` (one attribute load
        #: and a falsy check when detached).
        self.ledger: ProvenanceLedger | NullLedger = NULL_LEDGER
        if enabled:
            self.enable()

    def enable(self) -> "Observability":
        """Switch on collection (idempotent; state survives re-enable)."""
        if not self.enabled:
            self.enabled = True
            self.metrics = MetricsRegistry(self._clock)
            self.tracer = Tracer(self._clock)
        return self

    def disable(self) -> "Observability":
        """Switch off collection and drop all recorded state."""
        self.enabled = False
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER
        if self.recorder is not NULL_RECORDER:
            self.recorder.detach()
        self.recorder = NULL_RECORDER
        if self.ledger is not NULL_LEDGER:
            self.ledger.detach()
        self.ledger = NULL_LEDGER
        return self

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0


#: Innermost active :class:`ObsCapture` scopes, outermost first.
_capture_stack: list["ObsCapture"] = []


def active_capture() -> "ObsCapture | None":
    """The innermost active capture scope, or ``None``."""
    return _capture_stack[-1] if _capture_stack else None


def join_capture(system=None, *, obs: Observability | None = None) -> None:
    """Register an obs owner with the active capture scope, if any.

    Owners call this once, when they create their bundle: a
    :class:`repro.cluster.Cluster` passes itself as ``system``, an
    engine-less harness such as S-Live passes ``obs=``.
    """
    capture = active_capture()
    if capture is not None:
        capture.attach(system, obs=obs)


def _run_path(path: str, index: int) -> str:
    """``ledger.jsonl.gz`` → ``ledger.run-<index>.jsonl.gz``."""
    head, name = os.path.split(path)
    stem, dot, suffix = name.partition(".")
    return os.path.join(head, f"{stem}.run-{index}{dot}{suffix}")


class ObsCapture:
    """Collect telemetry from every obs owner created inside a ``with``.

    Commands build their deployments internally (experiments often
    several per run), so the CLI cannot wire each one. Instead, obs
    owners call :func:`join_capture` when created; the capture enables
    their bundle and, when ``recorder_out`` / ``ledger_out`` are set,
    attaches a :class:`FlightRecorder` and a :class:`ProvenanceLedger`.

    A clean exit detaches them (which seals any open incident) and
    writes the exports. One captured bundle writes to the exact paths
    given. Several write one ledger (``ledger.run-<i>.jsonl.gz``) and
    bundle directory (``<recorder_out>/run-<i>/``) each, one metrics
    document with per-run sections, and one merged trace whose span ids
    are offset per tracer so they stay unique and referentially intact.
    """

    def __init__(
        self,
        metrics_out: str | None = None,
        trace_out: str | None = None,
        recorder_out: str | None = None,
        ledger_out: str | None = None,
    ) -> None:
        self.metrics_out = metrics_out
        self.trace_out = trace_out
        self.recorder_out = recorder_out
        self.ledger_out = ledger_out
        self.captured: list[Observability] = []
        self.recorders: list[FlightRecorder] = []
        self.ledgers: list[ProvenanceLedger] = []
        #: Where each ledger was written, parallel to :attr:`ledgers`.
        self.ledger_paths: list[str] = []

    def __enter__(self) -> "ObsCapture":
        _capture_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _capture_stack.pop()
        if exc_type is None:
            self.finish()

    def attach(self, system=None, *, obs: Observability | None = None) -> None:
        """Enable and wire one bundle. ``system`` is anything with
        ``.obs`` and ``.engine``; engine-less owners pass ``obs=``."""
        if system is not None:
            obs = system.obs
        obs.enable()
        self.captured.append(obs)
        if self.recorder_out:
            self.recorders.append(FlightRecorder(system, obs=obs).attach())
        if self.ledger_out:
            self.ledgers.append(ProvenanceLedger(obs).attach())

    def finish(self) -> None:
        """Detach the observers and write every requested export."""
        single = len(self.captured) == 1
        for index, recorder in enumerate(self.recorders):
            recorder.detach()
            recorder.export(
                self.recorder_out if single
                else os.path.join(self.recorder_out, f"run-{index}")
            )
        for index, ledger in enumerate(self.ledgers):
            ledger.detach()
            path = (
                self.ledger_out if single
                else _run_path(self.ledger_out, index)
            )
            ledger.export(path)
            self.ledger_paths.append(path)
        if self.metrics_out:
            _write_text(
                self.metrics_text(
                    as_json=self.metrics_out.endswith((".json", ".json.gz"))
                ),
                self.metrics_out,
            )
        if self.trace_out:
            write_jsonl(self.merged_trace_records(), self.trace_out)

    def merged_trace_records(self) -> list[dict]:
        """All captured records as one stream with disjoint id spaces.

        Each tracer's span/trace/parent ids are shifted by the total id
        width of the tracers captured before it, so the merged stream
        still satisfies :func:`validate_trace_records`.
        """
        merged: list[dict] = []
        offset = 0
        for obs in self.captured:
            tracer = obs.tracer
            for record in tracer.records:
                if offset:
                    record = dict(record)
                    for key in ("span_id", "trace_id", "parent_id"):
                        if record.get(key) is not None:
                            record[key] += offset
                merged.append(record)
            offset += tracer.ids_issued
        return merged

    def metrics_text(self, as_json: bool) -> str:
        """Merged metrics as canonical JSON or Prometheus text.

        One registry yields exactly :func:`write_metrics` output; several
        yield one ``{"runs": [...]}`` document or stacked ``# run <i>``
        sections.
        """
        if len(self.captured) == 1:
            registry = self.captured[0].metrics
            return (metrics_json if as_json else prometheus_text)(registry)
        if not as_json:
            return "".join(
                f"# run {index}\n" + prometheus_text(obs.metrics)
                for index, obs in enumerate(self.captured)
            )
        runs = [
            {"run": index, **obs.metrics.snapshot()}
            for index, obs in enumerate(self.captured)
        ]
        document = {"schema_version": SCHEMA_VERSION, "runs": runs}
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
