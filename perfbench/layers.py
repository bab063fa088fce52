"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of each ``repro`` layer for
the duration of a ``with`` block and records one span per call: name,
start, end, parent span and request id (the id of the outermost span of
the call tree, so one engine event or one S-Live call is one request).
Spans stay in memory; :meth:`LayerTracer.write` dumps them as JSONL
after the run. The wrappers only time and count: each calls the
original with the same arguments and returns its result unchanged, so
the simulation takes the same path with or without them.

Layers are named after the modules that own the wrapped functions:

=============== =========================================================
sim.engine      ``SimulationEngine.step`` (one span per simulated event)
sim.flows       ``FlowScheduler.start_flow``, the solver's ``select``
core.placement  the placement policy's ``choose_targets``, ``gen_options``
core.retrieval  the retrieval policy's ``order_replicas``
fs.master       ``allocate_block``, ``get_file_block_locations``,
                ``set_replication``, ``check_replication``
fs.namespace    ``mkdir``, ``create_file``, ``get_status``,
                ``list_status``, ``rename``, ``delete``
tier            ``TieringEngine.run_round`` and ``observe``
obs             metric-registry lookups and tracer span/event calls
=============== =========================================================

A layer's self time is its spans' duration minus the time covered by
their direct child spans. Work done inside an event callback by code
no wrapper covers (client streams, worker I/O, flow re-filling after a
completion, observability instrument updates) is therefore self time of
``sim.engine``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import repro.core.moop as moop
from repro.core.placement import MoopPlacementPolicy
from repro.core.retrieval import OctopusRetrievalPolicy
from repro.fs.master import Master
from repro.fs.namespace import Namespace
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sim.engine import SimulationEngine
from repro.sim.flows import DenseFlowSolver, FlowScheduler, IncrementalFlowSolver
from repro.tier.engine import TieringEngine

LAYERS = (
    "sim.engine",
    "sim.flows",
    "core.placement",
    "core.retrieval",
    "fs.master",
    "fs.namespace",
    "tier",
    "obs",
)

NAMESPACE_OPS = (
    "mkdir", "create_file", "get_status", "list_status", "rename", "delete",
)

#: Per wrapped call: (layer, owner, attribute, span name, result tally).
#: A result tally names a counter that adds ``len(result)`` per call.
TARGETS = (
    ("sim.engine", SimulationEngine, "step", "sim.engine.step", None),
    ("sim.flows", FlowScheduler, "start_flow", "sim.flows.start_flow", None),
    ("sim.flows", IncrementalFlowSolver, "select", "sim.flows.select", "refilled"),
    ("sim.flows", DenseFlowSolver, "select", "sim.flows.select", "refilled"),
    ("core.placement", MoopPlacementPolicy, "choose_targets",
     "core.placement.choose_targets", None),
    ("core.placement", moop, "gen_options", "core.placement.gen_options",
     "options_scored"),
    ("core.retrieval", OctopusRetrievalPolicy, "order_replicas",
     "core.retrieval.order_replicas", None),
    ("fs.master", Master, "allocate_block", "fs.master.allocate_block", None),
    ("fs.master", Master, "get_file_block_locations",
     "fs.master.get_file_block_locations", None),
    ("fs.master", Master, "set_replication", "fs.master.set_replication", None),
    ("fs.master", Master, "check_replication", "fs.master.check_replication",
     "scheduled"),
    *(
        ("fs.namespace", Namespace, op, f"fs.namespace.{op}",
         "entries" if op == "list_status" else None)
        for op in NAMESPACE_OPS
    ),
    ("tier", TieringEngine, "run_round", "tier.run_round", "decisions"),
    ("tier", TieringEngine, "observe", "tier.observe", None),
    *(
        ("obs", MetricsRegistry, kind, "obs.registry_lookup", None)
        for kind in ("counter", "gauge", "histogram", "timeseries")
    ),
    ("obs", Tracer, "start_span", "obs.tracer_call", None),
    ("obs", Tracer, "event", "obs.tracer_call", None),
)

# Span fields, stored as lists for speed: name, layer, start, end,
# parent index (-1 for a root), request id.
_NAME, _LAYER, _START, _END, _PARENT, _REQUEST = range(6)


class LayerTracer:
    """Context manager that wraps :data:`TARGETS` and records spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tallies: dict[str, int] = defaultdict(int)
        self.edits = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn, tally: str | None):
        spans = self.spans
        stack = self._stack
        tallies = self.tallies
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            if stack:
                parent = stack[-1]
                request = spans[parent][_REQUEST]
            else:
                parent, request = -1, index
            record = [name, layer, clock(), 0.0, parent, request]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if tally is not None:
                tallies[tally] += len(result)
            return result

        return wrapper

    def _count_edit(self, _record: dict) -> None:
        self.edits += 1

    def watch_namespace(self, namespace: Namespace) -> None:
        """Count the edit records ``namespace`` hands its listeners."""
        namespace.add_listener(self._count_edit)

    def __enter__(self) -> "LayerTracer":
        for layer, owner, attr, name, tally in TARGETS:
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original, had_own))
            setattr(owner, attr, self._wrap(layer, name, original, tally))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, had_own in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def durations(self) -> dict[str, list[float]]:
        """Per span name, every call's duration in seconds."""
        out: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            out[span[_NAME]].append(span[_END] - span[_START])
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer, span time minus time covered by direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, children in zip(self.spans, child_time):
            totals[span[_LAYER]] += span[_END] - span[_START] - children
        return totals

    def root_time(self) -> float:
        """Wall time covered by root spans (the rest ran outside any layer)."""
        return sum(s[_END] - s[_START] for s in self.spans if s[_PARENT] < 0)

    def write(self, path: Path) -> None:
        """Dump the spans as JSONL, times relative to the first span."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": span[_NAME],
                    "start_us": round((span[_START] - origin) * 1e6, 3),
                    "end_us": round((span[_END] - origin) * 1e6, 3),
                    "parent": span[_PARENT],
                    "request": span[_REQUEST],
                }) + "\n")


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


MASTER_OPS = (
    "allocate_block", "get_file_block_locations", "set_replication",
    "check_replication",
)
EXPORTS = ("trace", "metrics", "ledger", "recorder")
OBS_RECORDS = (
    "trace_records", "timeseries_samples", "ledger_records", "recorder_records",
)


def layer_metrics(
    tracer: LayerTracer, deltas: dict, wall: float
) -> tuple[dict, dict]:
    """One traced repetition's per-layer figures.

    Returns ``(counts, times)``, each ``{metric: (value, unit)}``.
    ``counts`` are work counters that repeat exactly for one seed;
    ``times`` are wall-clock figures. ``deltas`` holds the program's
    own counters (``events``, ``rate_computations``, tiering stats,
    observability record counts) as they changed over the run, and
    ``wall`` the run's traced wall time.
    """
    durations = tracer.durations()
    tallies = tracer.tallies
    self_s = tracer.self_times()

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def micros(name: str, q: float) -> float:
        return _quantile(durations.get(name, []), q) * 1e6

    reallocs = calls("sim.flows.select")
    entries = tallies["entries"]
    counts = {
        "sim.engine.events": deltas.get("events", 0),
        "sim.flows.started": deltas.get("flows_started", 0),
        "sim.flows.rate_computations": deltas.get("rate_computations", 0),
        "sim.flows.reallocations": reallocs,
        "core.placement.choose_targets.calls":
            calls("core.placement.choose_targets"),
        "core.placement.options_scored": tallies["options_scored"],
        "core.retrieval.order_replicas.calls":
            calls("core.retrieval.order_replicas"),
        **{f"fs.master.{op}.calls": calls(f"fs.master.{op}") for op in MASTER_OPS},
        "fs.master.check_replication.scheduled": tallies["scheduled"],
        **{
            f"fs.namespace.{op}.calls": calls(f"fs.namespace.{op}")
            for op in NAMESPACE_OPS
        },
        "fs.namespace.list_status.entries": entries,
        "fs.namespace.edits": tracer.edits,
        "tier.rounds": calls("tier.run_round"),
        "tier.decisions": tallies["decisions"],
        "tier.promotions": deltas.get("promotions", 0),
        "tier.demotions": deltas.get("demotions", 0),
        "tier.conflicts": deltas.get("conflicts", 0),
        **{f"obs.{name}": deltas.get(name, 0) for name in OBS_RECORDS},
        "obs.registry_lookups": calls("obs.registry_lookup"),
        "obs.tracer_calls": calls("obs.tracer_call"),
        "trace.spans": len(tracer.spans),
    }
    counts = {name: (value, "count") for name, value in counts.items()}
    counts["sim.flows.refilled_per_realloc"] = (
        tallies["refilled"] / reallocs if reallocs else 0.0, "flows/call",
    )
    list_s = total("fs.namespace.list_status")
    times = {
        **{f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS},
        "sim.flows.select_s": (total("sim.flows.select"), "s"),
        "sim.flows.start_flow_s": (total("sim.flows.start_flow"), "s"),
        "core.placement.choose_targets.s":
            (total("core.placement.choose_targets"), "s"),
        "core.placement.choose_targets.p99_us":
            (micros("core.placement.choose_targets", 0.99), "us"),
        "core.retrieval.order_replicas.s":
            (total("core.retrieval.order_replicas"), "s"),
        **{
            f"fs.master.{op}.s": (total(f"fs.master.{op}"), "s")
            for op in MASTER_OPS
        },
        **{
            f"fs.namespace.{op}.{q_name}": (micros(f"fs.namespace.{op}", q), "us")
            for op in NAMESPACE_OPS
            for q_name, q in (("p50_us", 0.50), ("p99_us", 0.99))
        },
        "fs.namespace.list_status.us_per_entry":
            (list_s * 1e6 / entries if entries else 0.0, "us"),
        "tier.run_round.s": (total("tier.run_round"), "s"),
        "tier.run_round.p99_ms": (micros("tier.run_round", 0.99) / 1e3, "ms"),
        "tier.observe.s": (total("tier.observe"), "s"),
        "trace.outside_spans_s": (wall - tracer.root_time(), "s"),
    }
    return counts, times
