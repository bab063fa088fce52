"""Fluid-flow bandwidth model with max–min fair sharing.

Data transfers in the simulated cluster are *flows*: a number of bytes
moving across a set of capacitated resources (NIC ingress/egress, rack
uplinks, storage-media read/write channels). At any instant, every
active flow receives a transfer rate computed by progressive filling
(max–min fairness): the most contended resource caps the rates of the
flows crossing it, those flows are frozen, the residual capacity is
redistributed, and so on. This flow-level ("fluid") approximation is
the standard technique for simulating bandwidth sharing without
packet-level detail, and it reproduces the concurrency phenomena the
paper's evaluation depends on: a medium's throughput dividing among
concurrent streams, NIC congestion growing with the degree of
parallelism, and a pipeline's rate being set by its slowest stage (a
pipeline write is a single flow crossing all stage resources).

Incremental scheduling
----------------------
The scheduler maintains the flow↔resource bipartite graph explicitly
(:class:`FlowSet` per resource, ``flow.resources`` per flow). When a
flow starts, finishes, or is cancelled — or a capacity changes — only
the **connected component** of the graph touched by the change can see
different max–min rates: progressive filling never moves capacity
between disconnected components. :class:`IncrementalFlowSolver`
therefore re-fills just that component (found by BFS from the changed
flows/resources — or the whole active set when it is small enough that
the search would cost more than it saves), reusing cached rates
everywhere else, while
:class:`DenseFlowSolver` re-fills every active flow — the original
O(events × flows × resources) behavior, kept behind a flag as an
escape hatch and as the oracle for the differential equivalence tests.

Both solvers share every other code path, and per-component filling is
*bit-identical* to global filling (same subtraction arithmetic, same
deterministic bottleneck order within a component), so the two produce
identical simulated completion times and byte-identical trace/metrics
exports — asserted by ``tests/test_flow_solver_equivalence.py``.

Progress integration is lazy: each flow carries a ``last_advanced``
timestamp and its remaining bytes are materialized only when its *rate
value* actually changes (or it finishes), instead of sweeping every
active flow on every event. Completions are tracked in a per-flow heap
``(finish_time, seq, token, flow)`` with token-bump invalidation; the
scheduler keeps exactly one cancellable engine timer parked at the
heap minimum.

Solver selection: ``FlowScheduler(..., solver="dense")`` or the
``OCTOPUS_FLOW_SOLVER`` environment variable (default
``"incremental"``).
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.obs.registry import Gauge, MetricsRegistry, TimeSeries
    from repro.obs.tracing import Span
    from repro.sim.engine import SimulationEngine, TimerHandle

_EPSILON_BYTES = 1e-6
#: Minimum scheduling quantum: a flow within this of completion is done.
#: Prevents Zeno loops where float residue (micro-bytes) would otherwise
#: reschedule ever-smaller wakeups without the clock advancing.
_MIN_DT = 1e-9

#: Deterministic resource identity for tie-breaking and graph bookkeeping;
#: creation order is stable across identically-seeded runs, unlike id().
_resource_ids = itertools.count()


class FlowSet(dict):
    """Insertion-ordered set of flows (a ``dict`` whose values are unused).

    Attach order equals ``flow.seq`` order, which gives two properties
    the scheduler leans on: iteration is deterministic across runs
    (``set`` iteration follows object addresses), and per-resource
    demand sums no longer need an O(F log F) sort per sample. As a
    ``dict`` subclass, length, iteration, membership and truth tests
    run in C on the solver's and the sampler's hot paths.
    """

    __slots__ = ()

    def add(self, flow) -> None:
        self[flow] = None

    def discard(self, flow) -> None:
        self.pop(flow, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowSet n={len(self)}>"


class Resource:
    """A capacitated, shareable channel (NIC direction, media channel...).

    ``capacity`` is in bytes per simulated second. ``active_count`` is the
    number of flows currently crossing the resource; the file system's
    load statistics (``NrConn`` in the paper) read this directly.
    """

    def __init__(
        self, name: str, capacity: float, congestion_overhead: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs capacity > 0")
        self.name = name
        self.capacity = float(capacity)
        #: Per-extra-connection efficiency loss. Real networks lose
        #: aggregate goodput under fan-in (TCP incast, switch buffer
        #: pressure); a pure fluid model conserves it. A small positive
        #: value on network resources reproduces the paper's observed
        #: throughput decline at high degrees of parallelism.
        self.congestion_overhead = float(congestion_overhead)
        self.flows: FlowSet = FlowSet()
        self.bytes_served = 0.0
        self._rid = next(_resource_ids)

    @property
    def active_count(self) -> int:
        return len(self.flows)

    def effective_capacity(self) -> float:
        """Capacity after congestion losses at the current concurrency."""
        penalty = 1.0 + self.congestion_overhead * max(0, len(self.flows) - 1)
        return self.capacity / penalty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Resource {self.name} cap={self.capacity:.0f}B/s active={self.active_count}>"


class Flow:
    """A transfer of ``size`` bytes across ``resources``.

    ``completed`` is an :class:`~repro.sim.events.Event` that succeeds
    with the flow when the last byte arrives (or fails if cancelled).
    """

    def __init__(
        self,
        size: float,
        resources: Sequence[Resource],
        completed: Event,
        label: str = "",
    ) -> None:
        if size < 0:
            raise SimulationError("flow size must be non-negative")
        self.size = float(size)
        self.remaining = float(size)
        # A pipeline may legitimately visit one node twice; the same
        # physical resource must only count once toward the flow's rate.
        seen: dict[int, Resource] = {}
        for resource in resources:
            seen.setdefault(id(resource), resource)
        self.resources: tuple[Resource, ...] = tuple(seen.values())
        self.completed = completed
        self.label = label
        self.rate = 0.0
        self.started_at = 0.0
        self.finished_at: float | None = None
        #: Scheduler-assigned start order; the deterministic identity used
        #: for completion ordering and trace correlation (labels may embed
        #: process-global block ids, which are not stable across runs).
        self.seq = 0
        #: Simulation time up to which ``remaining`` is materialized;
        #: progress between ``last_advanced`` and now is implied by
        #: ``rate`` and integrated only when the rate value changes.
        self.last_advanced = 0.0
        #: Invalidation token for completion-heap entries; bumped whenever
        #: the flow's scheduled finish time stops being valid.
        self._wake_token = 0
        #: Trace span covering this transfer, when observability is on.
        self.span: "Span | None" = None

    @property
    def duration(self) -> float:
        """Transfer duration in simulated seconds (valid once finished)."""
        if self.finished_at is None:
            raise SimulationError(f"flow {self.label!r} has not finished")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.label or hex(id(self))} remaining="
            f"{self.remaining:.0f}B rate={self.rate:.0f}B/s>"
        )


class DenseFlowSolver:
    """Re-fill every active flow on every change (the original behavior).

    Kept as the escape hatch (``OCTOPUS_FLOW_SOLVER=dense``) and as the
    oracle the differential tests compare the incremental solver against.
    """

    name = "dense"

    def __init__(self, scheduler: "FlowScheduler") -> None:
        self.scheduler = scheduler

    def select(
        self, seed_flows: Iterable[Flow], seed_resources: Iterable[Resource]
    ) -> list[Flow]:
        return list(self.scheduler.active)


class IncrementalFlowSolver:
    """Re-fill only the connected component touched by a change.

    Max–min filling never moves capacity between disconnected components
    of the flow↔resource graph, so flows outside the component provably
    keep their cached rates.

    Below :attr:`small_cutoff` active flows the BFS bookkeeping costs
    more than a full fill saves, so the solver falls back to filling
    everything — still exact, since the full active set is a union of
    components and filling a union fills each component independently.
    """

    name = "incremental"

    #: Hybrid threshold: with at most this many active flows, skip the
    #: component search and re-fill the whole active set.
    small_cutoff = 16

    def __init__(self, scheduler: "FlowScheduler") -> None:
        self.scheduler = scheduler

    def select(
        self, seed_flows: Iterable[Flow], seed_resources: Iterable[Resource]
    ) -> list[Flow]:
        active = self.scheduler.active
        if len(active) <= self.small_cutoff:
            return list(active)
        component: list[Flow] = []
        seen_flows: set[Flow] = set()
        seen_resources: set[int] = set()
        flow_frontier: list[Flow] = []
        resource_frontier: list[Resource] = []
        for resource in seed_resources:
            if resource._rid not in seen_resources:
                seen_resources.add(resource._rid)
                resource_frontier.append(resource)
        for flow in seed_flows:
            if flow in active and flow not in seen_flows:
                seen_flows.add(flow)
                component.append(flow)
                flow_frontier.append(flow)
        while flow_frontier or resource_frontier:
            while flow_frontier:
                flow = flow_frontier.pop()
                for resource in flow.resources:
                    if resource._rid not in seen_resources:
                        seen_resources.add(resource._rid)
                        resource_frontier.append(resource)
            while resource_frontier:
                resource = resource_frontier.pop()
                for flow in resource.flows:
                    if flow not in seen_flows and flow in active:
                        seen_flows.add(flow)
                        component.append(flow)
                        flow_frontier.append(flow)
        return component


SOLVERS = {
    DenseFlowSolver.name: DenseFlowSolver,
    IncrementalFlowSolver.name: IncrementalFlowSolver,
}


def _seq_key(flow: Flow) -> int:
    return flow.seq


def _name_key(resource: Resource) -> tuple[str, int]:
    return resource.name, resource._rid


class FlowScheduler:
    """Runs the fluid model on top of a :class:`SimulationEngine`."""

    def __init__(
        self,
        engine: "SimulationEngine",
        obs: "Observability | None" = None,
        solver: str | None = None,
    ) -> None:
        self.engine = engine
        if obs is None:
            from repro.obs import Observability

            obs = Observability()  # disabled no-op bundle
        self.obs = obs
        self.active: FlowSet = FlowSet()
        self.total_flows_started = 0
        self.total_bytes_completed = 0.0
        #: Rate assignments performed by progressive filling; the perf
        #: tests use this to show the incremental solver does less work.
        self.rate_computations = 0
        #: Pending completions: ``(finish_time, seq, token, flow)``.
        #: Entries whose token no longer matches ``flow._wake_token`` are
        #: stale and skipped on pop (token-bump lazy invalidation).
        self._completions: list[tuple[float, int, int, Flow]] = []
        self._wake_handle: "TimerHandle | None" = None
        self._wake_time = math.inf
        name = solver or os.environ.get("OCTOPUS_FLOW_SOLVER", "incremental")
        try:
            solver_cls = SOLVERS[name]
        except KeyError:
            raise SimulationError(
                f"unknown flow solver {name!r}; options: {sorted(SOLVERS)}"
            ) from None
        self.solver = solver_cls(self)
        self.solver_name = name
        #: Resources crossed by at least one active flow, keyed by
        #: ``_rid``; kept by ``start_flow`` and ``_detach`` as a
        #: resource's flow set turns non-empty or empty.
        self._busy: dict[int, Resource] = {}
        #: ``_busy`` in sampling order, paired with each resource's
        #: utilization series; ``None`` after a membership change.
        self._busy_order: "list[tuple[Resource, TimeSeries]] | None" = None
        #: Utilization instruments, minted on first use and bound to
        #: ``_bound_registry``; a new registry (``obs.disable()`` then
        #: ``obs.enable()``) drops them.
        self._bound_registry: "MetricsRegistry | None" = None
        self._flows_gauge: "Gauge | None" = None
        self._series: "dict[int, TimeSeries]" = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        size: float,
        resources: Iterable[Resource],
        label: str = "",
        parent: "Span | None" = None,
    ) -> Flow:
        """Begin transferring ``size`` bytes over ``resources``.

        Returns the flow; wait on ``flow.completed`` for the finish time.
        A zero-byte flow completes immediately. With observability on,
        the transfer is covered by a ``flow.transfer`` span attached as
        ``flow.span``; pass ``parent`` to link it to the client operation
        that initiated it.
        """
        flow = Flow(size, list(resources), self.engine.event(), label=label)
        now = self.engine.now
        flow.started_at = now
        flow.last_advanced = now
        self.total_flows_started += 1
        flow.seq = self.total_flows_started
        obs = self.obs
        if obs.enabled:
            flow.span = obs.tracer.start_span(
                "flow.transfer",
                parent=parent,
                size=flow.size,
                resources=len(flow.resources),
                # Which channels the transfer crosses (NIC directions,
                # rack uplinks, media read/write channels) — the trace
                # analyzer's straggler view points at the shared hop.
                path=[r.name for r in flow.resources],
            )
            obs.metrics.counter("flows_started_total").inc()
        if flow.remaining <= _EPSILON_BYTES:
            flow.finished_at = now
            if flow.span is not None:
                flow.span.end("ok")
                obs.metrics.counter("flows_completed_total").inc()
            flow.completed.succeed(flow)
            return flow
        self.active.add(flow)
        for resource in flow.resources:
            flows = resource.flows
            if not flows:
                self._busy[resource._rid] = resource
                self._busy_order = None
            flows.add(flow)
        self._reallocate(seed_flows=(flow,))
        return flow

    def cancel_flow(self, flow: Flow, exception: BaseException) -> None:
        """Abort an in-flight flow; its waiter sees ``exception``."""
        if flow not in self.active:
            return
        self._materialize(flow)
        self._detach(flow)
        flow.finished_at = self.engine.now
        if flow.span is not None:
            flow.span.end("cancelled", transferred=flow.size - flow.remaining)
            self.obs.metrics.counter("flows_cancelled_total").inc()
        flow.completed.fail(exception)
        self._reallocate(seed_resources=flow.resources)

    def transfer(
        self,
        size: float,
        resources: Iterable[Resource],
        label: str = "",
        parent: "Span | None" = None,
    ) -> Event:
        """Convenience: start a flow and return its completion event."""
        return self.start_flow(
            size, resources, label=label, parent=parent
        ).completed

    def refresh(self, resources: Iterable[Resource] | None = None) -> None:
        """Re-share bandwidth after an external capacity change.

        Fault injection (medium degradation, NIC rate caps) rewrites
        ``Resource.capacity`` while flows are in flight; calling this
        recomputes the max–min allocation under the new capacities.
        Pass the changed ``resources`` as a hint so the incremental
        solver only revisits their connected components; with no hint,
        every component is recomputed.
        """
        if resources is None:
            self._reallocate(seed_flows=self.active)
        else:
            self._reallocate(seed_resources=resources)

    def set_capacity(self, resource: Resource, capacity: float) -> None:
        """Change one resource's capacity and re-share immediately."""
        if capacity <= 0:
            raise SimulationError(
                f"resource {resource.name!r} needs capacity > 0"
            )
        resource.capacity = float(capacity)
        self._reallocate(seed_resources=(resource,))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        self.active.discard(flow)
        flow._wake_token += 1
        for resource in flow.resources:
            flows = resource.flows
            flows.discard(flow)
            if not flows:
                # pop, not del: callers may attach load stubs to
                # ``resource.flows`` directly, bypassing start_flow.
                self._busy.pop(resource._rid, None)
                self._busy_order = None

    def _materialize(self, flow: Flow) -> None:
        """Integrate the flow's progress from ``last_advanced`` to now.

        Called exactly when the flow's rate value changes (or it leaves
        the system), so both solvers accumulate the same float chunks at
        the same simulation times — the key to bit-identical results.
        """
        now = self.engine.now
        elapsed = now - flow.last_advanced
        flow.last_advanced = now
        if elapsed <= 0:
            return
        moved = flow.rate * elapsed
        flow.remaining = max(0.0, flow.remaining - moved)
        share = moved / max(1, len(flow.resources))
        for resource in flow.resources:
            resource.bytes_served += share

    def _reallocate(
        self,
        seed_flows: Iterable[Flow] = (),
        seed_resources: Iterable[Resource] = (),
    ) -> None:
        """Recompute rates for the touched component(s); cascade finishes.

        Flows whose new rate puts them within :data:`_MIN_DT` of
        completion finish immediately (in ``seq`` order), and their
        resources seed another round, mirroring the dense solver's
        finish-then-refill recursion.
        """
        while True:
            fill = self.solver.select(seed_flows, seed_resources)
            changed = self._fill_rates(fill)
            due: list[Flow] = []
            for flow in changed:
                rate = flow.rate
                if (
                    flow.remaining <= _EPSILON_BYTES
                    or rate == math.inf
                    or (rate > 0 and flow.remaining / rate <= _MIN_DT)
                ):
                    due.append(flow)
                else:
                    flow._wake_token += 1
                    if rate > 0:
                        heapq.heappush(
                            self._completions,
                            (
                                self.engine.now + flow.remaining / rate,
                                flow.seq,
                                flow._wake_token,
                                flow,
                            ),
                        )
                    # A zero-rate flow waits with no completion entry; if
                    # nothing else is in flight the wakeup check below
                    # reports the deadlock.
            if not due:
                break
            due.sort(key=_seq_key)
            touched: dict[int, Resource] = {}
            for flow in due:
                self._finish_flow(flow)
                for resource in flow.resources:
                    touched[resource._rid] = resource
            seed_flows = ()
            seed_resources = list(touched.values())
        self._schedule_wakeup()
        if self.obs.enabled:
            self._sample_utilization()

    def _fill_rates(self, fill_flows: Iterable[Flow]) -> list[Flow]:
        """Progressive filling over ``fill_flows``; returns rate-changed flows.

        Bottleneck selection uses a lazily-verified candidate heap keyed
        ``(share, name, rid)``: a fresh entry is pushed every time a
        resource's residual capacity or pending count changes, and an
        entry is trusted on pop only if it still matches the live value.
        This preserves the exact deterministic min-by-(share, name)
        choice of the original O(rounds × resources) scan.
        """
        changed: list[Flow] = []
        unassigned: set[Flow] = set()
        remaining_cap: dict[int, float] = {}
        pending_count: dict[int, int] = {}
        resources: dict[int, Resource] = {}
        free_flows: list[Flow] = []
        for flow in fill_flows:
            if not flow.resources:
                free_flows.append(flow)
                continue
            unassigned.add(flow)
            for resource in flow.resources:
                rid = resource._rid
                if rid in resources:
                    pending_count[rid] += 1
                else:
                    resources[rid] = resource
                    remaining_cap[rid] = resource.effective_capacity()
                    pending_count[rid] = 1
        # Flows crossing no resources are effectively local no-cost copies.
        for flow in free_flows:
            self._set_rate(flow, math.inf, changed)
        candidates = [
            (remaining_cap[rid] / pending_count[rid], resource.name, rid)
            for rid, resource in resources.items()
        ]
        heapq.heapify(candidates)
        while unassigned:
            while candidates:
                share, _name, rid = heapq.heappop(candidates)
                count = pending_count[rid]
                if count > 0 and remaining_cap[rid] / count == share:
                    break
            else:
                raise SimulationError("flow without any capacitated resource")
            bottleneck = resources[rid]
            frozen = [flow for flow in bottleneck.flows if flow in unassigned]
            for flow in frozen:
                self._set_rate(flow, share, changed)
                unassigned.discard(flow)
                for resource in flow.resources:
                    other = resource._rid
                    if other == rid:
                        continue
                    remaining_cap[other] -= share
                    count = pending_count[other] - 1
                    pending_count[other] = count
                    if count > 0:
                        heapq.heappush(
                            candidates,
                            (remaining_cap[other] / count, resource.name, other),
                        )
            pending_count[rid] = 0
        return changed

    def _set_rate(self, flow: Flow, rate: float, changed: list[Flow]) -> None:
        self.rate_computations += 1
        if rate == flow.rate:
            return  # cached rate still exact; no materialization point
        self._materialize(flow)
        flow.rate = rate
        changed.append(flow)

    def _finish_flow(self, flow: Flow) -> None:
        self._materialize(flow)
        self._detach(flow)
        flow.remaining = 0.0
        flow.finished_at = self.engine.now
        self.total_bytes_completed += flow.size
        if flow.span is not None:
            flow.span.end("ok")
            self.obs.metrics.counter("flows_completed_total").inc()
            self.obs.metrics.counter("flow_bytes_total").inc(flow.size)
        flow.completed.succeed(flow)

    def _next_completion(self) -> float | None:
        """Earliest valid completion time; purges stale heap heads."""
        heap = self._completions
        while heap:
            _when, _seq, token, flow = heap[0]
            if token != flow._wake_token or flow not in self.active:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def _schedule_wakeup(self) -> None:
        when = self._next_completion()
        if when is None:
            if self.active:
                raise SimulationError("active flow has zero rate; deadlock")
            if self._wake_handle is not None:
                self._wake_handle.cancel()
                self._wake_handle = None
                self._wake_time = math.inf
            return
        if self._wake_handle is not None:
            if self._wake_time == when:
                return  # the parked timer is already right
            self._wake_handle.cancel()
        self._wake_handle = self.engine.call_at(when, self._on_wakeup)
        self._wake_time = when

    def _on_wakeup(self) -> None:
        self._wake_handle = None
        self._wake_time = math.inf
        now = self.engine.now
        heap = self._completions
        due: list[Flow] = []
        while heap:
            when, _seq, token, flow = heap[0]
            if token != flow._wake_token or flow not in self.active:
                heapq.heappop(heap)
                continue
            if when > now:
                break
            heapq.heappop(heap)
            due.append(flow)  # heap order is (time, seq): ties resolve by seq
        if not due:
            self._schedule_wakeup()
            return
        touched: dict[int, Resource] = {}
        for flow in due:
            self._finish_flow(flow)
            for resource in flow.resources:
                touched[resource._rid] = resource
        self._reallocate(seed_resources=list(touched.values()))

    def _sample_utilization(self) -> None:
        """Record per-resource utilization after a rate change.

        One sample per resource currently crossed by an active flow:
        the demanded rate as a fraction of effective capacity, stamped
        with the simulation time. Resources are visited in name order so
        identical runs emit identical series; per-resource demand sums
        in attach (= seq) order because :class:`FlowSet` preserves it.

        The cost is one clock read per call plus, per busy resource, a
        walk of its flows and one column append: instruments are bound
        once per resource, and the name-sorted busy list is rebuilt only
        when a resource turns busy or idle.
        """
        metrics = self.obs.metrics
        if metrics is not self._bound_registry:
            self._bound_registry = metrics
            self._flows_gauge = metrics.gauge("flows_active")
            self._series = {}
            self._busy_order = None
        self._flows_gauge.set(len(self.active))
        order = self._busy_order
        if order is None:
            order = self._busy_order = self._bind_busy(metrics)
        now = metrics.now()
        for resource, series in order:
            capacity = resource.effective_capacity()
            demand = 0.0
            for flow in resource.flows:
                rate = flow.rate
                if rate != math.inf:
                    demand += rate
            series.sample_at(now, demand / capacity if capacity > 0 else 0.0)

    def _bind_busy(
        self, metrics: "MetricsRegistry"
    ) -> "list[tuple[Resource, TimeSeries]]":
        """The busy resources in name order, each with its series."""
        series = self._series
        order = []
        for resource in sorted(self._busy.values(), key=_name_key):
            bound = series.get(resource._rid)
            if bound is None:
                bound = series[resource._rid] = metrics.timeseries(
                    "resource_utilization", resource=resource.name
                )
            order.append((resource, bound))
        return order
