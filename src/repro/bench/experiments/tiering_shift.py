"""Adaptive vs. static tiering on the workload-shift scenario.

The evaluation behind ``docs/TIERING.md`` and ``BENCH_tiering.json``:
run the rotating-hot-set workload (:mod:`repro.workloads.shift`) twice
on identically-seeded deployments — once under the
:class:`~repro.tier.StaticVectorPolicy` baseline and once under the
:class:`~repro.tier.DecayHeatPolicy` — both hosted by the same
:class:`~repro.tier.TieringEngine`, and compare post-shift read latency
and memory-tier hit rate. The static baseline never changes a vector,
so its reads grind the HDD tier forever; the adaptive policy promotes
each phase's hot set into memory and demotes the previous one as its
heat decays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.deployments import build_deployment
from repro.bench.tables import format_table
from repro.cluster.spec import small_cluster_spec
from repro.tier import DecayHeatPolicy, StaticVectorPolicy, TieringEngine
from repro.util.units import MB
from repro.workloads.shift import ShiftResult, WorkloadShift

#: Policy-round cadence and heat half-life used by the evaluation; the
#: interval sits well inside one phase so the engine gets several
#: decision points per hot set, and the half-life is long enough that a
#: hot set stays hot across its phase yet cools within the next.
TIERING_INTERVAL = 2.0
HEAT_HALF_LIFE = 8.0

POLICIES = ("static", "adaptive")


def _make_policy(name: str):
    if name == "static":
        return StaticVectorPolicy()
    if name == "adaptive":
        return DecayHeatPolicy(
            promote_heat=2.0,
            demote_heat=0.5,
            movement_budget=4,
        )
    raise ValueError(f"unknown tiering policy {name!r}")


@dataclass
class PolicyOutcome:
    """One policy's run: workload measurements + engine activity."""

    policy: str
    result: ShiftResult
    promotions: int
    demotions: int
    conflicts: int

    def data(self) -> dict:
        return {
            "policy": self.policy,
            "post_shift_p50_s": self.result.post_shift_p50,
            "post_shift_p99_s": self.result.post_shift_p99,
            "post_shift_hit_rate": self.result.post_shift_hit_rate,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "conflicts": self.conflicts,
            "phases": [
                {
                    "phase": phase.phase,
                    "reads": phase.reads,
                    "memory_hits": phase.memory_hits,
                    "hit_rate": phase.hit_rate,
                    "p50_s": phase.p50,
                    "p99_s": phase.p99,
                }
                for phase in self.result.phases
            ],
        }


@dataclass
class TieringResult:
    scale: float
    seed: int
    outcomes: dict[str, PolicyOutcome] = field(default_factory=dict)

    @property
    def comparison(self) -> dict:
        """Adaptive-vs-static deltas (empty unless both policies ran)."""
        if not {"static", "adaptive"} <= set(self.outcomes):
            return {}
        static = self.outcomes["static"].result
        adaptive = self.outcomes["adaptive"].result
        p99_static = static.post_shift_p99
        p99_adaptive = adaptive.post_shift_p99
        return {
            "post_shift_p99_speedup": (
                p99_static / p99_adaptive if p99_adaptive > 0 else 0.0
            ),
            "post_shift_hit_rate_gain": (
                adaptive.post_shift_hit_rate - static.post_shift_hit_rate
            ),
            "adaptive_wins": bool(
                p99_adaptive < p99_static
                or adaptive.post_shift_hit_rate > static.post_shift_hit_rate
            ),
        }

    def format(self) -> str:
        rows = []
        for name, outcome in self.outcomes.items():
            for phase in outcome.result.phases:
                rows.append(
                    [
                        name,
                        phase.phase,
                        phase.reads,
                        f"{phase.hit_rate:.2f}",
                        f"{phase.p50 * 1000:.1f}",
                        f"{phase.p99 * 1000:.1f}",
                    ]
                )
        parts = [
            format_table(
                ["policy", "phase", "reads", "mem hit rate", "p50 (ms)", "p99 (ms)"],
                rows,
                title="Workload shift: adaptive vs static tiering",
            )
        ]
        comparison = self.comparison
        if comparison:
            parts.append(
                "post-shift comparison (phases after the first rotation):\n"
                f"  read p99 speedup:     {comparison['post_shift_p99_speedup']:.2f}x\n"
                f"  memory hit-rate gain: {comparison['post_shift_hit_rate_gain']:+.2f}\n"
                f"  adaptive wins:        {comparison['adaptive_wins']}"
            )
        adaptive = self.outcomes.get("adaptive")
        if adaptive is not None:
            parts.append(
                f"engine activity (adaptive): {adaptive.promotions} promotions, "
                f"{adaptive.demotions} demotions, {adaptive.conflicts} conflicts"
            )
        return "\n\n".join(parts)

    def data(self) -> dict:
        return {
            "benchmark": "tiering",
            "scale": self.scale,
            "seed": self.seed,
            "policies": {
                name: outcome.data() for name, outcome in self.outcomes.items()
            },
            "comparison": self.comparison,
        }


def run_policy(
    policy_name: str, scale: float = 1.0, seed: int = 0
) -> PolicyOutcome:
    """One seeded workload-shift run under one policy."""
    fs = build_deployment("octopus", spec=small_cluster_spec(seed=seed), seed=seed)
    workload = WorkloadShift(
        fs,
        files=8,
        file_size=4 * MB,
        phases=3,
        reads_per_phase=max(12, int(round(30 * scale))),
        hot_set_size=2,
        hot_fraction=0.9,
        think_time=0.5,
    )
    workload.setup()
    fs.await_replication()
    engine = TieringEngine(
        fs,
        policy=_make_policy(policy_name),
        interval=TIERING_INTERVAL,
        half_life=HEAT_HALF_LIFE,
    ).start()
    fs.start_services(heartbeat_interval=3.0, replication_interval=1.0)
    result = workload.run()
    engine.stop()
    fs.stop_services()
    fs.await_replication()
    return PolicyOutcome(
        policy=policy_name,
        result=result,
        promotions=engine.stats.promotions,
        demotions=engine.stats.demotions,
        conflicts=engine.stats.conflicts,
    )


def run(
    scale: float = 1.0, seed: int = 0, policy: str = "both"
) -> TieringResult:
    """Run the comparison (or a single policy with ``policy=``)."""
    names = POLICIES if policy == "both" else (policy,)
    result = TieringResult(scale=scale, seed=seed)
    for name in names:
        result.outcomes[name] = run_policy(name, scale=scale, seed=seed)
    return result
