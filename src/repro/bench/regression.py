"""Perf-regression gate: diff benchmark results against baselines.

The benchmarks under ``benchmarks/`` emit machine-readable result files
(``BENCH_perf.json``, ``BENCH_observability.json``). This module turns
a committed copy of those files into a CI gate: regenerate the result,
then::

    python -m repro.bench.regression baseline.json candidate.json

exits non-zero when any metric moved beyond its tolerance band.

Fields fall into two classes, and the per-benchmark rulesets encode
which is which:

* **simulation-deterministic** — makespans, event counts, fill work,
  sim-time throughput: identical on every machine for a given seed and
  scale, so they gate at (float-repr) exactness;
* **wall-clock / machine-dependent** — ``wall_s``, events per wall
  second, heap peaks, speedups: never gated (shared CI runners are far
  too noisy), only carried as context.

When baseline and candidate were produced at different ``scale``
values, numeric comparison is meaningless; the checker then verifies
structure only and says so, rather than failing spuriously.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from dataclasses import dataclass, field
from typing import Sequence

#: Rel tolerance expressing "must match to float-repr precision".
EXACT = 1e-9

#: Rel tolerance for unmatched numeric fields of unknown benchmarks.
DEFAULT_REL_TOL = 0.25


@dataclass(frozen=True)
class Rule:
    """First matching rule (fnmatch on the dotted path) wins.

    ``rel_tol=None`` means: never gate this field (machine noise).
    """

    pattern: str
    rel_tol: float | None = DEFAULT_REL_TOL
    abs_tol: float = 1e-12


#: Wall-clock fields common to every benchmark.
_NOISY = (
    Rule("*.wall_s", None),
    Rule("*.events_per_sec", None),
    Rule("*.peak_heap_kb", None),
)

RULESETS: dict[str, tuple[Rule, ...]] = {
    # bench_flows_scale: sim fields are deterministic; speedups and the
    # S-Live wall-clock rates are not.
    "flows_scale": _NOISY + (
        Rule("*.speedup", None),
        Rule("slive.ops_per_second.*", None),
        Rule("*", EXACT),
    ),
    # bench_observability: every reported number is simulation-derived
    # except the S-Live monitoring-overhead wall clocks; their committed
    # verdict is the boolean overhead_within_bound, gated exactly.
    "observability": (
        Rule("monitoring.slive_*_wall_s", None),
        Rule("monitoring.slive_overhead_*", None),
        # Flight-recorder walls and subscriber costs are machine noise; the
        # committed verdicts are its booleans (overhead_within_bound,
        # invisible_when_quiet, ...), gated exactly by the catch-all.
        Rule("recorder.*_wall_s", None),
        Rule("recorder.tap_overhead_per_record_us", None),
        Rule("recorder.overhead_percent", None),
        # Provenance-ledger walls and per-feed costs, same reasoning:
        # decision counts and byte-stability verdicts gate exactly.
        Rule("provenance.*_wall_s", None),
        Rule("provenance.feed_overhead_per_record_us", None),
        Rule("provenance.overhead_percent", None),
        # Enabled vs disabled DFSIO: raw walls are noise; the wall ratio
        # swings ~1.0-1.5 on a shared host, so its band only catches a
        # gross regression; the tracemalloc peak ratio is steadier.
        # Sample counts and bytes per sample gate exactly.
        Rule("enabled.*_wall_s", None),
        Rule("enabled.enabled_wall_ratio", 0.5),
        Rule("enabled.enabled_tracemalloc_peak_ratio", 0.2),
        Rule("*", EXACT),
    ),
    # bench_tiering: latencies, hit rates, and engine activity are all
    # sim-deterministic; only the run's wall clock is machine noise
    # (it sits at the result root, which "*.wall_s" cannot match).
    "tiering": _NOISY + (Rule("wall_s", None), Rule("*", EXACT)),
}

#: Fields whose values scale with OCTOPUS_BENCH_SCALE; on a scale
#: mismatch these are skipped instead of compared.
_SCALE_KEY = "scale"


@dataclass
class Violation:
    path: str
    baseline: object
    candidate: object
    message: str

    def format(self) -> str:
        return (
            f"{self.path}: {self.message} "
            f"(baseline={self.baseline!r}, candidate={self.candidate!r})"
        )


@dataclass
class RegressionReport:
    benchmark: str
    checked: int = 0
    ignored: int = 0
    skipped: int = 0
    notes: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = [
            f"perf-regression check: benchmark={self.benchmark!r} "
            f"checked={self.checked} ignored={self.ignored} "
            f"skipped={self.skipped}"
        ]
        lines.extend(f"  note: {note}" for note in self.notes)
        if self.ok:
            lines.append("  OK — no metric moved beyond tolerance")
        else:
            lines.append(f"  FAIL — {len(self.violations)} violation(s):")
            lines.extend(f"    {v.format()}" for v in self.violations)
        return "\n".join(lines)

    def data(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "ok": self.ok,
            "checked": self.checked,
            "ignored": self.ignored,
            "skipped": self.skipped,
            "notes": self.notes,
            "violations": [
                {
                    "path": v.path,
                    "baseline": v.baseline,
                    "candidate": v.candidate,
                    "message": v.message,
                }
                for v in self.violations
            ],
        }


def _match(rules: Sequence[Rule], path: str) -> Rule | None:
    for rule in rules:
        if fnmatch.fnmatchcase(path, rule.pattern):
            return rule
    return None


def compare_results(
    baseline: dict,
    candidate: dict,
    rules: Sequence[Rule] | None = None,
    default_rel_tol: float = DEFAULT_REL_TOL,
) -> RegressionReport:
    """Diff two benchmark result dicts under the tolerance rules."""
    benchmark = str(baseline.get("benchmark", "?"))
    if rules is None:
        rules = RULESETS.get(benchmark, (Rule("*", default_rel_tol),))
    report = RegressionReport(benchmark=benchmark)
    scales_differ = baseline.get(_SCALE_KEY) != candidate.get(_SCALE_KEY)
    if scales_differ:
        report.notes.append(
            f"scale mismatch (baseline {baseline.get(_SCALE_KEY)!r} vs "
            f"candidate {candidate.get(_SCALE_KEY)!r}): numeric fields "
            "skipped, structure checked only"
        )
    if candidate.get("benchmark", benchmark) != benchmark:
        report.violations.append(
            Violation(
                "benchmark", baseline.get("benchmark"),
                candidate.get("benchmark"), "different benchmark",
            )
        )
        return report

    def walk(base: object, cand: object, path: str) -> None:
        if isinstance(base, dict):
            if not isinstance(cand, dict):
                report.violations.append(
                    Violation(path, base, cand, "dict became non-dict")
                )
                return
            for key in sorted(base):
                sub = f"{path}.{key}" if path else str(key)
                if key not in cand:
                    report.violations.append(
                        Violation(sub, base[key], None, "missing in candidate")
                    )
                    continue
                walk(base[key], cand[key], sub)
            for key in sorted(set(cand) - set(base)):
                report.notes.append(
                    f"{path + '.' if path else ''}{key}: new in candidate "
                    "(not gated)"
                )
            return
        if isinstance(base, list):
            if not isinstance(cand, list):
                report.violations.append(
                    Violation(path, base, cand, "list became non-list")
                )
                return
            if len(base) != len(cand):
                report.violations.append(
                    Violation(
                        path, len(base), len(cand), "list length changed"
                    )
                )
                return
            for index, (b_item, c_item) in enumerate(zip(base, cand)):
                walk(b_item, c_item, f"{path}.{index}")
            return
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            report.checked += 1
            if base != cand:
                report.violations.append(
                    Violation(path, base, cand, "value changed")
                )
            return
        # Numeric leaf.
        rule = _match(rules, path)
        if rule is not None and rule.rel_tol is None:
            report.ignored += 1
            return
        if path.split(".")[-1] == _SCALE_KEY:
            # The scale field itself is metadata, not a gated metric.
            report.ignored += 1
            return
        if scales_differ:
            report.skipped += 1
            return
        if not isinstance(cand, (int, float)) or isinstance(cand, bool):
            report.violations.append(
                Violation(path, base, cand, "number became non-number")
            )
            return
        report.checked += 1
        rel_tol = rule.rel_tol if rule is not None else default_rel_tol
        abs_tol = rule.abs_tol if rule is not None else 1e-12
        allowed = abs_tol + rel_tol * abs(base)
        if abs(cand - base) > allowed:
            drift = (
                (cand - base) / abs(base) if base else float("inf")
            )
            report.violations.append(
                Violation(
                    path, base, cand,
                    f"drifted {drift:+.2%} (tolerance ±{rel_tol:.2%})",
                )
            )

    walk(baseline, candidate, "")
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regression",
        description="Diff a fresh benchmark result against a baseline "
        "with tolerance bands; exit 1 on regression.",
    )
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", help="freshly generated result JSON")
    parser.add_argument(
        "--default-rel-tol", type=float, default=DEFAULT_REL_TOL,
        help="band for fields of benchmarks without a ruleset "
        f"(default {DEFAULT_REL_TOL})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.candidate, "r", encoding="utf-8") as handle:
        candidate = json.load(handle)
    report = compare_results(
        baseline, candidate, default_rel_tol=args.default_rel_tol
    )
    if args.json:
        print(json.dumps(report.data(), sort_keys=True, indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
