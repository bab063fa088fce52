"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload dfsio --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing, scaled
to a reference host speed by a probe sharing the run's CPU (see
``speed.py``); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics instead. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 only when every output check passed. See README.md in
this directory for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("dfsio", "dfsio_observed", "slive", "shift")

#: Fresh processes that each import ``repro`` and set the workload up;
#: ``setup_s`` is their median. The last one also runs one repetition
#: and reports its peak RSS, so repeats never inflate the high-water mark.
SETUP_SAMPLES = 5
#: Repetitions to run even when ``--seconds`` runs out first.
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process measuring set-up time (and peak RSS).
    parser.add_argument("--child", choices=("setup", "full"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    ``VmHWM`` belongs to the address space the process got at exec, so
    unlike ``ru_maxrss`` it does not carry over the parent's peak when
    the parent was larger at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child_main(args: argparse.Namespace) -> int:
    """Set the workload up in this fresh process; print one JSON line."""
    start, cpu_start = time.perf_counter(), time.process_time()
    from perfbench.workloads import WORKLOADS

    out_dir = OUT / f"{args.workload}-seed{args.seed}" / "child"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    workload.prepare()
    report = {
        "start": start,
        "end": time.perf_counter(),
        "cpu": time.process_time() - cpu_start,
    }
    if args.child == "full":
        gc.collect()
        run_start = time.perf_counter()
        workload.run()
        wall = time.perf_counter() - run_start
        # Read before the checks, which load exports back into memory.
        report["peak_rss_mb"] = peak_rss_mb()
        outcome = workload.outcome(wall)
        report["ops"] = outcome.ops
        report["problems"] = outcome.problems
    print(json.dumps(report))
    return 0


def spawn_child(mode: str, workload: str, seed: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--child", mode,
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} process for {workload} exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Rep:
    """One repetition as the harness saw it."""

    workload: str
    traced: bool
    #: ``perf_counter`` at the start of ``run``, its wall and CPU seconds.
    start: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    ops: int = 0
    problems: list[str] = field(default_factory=list)
    sim: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)
    tracer: object = None


def run_rep(cls, seed: int, out_dir: Path, traced: bool) -> Rep:
    """prepare (untimed), run (timed), check (untimed) one repetition."""
    from perfbench.layers import LayerTracer, layer_metrics

    rep = Rep(workload=cls.name, traced=traced, ops=cls.nominal_ops)
    try:
        workload = cls(seed, out_dir)
        workload.prepare()
        tracer = LayerTracer() if traced else None
        if tracer is not None:
            tracer.watch_namespace(workload.namespace)
        before = workload.counters()
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            rep.start, cpu_start = time.perf_counter(), time.process_time()
            workload.run()
            rep.wall = time.perf_counter() - rep.start
            rep.cpu = time.process_time() - cpu_start
        after = workload.counters()
        outcome = workload.outcome(rep.wall)
    except Exception:  # a failed run is counted, reported and fails the benchmark
        rep.problems.append(f"{cls.name} raised:\n{traceback.format_exc()}")
        return rep
    rep.ops = outcome.ops
    rep.problems = outcome.problems
    rep.sim = outcome.sim
    rep.figures = outcome.figures
    if tracer is not None:
        deltas = {name: after[name] - before.get(name, 0) for name in after}
        rep.counts, rep.times = layer_metrics(tracer, deltas, rep.wall)
        for name, (seconds, size) in workload.exports().items():
            rep.times[f"obs.export.{name}.s"] = (seconds, "s")
            rep.counts[f"obs.export.{name}.bytes"] = (size, "bytes")
        rep.tracer = tracer
    return rep


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Report:
    """Accumulates repetitions, checks and the printed result."""

    def __init__(self) -> None:
        self.reps: list[Rep] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, rep: Rep) -> None:
        self.reps.append(rep)
        self.count(rep.ops, rep.problems)

    def count(self, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)

    def require_same(self, label: str, first: dict, other: dict) -> None:
        if first != other:
            diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            self.count(0, [f"{label} differ on {diff}"])

    @property
    def correct(self) -> bool:
        return not self.problems


def loop(report: Report, seed: int, out_dir: Path, seconds: float, pattern) -> None:
    """Run repetitions in ``pattern`` order until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_REPS * len(pattern) or time.perf_counter() < deadline:
        rep_cls, traced = pattern[index % len(pattern)]
        report.add(run_rep(rep_cls, seed, out_dir, traced))
        index += 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run this from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.child:
        return child_main(args)
    from perfbench.workloads import WORKLOADS

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    report = Report()
    if args.trace:
        metrics = traced_run(report, args, cls, out_dir)
    else:
        metrics = untraced_run(report, args, cls, out_dir)
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"output check: {'ok' if report.correct else 'FAILED'}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if report.correct else 1


def untraced_run(report: Report, args, cls, out_dir: Path) -> dict:
    from perfbench.speed import SpeedProbe, pin_to_one_cpu

    pin_to_one_cpu()
    children = []
    with SpeedProbe(out_dir / "probe.log") as probe:
        for index in range(SETUP_SAMPLES):
            mode = "full" if index == SETUP_SAMPLES - 1 else "setup"
            children.append(spawn_child(mode, args.workload, args.seed))
        loop(report, args.seed, out_dir, args.seconds, [(cls, False)])
    full = children[-1]
    report.count(full["ops"], full["problems"])
    reps = [r for r in report.reps if r.sim]
    for rep in reps[1:]:
        report.require_same("simulated outputs of repeated runs", reps[0].sim, rep.sim)
    # Each repetition's CPU seconds at the reference host speed. The
    # rate is total operations over total time, so every repetition
    # counts in proportion to its length, as it does for a user.
    scales = [probe.scale(r.start, r.start + r.wall) for r in reps]
    seconds = [r.cpu * scale for r, scale in zip(reps, scales)]
    setups = [c["cpu"] * probe.scale(c["start"], c["end"]) for c in children]
    metrics = {
        "ops_per_s": (sum(r.ops for r in reps) / sum(seconds) if reps else 0.0, "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (full["peak_rss_mb"], "MB"),
    }
    print(
        f"{args.workload} seed={args.seed}: {len(report.reps)} runs, closed "
        f"loop, 1 client thread; run time median {median(seconds):.4f} s at "
        f"reference speed (probe speed factor median {median(scales):.3f})"
    )
    figures = {}
    for name, (_value, unit) in (reps[0].figures.items() if reps else ()):
        # Figures are wall-clock; convert by each run's reference
        # seconds per wall second (times grow, rates shrink).
        factors = [t / r.wall for r, t in zip(reps, seconds)]
        values = [
            r.figures[name][0] * (f if unit == "s" else 1 / f)
            for r, f in zip(reps, factors)
        ]
        figures[name] = (median(values), unit)
    ratio = report.failed / report.attempted if report.attempted else 0.0
    figures["failed_ops_ratio"] = (ratio, f"of {report.attempted}")
    for name, (value, unit) in {**metrics, **figures}.items():
        print(f"  {name:<20} {value:>14.6g} {unit}")
    return metrics


def traced_run(report: Report, args, cls, out_dir: Path) -> dict:
    from perfbench.layers import EXPORTS, LAYERS
    from perfbench.workloads import DfsioWorkload

    pattern = [(cls, False), (cls, True)]
    observed = args.workload == "dfsio_observed"
    if observed:
        pattern.append((DfsioWorkload, False))
    loop(report, args.seed, out_dir, args.seconds, pattern)

    finished = [r for r in report.reps if r.sim]
    own = [r for r in finished if r.workload == args.workload]
    untraced = [r for r in own if not r.traced]
    traced = [r for r in own if r.traced]
    plain_dfsio = [r for r in finished if observed and r.workload == "dfsio"]
    if not (traced and untraced and (plain_dfsio or not observed)):
        report.count(0, ["no repetition of some kind finished; nothing to compare"])
        return {}
    for rep in own[1:]:
        report.require_same("simulated outputs of traced and untraced runs", own[0].sim, rep.sim)
    for rep in plain_dfsio:
        report.require_same("simulated outputs of dfsio and dfsio_observed", own[0].sim, rep.sim)
    for rep in traced[1:]:
        report.require_same("per-layer counts of repeated traced runs", traced[0].counts, rep.counts)
    metrics = dict(traced[0].counts)
    for name, (_value, unit) in traced[0].times.items():
        metrics[name] = (median([r.times[name][0] for r in traced]), unit)
    untraced_wall = median([r.wall for r in untraced])
    traced_wall = median([r.wall for r in traced])
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    wall_ratio = rss_ratio = 0.0
    if observed:
        wall_ratio = untraced_wall / median([r.wall for r in plain_dfsio])
        rss = {
            name: spawn_child("full", name, args.seed)
            for name in ("dfsio_observed", "dfsio")
        }
        for child in rss.values():
            report.count(child["ops"], child["problems"])
        rss_ratio = rss["dfsio_observed"]["peak_rss_mb"] / rss["dfsio"]["peak_rss_mb"]
    metrics["obs.enabled_wall_ratio"] = (wall_ratio, "ratio")
    metrics["obs.enabled_rss_ratio"] = (rss_ratio, "ratio")
    for exporter in EXPORTS:
        metrics.setdefault(f"obs.export.{exporter}.s", (0.0, "s"))
        metrics.setdefault(f"obs.export.{exporter}.bytes", (0, "bytes"))
    traced[-1].tracer.write(out_dir / "spans.jsonl")

    print(
        f"{args.workload} seed={args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced runs; run wall median {untraced_wall:.4f} s "
        f"untraced, {traced_wall:.4f} s traced (overhead x{traced_wall / untraced_wall:.3f})"
    )
    print(f"  {'layer':<16} {'self_s':>10} {'share':>7}")
    for layer in LAYERS:
        value = metrics[f"{layer}.self_s"][0]
        print(f"  {layer:<16} {value:>10.4f} {100 * value / traced_wall:>6.1f}%")
    outside = metrics["trace.outside_spans_s"][0]
    print(f"  {'(no span)':<16} {outside:>10.4f} {100 * outside / traced_wall:>6.1f}%")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    return dict(sorted(metrics.items()))


if __name__ == "__main__":
    sys.exit(main())
