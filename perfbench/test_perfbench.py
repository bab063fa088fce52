"""Determinism tests for the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest
perfbench -q``. They run each workload at its benchmark size, so the
file takes about half a minute.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.layers import OBS_RECORDS
from perfbench.run import run_rep
from perfbench.speed import SpeedProbe
from perfbench.workloads import WORKLOADS

SEED = 0


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    """Two traced and one untraced repetition of every workload."""
    out = {}
    for name, cls in WORKLOADS.items():
        out_dir = tmp_path_factory.mktemp(name)
        out[name] = [run_rep(cls, SEED, out_dir, traced) for traced in (True, True, False)]
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_output_check_passes(reps, name):
    for rep in reps[name]:
        assert rep.problems == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_their_counts(reps, name):
    first, second, _ = reps[name]
    assert first.counts == second.counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_simulated_output(reps, name):
    traced, _, untraced = reps[name]
    assert traced.sim == untraced.sim


def test_observation_changes_no_simulated_output(reps):
    assert reps["dfsio"][2].sim == reps["dfsio_observed"][2].sim


@pytest.mark.parametrize("name", ["dfsio", "slive", "shift"])
def test_obs_records_are_zero_with_observability_off(reps, name):
    counts = reps[name][0].counts
    assert [counts[f"obs.{record}"][0] for record in OBS_RECORDS] == [0, 0, 0, 0]


def test_observed_run_records_and_exports(reps):
    counts = reps["dfsio_observed"][0].counts
    assert all(counts[f"obs.{record}"][0] > 0 for record in OBS_RECORDS)
    assert counts["obs.export.trace.bytes"][0] > 0


def test_layers_see_their_workloads(reps):
    dfsio = reps["dfsio"][0].counts
    assert dfsio["core.placement.choose_targets.calls"][0] > 0
    assert dfsio["sim.flows.reallocations"][0] > 0
    slive = reps["slive"][0].counts
    assert slive["fs.namespace.list_status.entries"][0] > 0
    assert slive["sim.engine.events"][0] == 0
    shift = reps["shift"][0].counts
    assert shift["tier.rounds"][0] > 0
    assert shift["tier.promotions"][0] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(
        Path(__file__).parent, bench,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dfsio", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_speed_probe_measures_and_stops(tmp_path):
    with SpeedProbe(tmp_path / "probe.log") as probe:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert probe.scale(start, end) > 0
    assert probe._proc.poll() is not None
