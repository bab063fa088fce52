"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.bench.deployments import build_deployment
from repro.cli import build_parser, main
from repro.cluster.spec import paper_cluster_spec
from repro.obs import (
    FlightRecorder,
    HealthMonitor,
    ProvenanceLedger,
    SloMonitor,
    default_read_rules,
    read_jsonl_records,
    validate_chrome_trace,
    validate_ledger_records,
    validate_trace_records,
    write_jsonl,
    write_metrics,
)
from repro.util.units import parse_bytes
from repro.workloads.dfsio import Dfsio


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_unknown_deployment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dfsio", "--deployment", "zfs"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "octopus" in out

    def test_report(self, capsys):
        assert main(["report", "--deployment", "hdfs", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "OriginalHdfsPolicy" in out
        assert "MEMORY" in out and "HDD" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "MEMORY" in out

    def test_dfsio_with_vector(self, capsys):
        code = main(
            [
                "dfsio",
                "--size", "512MB",
                "--parallelism", "3",
                "--vector", "1,0,2",
                "--deployment", "octopus",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "write" in out and "read" in out
        assert "node-local read fraction" in out

    def test_slive(self, capsys):
        assert main(["slive", "--ops", "100"]) == 0
        out = capsys.readouterr().out
        assert "rename" in out
        assert "overhead" in out


class TestObservabilityFlags:
    def test_report_json(self, capsys):
        assert main(["report", "--deployment", "octopus", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["deployment"] == "octopus"
        assert data["workers"] == 9
        tiers = {t["tier"] for t in data["tiers"]}
        assert {"MEMORY", "SSD", "HDD"} <= tiers
        for tier in data["tiers"]:
            assert tier["remaining"] <= tier["total_capacity"]

    def test_report_json_includes_engine_and_metrics(self, capsys):
        assert main(["report", "--deployment", "octopus", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"]["events_processed"] >= 0
        assert {"counters", "gauges", "histograms"} <= set(data["metrics"])

    def test_dfsio_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "dfsio",
                "--size", "128MB",
                "--parallelism", "2",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"metrics written to {metrics}" in out
        assert f"trace written to {trace}" in out
        assert "# TYPE bytes_written_total counter" in metrics.read_text()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records
        assert validate_trace_records(records) == []

    def test_dfsio_metrics_json_variant(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "dfsio",
                "--size", "128MB",
                "--parallelism", "2",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        capsys.readouterr()
        data = json.loads(metrics.read_text())
        names = {c["name"] for c in data["counters"]}
        assert "bytes_written_total" in names

    def test_slive_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "slive.jsonl"
        assert main(["slive", "--ops", "50", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        phases = {
            r["attrs"]["phase"] for r in records
            if r.get("name") == "workload.phase"
        }
        assert {"mkdir", "create", "open", "ls", "rename", "delete"} <= phases


class TestExperimentCapture:
    def test_fig5_capture_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "experiment", "fig5",
                "--scale", "0.05",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"metrics written to {metrics}" in out
        assert f"trace written to {trace}" in out
        # fig5 builds several deployments; each run's metrics are kept.
        assert json.loads(metrics.read_text())["runs"]
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records
        assert validate_trace_records(records) == []
        # Merged streams must not collide on span ids across runs.
        span_ids = [r["span_id"] for r in records if r["kind"] == "span"]
        assert len(span_ids) == len(set(span_ids))

    def test_table3_capture_exports_slive(self, tmp_path, capsys):
        # S-Live builds no cluster; its engine-less obs joins the capture.
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "experiment", "table3",
                "--scale", "0.05",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = read_jsonl_records(str(trace))
        assert records
        assert validate_trace_records(records) == []
        counters = json.loads(metrics.read_text())["counters"]
        assert {c["labels"]["system"] for c in counters
                if c["name"] == "slive_ops_total"} == {"HDFS", "OctopusFS"}

    def test_fig5_writes_one_ledger_per_deployment(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        bundles = tmp_path / "bundles"
        code = main(
            [
                "experiment", "fig5",
                "--scale", "0.05",
                "--metrics-out", str(metrics),
                "--ledger-out", str(tmp_path / "L.jsonl.gz"),
                "--recorder-out", str(bundles),
            ]
        )
        assert code == 0
        capsys.readouterr()
        runs = len(json.loads(metrics.read_text())["runs"])
        assert runs > 1
        ledgers = sorted(p.name for p in tmp_path.glob("L*"))
        assert ledgers == sorted(f"L.run-{i}.jsonl.gz" for i in range(runs))
        for name in ledgers:
            records = read_jsonl_records(str(tmp_path / name))
            assert records
            assert validate_ledger_records(records) == []
        if bundles.exists():
            assert all(p.name.startswith("run-") for p in bundles.iterdir())


def _file_digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestCaptureMatchesHandWiring:
    """The CLI's capture scope is the same program as wiring the
    observers by hand: every export is byte-identical."""

    @pytest.mark.parametrize(
        "size, parallelism, incidents",
        [("256MB", 4, 0), ("16GB", 27, 1)],
    )
    def test_dfsio_exports(self, tmp_path, capsys, size, parallelism,
                           incidents):
        cli = tmp_path / "cli"
        lib = tmp_path / "lib"
        cli.mkdir()
        lib.mkdir()
        code = main(
            [
                "dfsio",
                "--size", size,
                "-d", str(parallelism),
                "--slo",
                "--alerts-out", str(cli / "alerts.jsonl"),
                "--trace-out", str(cli / "trace.jsonl"),
                "--metrics-out", str(cli / "metrics.json"),
                "--ledger-out", str(cli / "ledger.jsonl.gz"),
                "--recorder-out", str(cli / "bundles"),
            ]
        )
        assert code == 0
        capsys.readouterr()

        fs = build_deployment(
            "octopus", spec=paper_cluster_spec(racks=1, seed=0), seed=0
        )
        fs.obs.enable()
        slo = SloMonitor(fs, rules=default_read_rules())
        health = HealthMonitor(fs, sink=slo.sink)
        recorder = FlightRecorder(fs, out_dir=str(lib / "bundles")).attach()
        ledger = ProvenanceLedger(fs.obs).attach()
        bench = Dfsio(fs, monitors=(slo, health))
        bench.write(parse_bytes(size), parallelism=parallelism, rep_vector=3)
        bench.read(parallelism=parallelism)
        recorder.detach()
        ledger.detach()
        ledger.export(str(lib / "ledger.jsonl.gz"))
        write_metrics(fs.obs.metrics, str(lib / "metrics.json"))
        write_jsonl(fs.obs.tracer.records, str(lib / "trace.jsonl"))
        write_jsonl(slo.sink.timeline, str(lib / "alerts.jsonl"))

        assert len(recorder.incidents) == incidents
        expected = _file_digests(lib)
        assert len(expected) == 4 + incidents
        assert _file_digests(cli) == expected


class TestAnalyze:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            [
                "dfsio",
                "--size", "128MB",
                "--parallelism", "2",
                "--trace-out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        return path

    def test_text_report(self, trace_path, capsys):
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "flow.transfer" in out
        assert "stragglers" in out

    def test_json_report(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["problems"] == []
        assert data["requests"]
        for request in data["requests"]:
            total = sum(s["duration"] for s in request["segments"])
            assert total == pytest.approx(request["duration"])

    def test_chrome_out(self, trace_path, tmp_path, capsys):
        chrome = tmp_path / "trace.chrome.json"
        code = main(
            ["analyze", str(trace_path), "--chrome-out", str(chrome)]
        )
        assert code == 0
        assert f"chrome trace written to {chrome}" in capsys.readouterr().out
        document = json.loads(chrome.read_text())
        assert validate_chrome_trace(document) == []
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_corrupt_line_tolerated_by_default(self, trace_path, capsys):
        with open(trace_path, "a", encoding="utf-8") as handle:
            handle.write("%% not json %%\n")
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "problem: line 18: invalid JSON" in out

    def test_strict_fails_on_corrupt_line(self, trace_path, capsys):
        with open(trace_path, "a", encoding="utf-8") as handle:
            handle.write("%% not json %%\n")
        assert main(["analyze", str(trace_path), "--strict"]) == 1
        err = capsys.readouterr().err
        assert "invalid JSON" in err

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_in_strict_mode_is_error(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.jsonl"), "--strict"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_non_positive_top_rejected(self, trace_path, top, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(trace_path), "--top", top])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_non_integer_top_rejected(self, trace_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(trace_path), "--top", "many"])
        assert excinfo.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_positive_top_accepted(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--top", "2"]) == 0
        assert "stragglers" in capsys.readouterr().out


class TestExperimentPolicyFlag:
    def test_policy_rejected_for_experiments_without_one(self, capsys):
        assert main(["experiment", "table2", "--policy", "adaptive"]) == 2
        assert "does not take --policy" in capsys.readouterr().err

    def test_invalid_policy_value_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "tiering", "--policy", "bogus"]
            )

    def test_tiering_accepts_policy(self, capsys):
        assert main(
            ["experiment", "tiering", "--scale", "0.1", "--policy", "static"]
        ) == 0
        out = capsys.readouterr().out
        assert "static" in out
        assert "Workload shift" in out


class TestReportHealth:
    def test_report_json_includes_health_section(self, capsys):
        assert main(["report", "--deployment", "octopus", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        health = data["health"]
        assert health["ticks"] == 1
        assert health["alerts_firing"] == []
        for check in ("accounting", "replication"):
            assert health["checks"][check]["violations"] == 0
            assert health["checks"][check]["firing"] is False
        assert health["grace_ticks"]["replication"] >= 1


class TestRecorderFlag:
    def test_dfsio_quiet_run_reports_no_incidents(self, tmp_path, capsys):
        bundles = tmp_path / "bundles"
        bundles.mkdir()
        code = main(
            [
                "dfsio",
                "--size", "128MB",
                "--parallelism", "2",
                "--recorder-out", str(bundles),
            ]
        )
        assert code == 0
        assert "flight recorder: no incidents" in capsys.readouterr().out
        assert list(bundles.iterdir()) == []

    def test_slive_quiet_run_reports_no_incidents(self, tmp_path, capsys):
        bundles = tmp_path / "bundles"
        bundles.mkdir()
        code = main(
            ["slive", "--ops", "50", "--recorder-out", str(bundles)]
        )
        assert code == 0
        assert "flight recorder: no incidents" in capsys.readouterr().out
        assert list(bundles.iterdir()) == []

    def test_tiering_experiment_accepts_recorder_out(self, tmp_path, capsys):
        code = main(
            [
                "experiment", "tiering",
                "--scale", "0.1",
                "--policy", "static",
                "--recorder-out", str(tmp_path),
            ]
        )
        assert code == 0
        assert "Workload shift" in capsys.readouterr().out


class TestLedgerFlag:
    def test_dfsio_ledger_out_and_explain(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl.gz"
        code = main(
            [
                "dfsio",
                "--size", "128MB",
                "--parallelism", "2",
                "--ledger-out", str(ledger),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ledger written to" in out
        assert ledger.exists()
        code = main(
            ["explain", "/benchmarks/DFSIO/io_file_0", "--ledger", str(ledger)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replicas (why-here):" in out
        assert "placement" in out

    def test_explain_json_is_canonical(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        main(
            [
                "dfsio",
                "--size", "128MB",
                "--parallelism", "2",
                "--ledger-out", str(ledger),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "explain", "/benchmarks/DFSIO/io_file_0",
                "--ledger", str(ledger), "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["path"] == "/benchmarks/DFSIO/io_file_0"
        assert data["replicas"]
        assert data["why_not"]

    def test_explain_missing_ledger_is_error(self, tmp_path, capsys):
        code = main(
            ["explain", "/f", "--ledger", str(tmp_path / "missing.jsonl")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_slive_ledger_out(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        code = main(["slive", "--ops", "50", "--ledger-out", str(ledger)])
        assert code == 0
        assert "ledger written to" in capsys.readouterr().out
        assert ledger.exists()

    def test_tiering_experiment_accepts_ledger_out(self, tmp_path, capsys):
        # One policy is one deployment, so the ledger lands at the exact
        # path given.
        ledger = tmp_path / "ledger.jsonl.gz"
        code = main(
            [
                "experiment", "tiering",
                "--scale", "0.1",
                "--policy", "adaptive",
                "--ledger-out", str(ledger),
            ]
        )
        assert code == 0
        assert f"ledger written to {ledger}" in capsys.readouterr().out
        assert validate_ledger_records(read_jsonl_records(str(ledger))) == []

    def test_report_json_includes_balancer_section(self, capsys):
        assert main(["report", "--workers", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["balancer"]) == {
            "threshold", "spread", "planned_moves",
        }
        assert data["balancer"]["threshold"] == 0.10
