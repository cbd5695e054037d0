"""Tests for the command-line interface."""

import json
import re

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.game import GameTrace
from repro.obs import bench_row, write_bench_json


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "t.jsonl"
    code = main([
        "simulate", "--players", "6", "--frames", "60", "--seed", "3",
        "--out", str(path),
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_simulate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])


class TestSimulate:
    def test_writes_loadable_trace(self, trace_path):
        trace = GameTrace.load_jsonl(trace_path)
        assert trace.num_players == 6
        assert trace.num_frames == 60

    def test_npc_fraction_flag(self, tmp_path, capsys):
        path = tmp_path / "npc.jsonl"
        assert main([
            "simulate", "--players", "4", "--frames", "30",
            "--npc-fraction", "1.0", "--out", str(path),
        ]) == 0
        assert "recorded 4 players" in capsys.readouterr().out

    def test_corridors_map(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert main([
            "simulate", "--players", "4", "--frames", "30",
            "--map", "corridors", "--out", str(path),
        ]) == 0
        assert GameTrace.load_jsonl(path).map_name == "corridors"


class TestReplay:
    def test_replay_prints_report(self, trace_path, capsys):
        assert main(["replay", str(trace_path), "--latency", "lan"]) == 0
        out = capsys.readouterr().out
        assert "update ages" in out
        assert "stale" in out

    def test_replay_with_server(self, trace_path, capsys):
        assert main(["replay", str(trace_path), "--servers", "1"]) == 0
        assert "server" in capsys.readouterr().out


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_module_entrypoint_matches(self):
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert f"repro {__version__}" in result.stdout


class TestMetrics:
    def test_metrics_summary(self, capsys):
        assert main([
            "metrics", "--players", "6", "--frames", "40", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "6 players x 40 frames" in out
        assert "bandwidth" in out
        # one ObserverFrame per plan and per distinct subscriber pose a
        # proxy judges, so at most one per classification
        ratio = re.search(r"observer_frames_per_classification (\d+\.\d{3}) ", out)
        assert ratio is not None
        assert float(ratio.group(1)) <= 1.0

    def test_metrics_json_stdout(self, capsys):
        assert main([
            "metrics", "--players", "6", "--frames", "40", "--json", "-",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["gauges"]["session.frames"] == 40
        assert not any(name.endswith("_seconds") and name != "net.delivery_seconds"
                       for name in snapshot["histograms"])
        assert snapshot["counters"]["net.sent.StateUpdate.count"] > 0
        assert snapshot["gauges"]["net.upload_kbps.mean"] > 0

    def test_metrics_json_file(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert main([
            "metrics", "--players", "6", "--frames", "40",
            "--json", str(out),
        ]) == 0
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        assert snapshot["enabled"] is True


class TestBenchDiff:
    @staticmethod
    def write(path, **metrics):
        write_bench_json(path, bench_row("b", metrics=metrics))

    def test_identical_artifacts_pass(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self.write(old, kbps=100.0)
        self.write(new, kbps=100.0)
        assert main(["bench-diff", str(old), str(new)]) == 0

    def test_regression_fails(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self.write(old, kbps=100.0)
        self.write(new, kbps=160.0)
        assert main(["bench-diff", str(old), str(new)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self.write(old, kbps=100.0)
        self.write(new, kbps=160.0)
        assert main([
            "bench-diff", str(old), str(new), "--threshold", "0.7",
        ]) == 0

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        self.write(old, kbps=1.0)
        assert main(["bench-diff", str(old), str(tmp_path / "nope.json")]) == 2
        assert "bench-diff" in capsys.readouterr().err


class TestExperiment:
    def test_fig1(self, capsys):
        assert main([
            "experiment", "fig1", "--players", "6", "--frames", "60",
        ]) == 0
        assert "top-10%" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main([
            "experiment", "fig4", "--players", "6", "--frames", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "watchmen" in out and "donnybrook" in out

    def test_churn(self, capsys):
        assert main([
            "experiment", "churn", "--players", "6", "--frames", "80",
        ]) == 0
        assert "IS turnover" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main([
            "experiment", "fig7", "--players", "6", "--frames", "80",
        ]) == 0
        out = capsys.readouterr().out
        assert "king" in out and "peerwise" in out
