"""Tests for the command-line interface."""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXIT_CLOSED_PIPE, build_algorithm, build_graph, main


class TestBuilders:
    def test_build_graph_families(self):
        assert build_graph("ring", 10).num_nodes == 10
        assert build_graph("star", 7).num_nodes == 7
        assert build_graph("hypercube", 8).num_nodes == 8

    def test_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_graph("moebius", 10)

    def test_build_algorithm_variants(self):
        graph = build_graph("ring", 12)
        for name in ("cheap", "cheap-sim", "fast", "fast-sim", "fwr", "fwr-sim"):
            algorithm = build_algorithm(name, graph, 8, 2)
            assert algorithm.label_space == 8

    def test_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_algorithm("teleport", build_graph("ring", 12), 8, 2)


class TestCommands:
    def test_run_command(self, capsys):
        exit_code = main(
            ["run", "--algorithm", "fast", "--labels", "2", "5",
             "--starts", "0", "6", "--delay", "3", "--verbose"]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "met at node" in captured.out
        # --verbose narration rides the stderr message channel now.
        assert "agent 2" in captured.err
        assert "agent 2" not in captured.out

    def test_sweep_command(self, capsys):
        exit_code = main(
            ["sweep", "--algorithm", "cheap", "--size", "9",
             "--label-space", "4", "--delays", "0", "5", "--no-cache"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Worst-case sweep" in output
        assert "paper bound" in output
        assert "cache=off" in output

    def test_sweep_with_workers_matches_serial(self, capsys):
        args = ["sweep", "--algorithm", "fast-sim", "--size", "8",
                "--label-space", "4", "--no-cache"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out

        def rows(output):
            return [line for line in output.splitlines()
                    if line.startswith(("time", "cost", "worst"))]

        assert rows(serial) == rows(parallel)

    def test_sweep_cache_roundtrip(self, capsys, tmp_path):
        args = ["sweep", "--algorithm", "fast-sim", "--size", "8",
                "--label-space", "4", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed" in second and "16 cached" in second

    def test_certify_31(self, capsys):
        exit_code = main(
            ["certify", "--theorem", "3.1", "--algorithm", "cheap-sim",
             "--size", "12", "--label-space", "6"]
        )
        assert exit_code == 0
        assert "Fact 3.3" in capsys.readouterr().out

    def test_certify_32(self, capsys):
        exit_code = main(
            ["certify", "--theorem", "3.2", "--algorithm", "fast-sim",
             "--size", "12", "--label-space", "6"]
        )
        assert exit_code == 0
        assert "Fact 3.17" in capsys.readouterr().out

    def test_certify_rejects_bad_ring_size(self):
        with pytest.raises(SystemExit, match="divisible by 6"):
            main(["certify", "--size", "10", "--algorithm", "cheap-sim"])

    def test_explore_command(self, capsys):
        exit_code = main(["explore"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ring-clockwise" in output
        assert "try-all-dfs" in output

    def test_tradeoff_command(self, capsys):
        exit_code = main(["tradeoff", "--size", "12", "--label-space", "16"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cheap-simultaneous" in output
        assert "fast-simultaneous" in output


class TestJsonOutput:
    def test_sweep_json_is_canonical_and_machine_consumable(self, capsys):
        args = ["sweep", "--graph", "ring", "--size", "6", "--algorithm",
                "fast-sim", "--label-space", "4", "--no-cache", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["graph"] == {"family": "ring", "params": {"n": 6}}
        assert payload["scenario"]["algorithm"]["name"] == "fast-sim"
        result = payload["result"]
        assert result["max_time"] <= result["time_bound"]
        assert result["executions"] == payload["runtime"]["executions"]
        assert set(result["worst_time_config"]) == {"labels", "starts", "delay"}

    def test_sweep_json_identical_across_workers(self, capsys):
        args = ["sweep", "--graph", "ring", "--size", "6", "--algorithm",
                "fast-sim", "--label-space", "4", "--no-cache", "--json"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_run_json(self, capsys):
        assert main(["run", "--json", "--labels", "2", "5", "--starts", "0", "6",
                     "--delay", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["met"] is True
        assert payload["execution"] == {"labels": [2, 5], "starts": [0, 6], "delay": 3}
        assert payload["scenario"]["graph"]["family"] == "ring"

    def test_new_registry_families_are_exposed(self, capsys):
        assert main(["sweep", "--graph", "petersen", "--algorithm", "fast-sim",
                     "--label-space", "3", "--no-cache"]) == 0
        assert "petersen-10" in capsys.readouterr().out

    def test_run_json_verbose_includes_traces(self, capsys):
        assert main(["run", "--json", "--verbose", "--labels", "2", "5",
                     "--starts", "0", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [t["label"] for t in payload["traces"]] == [2, 5]

    def test_no_cache_contradicts_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="contradicts"):
            main(["sweep", "--no-cache", "--cache-dir", str(tmp_path)])

    def test_explicit_size_rejected_for_fixed_size_families(self):
        with pytest.raises(SystemExit, match="fixed size"):
            main(["sweep", "--graph", "petersen", "--size", "50",
                  "--algorithm", "fast-sim", "--label-space", "3", "--no-cache"])


class TestTelemetryCommands:
    SWEEP = ["sweep", "--graph", "ring", "--size", "6", "--algorithm",
             "fast-sim", "--label-space", "4", "--no-cache", "--json"]

    def test_telemetry_flag_is_inert_on_the_canonical_report(
        self, capsys, tmp_path
    ):
        assert main(self.SWEEP) == 0
        plain = capsys.readouterr().out
        events = tmp_path / "events.jsonl"
        assert main(self.SWEEP + ["--telemetry", str(events)]) == 0
        with_telemetry = capsys.readouterr().out
        assert with_telemetry == plain

    def test_sweep_event_file_passes_the_schema_check(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(self.SWEEP + ["--telemetry", str(events)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "summary", str(events), "--check"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_summary_renders_phases_and_shards(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(self.SWEEP + ["--telemetry", str(events)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "summary", str(events)]) == 0
        output = capsys.readouterr().out
        assert "telemetry summary:" in output
        assert "scenario.run" in output
        assert "shards:" in output

    def test_summary_json_is_machine_consumable(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(self.SWEEP + ["--telemetry", str(events)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "summary", str(events), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["configs.evaluated"] > 0
        assert payload["phases"]["scenario.run"]["count"] == 1

    def test_shard_events_name_the_path_taken(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(self.SWEEP + ["--telemetry", str(events)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "summary", str(events), "--json"]) == 0
        shards = json.loads(capsys.readouterr().out)["shards"]
        assert shards
        for shard in shards:
            expected = "whole_cube" if shard["engine"] == "cube" else "stream"
            assert shard["path"] == expected
            assert shard["prune"] is (True if expected == "whole_cube" else None)
        assert main(["telemetry", "summary", str(events)]) == 0
        assert f"path={shards[0]['path']}" in capsys.readouterr().out

    def test_check_rejects_a_broken_event_file(self, capsys, tmp_path):
        events = tmp_path / "bad.jsonl"
        events.write_text('{"ev": "gauge", "ts": 0.0}\n')
        assert main(["telemetry", "summary", str(events), "--check"]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_strip_removes_timing_sections(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({
            "verdict": "ok",
            "timing": {"seconds": 1.5},
            "units": [{"key": "a", "timing": {"seconds": 0.5}}],
        }))
        assert main(["telemetry", "strip", str(report)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"verdict": "ok", "units": [{"key": "a"}]}

    def test_progress_flag_draws_on_stderr(self, capsys):
        assert main(self.SWEEP[:-1] + ["--progress"]) == 0
        captured = capsys.readouterr()
        assert "shards" in captured.err
        assert "Worst-case sweep" in captured.out


class ClosedPipe(io.StringIO):
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestClosedPipe:
    def test_main_stops_quietly_when_the_reader_is_gone(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["engines"]) == EXIT_CLOSED_PIPE

    def test_python_m_repro_into_a_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "engines"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_CLOSED_PIPE
        assert proc.stderr == ""
