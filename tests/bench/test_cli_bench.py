"""The `repro bench` verbs: record → report → check round trips."""

from __future__ import annotations

import json

import pytest

from repro.bench import BenchHistory, read_artifact, sparkline, write_baseline
from repro.cli import main


class TestParser:
    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["bench"])

    def test_unknown_bench_verb_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "trend"])


class TestRecord:
    def test_record_appends_and_reports(self, make_artifact, tmp_path, capsys):
        artifact = make_artifact({"a": 1.0}, sha="cli-sha-123456")
        hist = tmp_path / "hist"
        assert main(["bench", "record", str(artifact), "--history-dir", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "recorded run #1" in out and "1 benchmark(s)" in out
        assert "sha=cli-sha-1234" in out
        assert BenchHistory(hist).names() == ["a"]

    def test_record_env_var_default(self, make_artifact, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(tmp_path / "env-hist"))
        artifact = make_artifact({"a": 1.0})
        assert main(["bench", "record", str(artifact)]) == 0
        assert BenchHistory(tmp_path / "env-hist").names() == ["a"]

    def test_record_malformed_artifact_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"benchmarks": [{"name": "x", "stats": {}}]}')
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "record", str(bad), "--history-dir", str(tmp_path / "h")])
        assert excinfo.value.code == 2
        assert "stats.mean" in capsys.readouterr().err

    def test_record_overrides(self, make_artifact, tmp_path):
        artifact = make_artifact({"a": 1.0}, sha="artifact-sha")
        hist = tmp_path / "hist"
        main(
            [
                "bench", "record", str(artifact), "--history-dir", str(hist),
                "--sha", "override-sha", "--host", "bench-box",
                "--timestamp", "2026-03-03T12:00:00",
            ]
        )
        run = BenchHistory(hist).runs()[0]
        assert run["git_sha"] == "override-sha"
        assert run["host"] == "bench-box"
        assert run["timestamp"] == "2026-03-03T12:00:00"


class TestReport:
    def _record(self, means_by_run, make_artifact, hist):
        for means in means_by_run:
            assert main(
                ["bench", "record", str(make_artifact(means)), "--history-dir", str(hist)]
            ) == 0

    def test_empty_history_report(self, tmp_path, capsys):
        assert main(["bench", "report", "--history-dir", str(tmp_path / "h")]) == 0
        assert "empty history" in capsys.readouterr().out

    def test_terminal_report_shows_trajectory(self, make_artifact, tmp_path, capsys):
        hist = tmp_path / "hist"
        self._record([{"a": 1.0}, {"a": 1.1}, {"a": 0.9}], make_artifact, hist)
        capsys.readouterr()
        assert main(["bench", "report", "--history-dir", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "3 run(s), 1 benchmark(s)" in out
        assert "a" in out and "1.000s" in out
        assert any(level in out for level in "▁▂▃▄▅▆▇█")

    def test_markdown_report_is_a_table(self, make_artifact, tmp_path, capsys):
        hist = tmp_path / "hist"
        self._record([{"a": 1.0}, {"a": 2.0}], make_artifact, hist)
        capsys.readouterr()
        assert main(["bench", "report", "--markdown", "--history-dir", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "# Benchmark trajectory" in out
        assert "| benchmark | runs | trend |" in out
        assert "| a | 2 |" in out
        assert "+100.0%" in out

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▄▄▄"
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁" and line[-1] == "█"


class TestCheck:
    def test_check_passes_on_steady_history(self, make_artifact, tmp_path, capsys):
        hist = tmp_path / "hist"
        for means in ({"a": 1.0}, {"a": 1.05}, {"a": 0.95}):
            main(["bench", "record", str(make_artifact(means)), "--history-dir", str(hist)])
        capsys.readouterr()
        assert main(["bench", "check", "--history-dir", str(hist)]) == 0
        assert "bench check" in capsys.readouterr().out

    def test_check_passes_with_insufficient_history(self, make_artifact, tmp_path, capsys):
        hist = tmp_path / "hist"
        main(["bench", "record", str(make_artifact({"a": 1.0})), "--history-dir", str(hist)])
        capsys.readouterr()
        assert main(["bench", "check", "--history-dir", str(hist)]) == 0
        assert "only one recorded run" in capsys.readouterr().out

    def test_acceptance_synthetic_slowdown_fails_check(
        self, make_artifact, tmp_path, capsys
    ):
        """ISSUE acceptance: record twice, then a >tolerance slowdown fails."""
        hist = tmp_path / "hist"
        main(["bench", "record", str(make_artifact({"a": 1.0, "b": 0.5})), "--history-dir", str(hist)])
        main(["bench", "record", str(make_artifact({"a": 1.0, "b": 0.5})), "--history-dir", str(hist)])
        capsys.readouterr()
        assert main(["bench", "check", "--history-dir", str(hist)]) == 0

        slow = make_artifact({"a": 1.6, "b": 0.5}, name="BENCH_slow.json")
        main(["bench", "record", str(slow), "--history-dir", str(hist)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "check", "--tolerance", "0.25", "--history-dir", str(hist)])
        message = str(excinfo.value)
        assert "bench check FAILED" in message
        assert "a" in message and "regressed" in message

        # ... and the markdown report shows the per-benchmark trajectory.
        assert main(["bench", "report", "--markdown", "--history-dir", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "| a | 3 |" in out and "| b | 3 |" in out
        assert "+60.0%" in out

    def test_check_fails_on_vanished_benchmark(self, make_artifact, tmp_path):
        hist = tmp_path / "hist"
        main(["bench", "record", str(make_artifact({"a": 1.0, "b": 1.0})), "--history-dir", str(hist)])
        main(["bench", "record", str(make_artifact({"a": 1.0, "b": 1.0})), "--history-dir", str(hist)])
        main(["bench", "record", str(make_artifact({"a": 1.0})), "--history-dir", str(hist)])
        with pytest.raises(SystemExit, match="missing from the current run"):
            main(["bench", "check", "--history-dir", str(hist)])


def _compare_exit(argv):
    """Exit code of ``repro bench compare`` (it raises SystemExit on failure)."""
    try:
        return main(["bench", "compare", *argv])
    except SystemExit as error:
        return error.code


class TestCompareVerb:
    def test_strict_regression_exit(self, make_artifact, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, read_artifact(make_artifact({"a": 1.0})))
        artifact = make_artifact({"a": 5.0}, name="BENCH_slow.json")
        assert _compare_exit([str(artifact), "--baseline", str(baseline)]) == 0
        assert _compare_exit([str(artifact), "--baseline", str(baseline), "--strict"]) == 1

    def test_strict_gone_and_empty_overlap_exit(self, make_artifact, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(
            baseline, read_artifact(make_artifact({"a": 1.0, "b": 1.0}))
        )
        gone = make_artifact({"a": 1.0}, name="BENCH_gone.json")
        assert _compare_exit([str(gone), "--baseline", str(baseline), "--strict"]) == 1
        renamed = make_artifact({"z": 1.0}, name="BENCH_renamed.json")
        assert _compare_exit([str(renamed), "--baseline", str(baseline), "--strict"]) == 1

    def test_write_baseline_then_self_compare_clean(self, make_artifact, tmp_path):
        artifact = make_artifact({"a": 1.0, "b": 0.25}, rounds={"a": 3, "b": 5})
        baseline = tmp_path / "self.json"
        assert _compare_exit(
            [str(artifact), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        payload = json.loads(baseline.read_text())
        assert payload["meta"]["total_rounds"] == 8
        assert _compare_exit(
            [str(artifact), "--baseline", str(baseline), "--strict", "--tolerance", "0.01"]
        ) == 0

    def test_compare_shares_the_script_flow(self, make_artifact, tmp_path, capsys):
        artifact = make_artifact({"a": 1.0}, sha="abc")
        baseline = tmp_path / "baseline.json"
        assert main(
            ["bench", "compare", str(artifact), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        assert json.loads(baseline.read_text())["meta"]["git_sha"] == "abc"
        capsys.readouterr()
        assert main(["bench", "compare", str(artifact), "--baseline", str(baseline)]) == 0
        assert "baseline provenance: sha=abc" in capsys.readouterr().out

        slow = make_artifact({"a": 9.0}, name="BENCH_slow.json")
        assert main(["bench", "compare", str(slow), "--baseline", str(baseline)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "compare", str(slow), "--baseline", str(baseline), "--strict"])
        assert excinfo.value.code == 1


class TestCommittedBaseline:
    def test_committed_smoke_baseline_loads_with_meta(self):
        from pathlib import Path

        from repro.bench import read_baseline

        path = Path(__file__).resolve().parents[2] / "benchmarks/baselines/smoke.json"
        means, meta = read_baseline(path)
        assert len(means) >= 10
        assert meta.source  # legacy import block present
