"""The `repro bench` verbs: record → report → check round trips."""

from __future__ import annotations

import sys

import pytest

from repro.bench import BenchHistory, sparkline
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

    def test_delta_is_against_the_gated_baseline(self, make_artifact, tmp_path, capsys):
        """Δ is n/a wherever `bench check` compares nothing: gone or zero baseline."""
        hist = tmp_path / "hist"
        self._record(
            [
                {"a": 1.0, "b": 1.0, "c": 1e-12},
                {"a": 1.0, "b": 2.0, "c": 1e-12},
                {"a": 1.0, "c": 1.0},
            ],
            make_artifact,
            hist,
        )
        capsys.readouterr()
        assert main(["bench", "report", "--markdown", "--history-dir", str(hist)]) == 0
        rows = {
            line.split(" | ")[0][2:]: line.split(" | ")[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("| ") and not line.startswith("| benchmark")
        }
        assert rows == {"a": "+0.0% |", "b": "n/a |", "c": "n/a |"}
        gone = r"missing from the current run \(deleted or renamed\): b$"
        with pytest.warns(RuntimeWarning, match=": c$"), pytest.raises(SystemExit, match=gone):
            main(["bench", "check", "--history-dir", str(hist)])

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

    def test_check_fails_when_every_benchmark_was_renamed(self, make_artifact, tmp_path, capsys):
        hist = tmp_path / "hist"
        for means in ({"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 1.0}, {"y": 1.0, "z": 1.0}):
            main(["bench", "record", str(make_artifact(means)), "--history-dir", str(hist)])
        capsys.readouterr()
        assert _exit_status(["bench", "check", "--history-dir", str(hist)]) == 1
        assert "the comparison is vacuous" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.1"])
    def test_tolerance_that_switches_the_gate_off_is_a_usage_error(self, capsys, tolerance):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "check", "--tolerance", tolerance])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro bench check: error: argument --tolerance: must be a non-negative number"
        )


def _exit_status(argv) -> int:
    """The exit status of ``repro`` on ``argv``.

    Like the interpreter, a ``SystemExit`` carrying a message prints it
    to standard error and exits 1.
    """
    try:
        return main(argv)
    except SystemExit as error:
        if isinstance(error.code, str):
            print(error.code, file=sys.stderr)
            return 1
        return error.code


class TestCompareRecipe:
    """`record BASE`, `record NEW`, `check --window 1` replaces the removed one-shot diff."""

    @pytest.mark.parametrize(
        "new, status",
        [
            ({"a": 1.0, "b": 1.0}, 0),  # unchanged
            ({"a": 5.0, "b": 1.0}, 1),  # one benchmark 5x slower
            ({"a": 1.0}, 1),  # one benchmark gone
            ({"y": 1.0, "z": 1.0}, 1),  # every benchmark renamed
        ],
    )
    def test_recipe_verdicts(self, make_artifact, tmp_path, new, status):
        hist = str(tmp_path / "scratch-history")
        base = make_artifact({"a": 1.0, "b": 1.0}, name="BENCH_base.json")
        current = make_artifact(new, name="BENCH_new.json")
        assert main(["bench", "record", str(base), "--history-dir", hist]) == 0
        assert main(["bench", "record", str(current), "--history-dir", hist]) == 0
        argv = ["bench", "check", "--window", "1", "--tolerance", "0.5", "--history-dir", hist]
        assert _exit_status(argv) == status
