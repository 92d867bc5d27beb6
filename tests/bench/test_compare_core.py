"""The shared comparison core: buckets, strict rules, baseline provenance."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    Comparison,
    compare,
    format_comparison,
    read_artifact,
    read_baseline,
    run_compare,
    write_baseline,
)

class TestCompareBuckets:
    def test_buckets(self):
        result = compare(
            current={"slow": 2.0, "fast": 0.4, "same": 1.05, "fresh": 1.0},
            baseline={"slow": 1.0, "fast": 1.0, "same": 1.0, "vanished": 1.0},
            tolerance=0.5,
        )
        assert isinstance(result, Comparison)
        assert [row[0] for row in result.regressions] == ["slow"]
        assert [row[0] for row in result.improvements] == ["fast"]
        assert [row[0] for row in result.steady] == ["same"]
        assert result.new == ["fresh"]
        assert result.gone == ["vanished"]
        assert result.overlap == 3

    def test_ratio_recorded(self):
        result = compare({"a": 3.0}, {"a": 1.0}, tolerance=0.5)
        name, base, mean, ratio = result.regressions[0]
        assert (name, base, mean) == ("a", 1.0, 3.0)
        assert ratio == pytest.approx(3.0)

    def test_zero_baseline_skipped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="zero_mean_bench"):
            result = compare(
                {"zero_mean_bench": 0.5, "ok": 1.0},
                {"zero_mean_bench": 0.0, "ok": 1.0},
                tolerance=0.5,
            )
        assert result.skipped_zero_baseline == ["zero_mean_bench"]
        assert not result.regressions  # no fake astronomic regression
        assert result.overlap == 2

    def test_near_zero_baseline_also_skipped(self):
        with pytest.warns(RuntimeWarning):
            result = compare({"a": 0.5}, {"a": 1e-12}, tolerance=0.5)
        assert result.skipped_zero_baseline == ["a"]


class TestViolations:
    def test_clean_run_has_no_violations(self):
        result = compare({"a": 1.0}, {"a": 1.0}, tolerance=0.5)
        assert result.violations() == []

    def test_regression_is_a_violation(self):
        result = compare({"a": 2.0}, {"a": 1.0}, tolerance=0.5)
        assert any("regressed" in problem for problem in result.violations())

    def test_gone_is_a_violation(self):
        result = compare({"a": 1.0}, {"a": 1.0, "b": 1.0}, tolerance=0.5)
        assert any("missing from the current run" in p for p in result.violations())
        assert result.violations(ignore_gone=True) == []

    def test_empty_overlap_is_a_violation(self):
        result = compare({"renamed_a": 1.0}, {"a": 1.0}, tolerance=0.5)
        assert result.empty_overlap
        assert any("vacuous" in problem for problem in result.violations())


class TestBaselineProvenance:
    def test_write_and_read_round_trip(self, make_artifact, tmp_path):
        artifact = read_artifact(
            make_artifact({"a": 0.5}, rounds={"a": 9}, sha="cafebabe", host="box")
        )
        baseline_path = tmp_path / "baselines" / "smoke.json"
        meta = write_baseline(baseline_path, artifact)
        assert meta.git_sha == "cafebabe"
        means, read_meta = read_baseline(baseline_path)
        assert means == {"a": 0.5}
        assert read_meta.git_sha == "cafebabe"
        assert read_meta.host == "box"
        assert read_meta.timestamp == "2026-08-08T00:00:00"
        payload = json.loads(baseline_path.read_text())
        assert payload["meta"]["total_rounds"] == 9
        assert payload["benchmarks"][0]["stats"]["rounds"] == 9

    def test_explicit_sha_wins(self, make_artifact, tmp_path):
        artifact = read_artifact(make_artifact({"a": 0.5}, sha="artifact-sha"))
        meta = write_baseline(tmp_path / "b.json", artifact, git_sha="explicit-sha")
        assert meta.git_sha == "explicit-sha"

    def test_legacy_baseline_without_meta_still_loads(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"benchmarks": [{"name": "a", "stats": {"mean": 1.0}}]}))
        means, meta = read_baseline(path)
        assert means == {"a": 1.0}
        assert meta.git_sha is None and meta.timestamp is None

    def test_header_prints_provenance(self):
        artifact_means = {"a": 1.0}
        result = compare(artifact_means, {"a": 1.0}, tolerance=0.5)
        from repro.bench import RunMeta

        text = format_comparison(
            result,
            current_label="BENCH.json",
            baseline_label="smoke.json",
            baseline_meta=RunMeta(git_sha="abc123def456789", timestamp="2026-01-01", host="ci"),
        )
        assert "baseline provenance: sha=abc123def456 date=2026-01-01 host=ci" in text

    def test_header_marks_unknown_provenance(self):
        result = compare({"a": 1.0}, {"a": 1.0}, tolerance=0.5)
        from repro.bench import RunMeta

        text = format_comparison(
            result,
            current_label="BENCH.json",
            baseline_label="smoke.json",
            baseline_meta=RunMeta(),
        )
        assert "baseline provenance: unknown" in text


class TestRunCompareExitCodes:
    """The exit-code contract shared by the script and `repro bench compare`."""

    def _baseline(self, make_artifact, tmp_path, means, name="baseline.json"):
        path = tmp_path / name
        write_baseline(path, read_artifact(make_artifact(means, name="BENCH_base.json")))
        return path

    def test_clean_compare_exits_zero(self, make_artifact, tmp_path, capsys):
        artifact = make_artifact({"a": 1.0})
        baseline = self._baseline(make_artifact, tmp_path, {"a": 1.0})
        assert run_compare(artifact, baseline, strict=True) == 0
        assert "no regressions beyond tolerance" in capsys.readouterr().out

    def test_regression_strict_exits_one(self, make_artifact, tmp_path):
        artifact = make_artifact({"a": 2.0})
        baseline = self._baseline(make_artifact, tmp_path, {"a": 1.0})
        assert run_compare(artifact, baseline, tolerance=0.5, strict=True) == 1
        assert run_compare(artifact, baseline, tolerance=0.5, strict=False) == 0

    def test_gone_strict_exits_one(self, make_artifact, tmp_path, capsys):
        artifact = make_artifact({"a": 1.0})
        baseline = self._baseline(make_artifact, tmp_path, {"a": 1.0, "b": 1.0})
        assert run_compare(artifact, baseline, strict=True) == 1
        out = capsys.readouterr().out
        assert "missing benchmarks (in baseline only): b" in out

    def test_empty_overlap_strict_exits_one(self, make_artifact, tmp_path, capsys):
        artifact = make_artifact({"renamed_a": 1.0, "renamed_b": 1.0})
        baseline = self._baseline(make_artifact, tmp_path, {"a": 1.0, "b": 1.0})
        assert run_compare(artifact, baseline, strict=True) == 1
        assert "vacuous" in capsys.readouterr().out

    def test_missing_baseline_exits_zero(self, make_artifact, tmp_path):
        artifact = make_artifact({"a": 1.0})
        assert run_compare(artifact, tmp_path / "nope.json", strict=True) == 0

    def test_malformed_artifact_exits_two(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"benchmarks": [{"name": "x"}]}')
        assert run_compare(bad, tmp_path / "baseline.json", strict=True) == 2

    def test_write_baseline_records_provenance(self, make_artifact, tmp_path, capsys):
        artifact = make_artifact({"a": 1.0}, sha="feedface")
        baseline = tmp_path / "new-baseline.json"
        assert run_compare(artifact, baseline, write_baseline_instead=True) == 0
        assert "sha=feedface" in capsys.readouterr().out
        assert json.loads(baseline.read_text())["meta"]["git_sha"] == "feedface"
