"""The comparison core behind `repro bench check`: buckets and gate rules."""

from __future__ import annotations

import pytest

from repro.bench import Comparison, compare


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

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.1])
    def test_tolerance_that_switches_the_gate_off_is_rejected(self, tolerance):
        # NaN and inf would pass a 50x slowdown; a negative band fails everything.
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            compare({"a": 50.0}, {"a": 1.0}, tolerance=tolerance)


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

    def test_empty_overlap_is_a_violation(self):
        result = compare({"renamed_a": 1.0}, {"a": 1.0}, tolerance=0.5)
        assert result.empty_overlap
        assert any("vacuous" in problem for problem in result.violations())
