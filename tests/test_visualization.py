"""Tests for the terminal visualisation helpers."""

import pytest

from repro.core import SweepResult, run_point
from repro.topology import square_lattice
from repro.transpiler import make_target
from repro.visualization import (
    ascii_bar_chart,
    ascii_line_chart,
    series_to_csv,
    sweep_to_csv,
)


@pytest.fixture(scope="module")
def sample_series():
    return {
        "Heavy-Hex": [(8, 100.0), (16, 400.0)],
        "Corral": [(8, 40.0), (16, 120.0)],
    }


class TestLineChart:
    def test_contains_legend_and_axes(self, sample_series):
        chart = ascii_line_chart(sample_series, title="SWAPs vs size")
        assert "SWAPs vs size" in chart
        assert "o = Heavy-Hex" in chart and "x = Corral" in chart
        assert "8 .. 16" in chart

    def test_marker_positions_reflect_ordering(self, sample_series):
        chart = ascii_line_chart(sample_series, width=30, height=10)
        lines = [line for line in chart.splitlines() if line.startswith("|")]
        # The topmost marker row must belong to Heavy-Hex (the larger series).
        top_markers = next(line for line in lines if line.strip("| ").strip())
        assert "o" in top_markers and "x" not in top_markers

    def test_empty_series(self):
        assert ascii_line_chart({}) == "(no data)"

    def test_single_point_series(self):
        chart = ascii_line_chart({"only": [(5, 5.0)]})
        assert "only" in chart


class TestBarChart:
    def test_bars_scale_with_value(self):
        chart = ascii_bar_chart({"a": 1.0, "b": 4.0}, width=8)
        lines = chart.splitlines()
        assert lines[1].count("#") > lines[0].count("#")

    def test_empty(self):
        assert ascii_bar_chart({}) == "(no data)"

    def test_title(self):
        assert ascii_bar_chart({"a": 1.0}, title="ratios").startswith("ratios")


class TestCsvExport:
    def test_series_to_csv_row_count(self, sample_series):
        csv_text = series_to_csv(sample_series, x_name="size", y_name="swaps")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "series,size,swaps"
        assert len(lines) == 1 + 4

    def test_sweep_to_csv(self):
        backend = make_target(square_lattice(4, 4), "cx", name="sq")
        result = SweepResult([run_point("GHZ", 4, backend)])
        csv_text = sweep_to_csv(result)
        lines = csv_text.strip().splitlines()
        assert len(lines) == 2
        assert "total_swaps" in lines[0]

    def test_sweep_to_csv_empty(self):
        assert sweep_to_csv(SweepResult([])) == ""

    def test_sweep_to_csv_column_selection(self):
        backend = make_target(square_lattice(4, 4), "cx", name="sq")
        result = SweepResult([run_point("GHZ", 4, backend)])
        csv_text = sweep_to_csv(result, columns=["topology", "total_2q"])
        header = csv_text.splitlines()[0]
        assert header == "topology,total_2q"
