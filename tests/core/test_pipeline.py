"""Tests for the sweep runner."""

import pytest

from repro.core import SweepResult, run_point, run_sweep
from repro.topology import hypercube, square_lattice
from repro.transpiler import make_target


@pytest.fixture(scope="module")
def small_sweep():
    backends = [
        make_target(square_lattice(4, 4), "cx", name="Square-CX"),
        make_target(hypercube(4), "siswap", name="Cube-SIS"),
    ]
    return run_sweep(["GHZ", "QFT"], [5, 8], backends, seed=3)


class TestRunPoint:
    def test_single_point(self):
        backend = make_target(square_lattice(4, 4), "cx", name="Square-CX")
        metrics = run_point("GHZ", 6, backend, seed=1)
        assert metrics.extra["workload"] == "GHZ"
        assert metrics.extra["backend"] == "Square-CX"
        assert metrics.circuit_qubits == 6


class TestRunSweep:
    def test_grid_size(self, small_sweep):
        # 2 workloads x 2 sizes x 2 backends
        assert len(small_sweep) == 8

    def test_oversized_circuits_skipped(self):
        backend = make_target(square_lattice(2, 2), "cx", name="Tiny")
        result = run_sweep(["GHZ"], [3, 10], [backend], seed=0)
        assert len(result) == 1

    def test_filter(self, small_sweep):
        ghz_only = small_sweep.filter(circuit_qubits=8)
        assert len(ghz_only) == 4
        assert all(record.circuit_qubits == 8 for record in ghz_only)

    def test_filter_matches_extra_fields_like_series_does(self, small_sweep):
        """filter() goes through as_dict(), so flattened extra fields match."""
        ghz_records = small_sweep.filter(workload="GHZ")
        assert len(ghz_records) == 4
        assert all(record.extra["workload"] == "GHZ" for record in ghz_records)
        one_backend = small_sweep.filter(workload="GHZ", backend="Cube-SIS")
        assert len(one_backend) == 2

    def test_filter_unknown_field_matches_nothing(self, small_sweep):
        assert len(small_sweep.filter(nonexistent_field=1)) == 0

    def test_average_over_extra_field(self, small_sweep):
        value = small_sweep.average("total_2q", workload="GHZ")
        assert value > 0

    def test_series_grouping(self, small_sweep):
        series = small_sweep.series("topology", "circuit_qubits", "total_2q")
        assert len(series) == 2
        for values in series.values():
            assert [x for x, _ in values] == sorted(x for x, _ in values)

    def test_average(self, small_sweep):
        value = small_sweep.average("total_2q", topology="hypercube-4d")
        assert value > 0

    def test_average_no_match(self, small_sweep):
        with pytest.raises(ValueError):
            small_sweep.average("total_2q", topology="nonexistent")

    def test_as_dicts(self, small_sweep):
        rows = small_sweep.as_dicts()
        assert len(rows) == len(small_sweep)
        assert {"workload", "backend", "total_swaps"} <= set(rows[0])

    def test_progress_callback(self):
        messages = []
        backend = make_target(square_lattice(4, 4), "cx", name="Square-CX")
        run_sweep(["GHZ"], [4], [backend], progress=messages.append)
        assert messages == ["GHZ-4 on Square-CX"]

    def test_add_and_iterate(self):
        result = SweepResult()
        assert len(result) == 0
        backend = make_target(square_lattice(4, 4), "cx")
        result.add(run_point("GHZ", 4, backend))
        assert len(list(iter(result))) == 1
