"""Tests for the seed-sweep statistics helpers."""

import pytest

from repro.core.pipeline import run_sweep
from repro.core.statistics import (
    MetricSummary,
    compare_backends,
    format_comparison,
    ordering_stability,
    seed_sweep,
)
from repro.runtime import ResultCache, serial_runner
from repro.topology import get_topology
from repro.transpiler import make_target


def target_for(topology: str, basis: str, name=None):
    return make_target(get_topology(topology, scale="small"), basis, name=name or topology)


class TestMetricSummary:
    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            MetricSummary.from_values("total_2q", [])

    def test_single_sample_has_zero_std(self):
        summary = MetricSummary.from_values("total_2q", [42.0])
        assert summary.mean == 42.0
        assert summary.std == 0.0
        assert summary.samples == 1

    def test_statistics_of_known_values(self):
        summary = MetricSummary.from_values("x", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.std == pytest.approx(1.0)

    def test_str_is_informative(self):
        text = str(MetricSummary.from_values("total_swaps", [5.0, 7.0]))
        assert "total_swaps" in text and "n=2" in text


class TestSeedSweep:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            seed_sweep("GHZ", 6, target_for("Tree", "siswap"), seeds=[])

    def test_returns_summary_per_metric(self):
        summaries = seed_sweep(
            "QuantumVolume", 8, target_for("Corral1,1", "siswap"), seeds=(0, 1, 2)
        )
        assert set(summaries) == {"total_swaps", "critical_swaps", "total_2q", "critical_2q"}
        for summary in summaries.values():
            assert summary.samples == 3
            assert summary.minimum <= summary.mean <= summary.maximum

    def test_deterministic_workload_has_zero_variance_in_2q(self):
        # GHZ on a topology where it embeds perfectly: every seed gives the
        # same number of native gates.
        summaries = seed_sweep("GHZ", 6, target_for("Corral1,1", "siswap"), seeds=(0, 1, 2, 3))
        assert summaries["total_2q"].std == pytest.approx(0.0)

    def test_runner_cache_serves_a_repeated_sweep(self):
        cache = ResultCache()
        runner = serial_runner(result_cache=cache)
        target = target_for("Corral1,1", "siswap")
        first = seed_sweep("QuantumVolume", 6, target, seeds=(0, 1, 2), runner=runner)
        assert (cache.stats().hits, cache.stats().misses) == (0, 3)
        second = seed_sweep("QuantumVolume", 6, target, seeds=(0, 1, 2), runner=runner)
        assert (cache.stats().hits, cache.stats().misses) == (3, 3)
        assert second == first

    def test_shares_cache_records_with_run_sweep(self):
        cache = ResultCache()
        runner = serial_runner(result_cache=cache)
        target = target_for("Corral1,1", "siswap")
        run_sweep(["QuantumVolume"], [6], [target], seed=1, runner=runner)
        seed_sweep("QuantumVolume", 6, target, seeds=[1], runner=runner)
        assert (cache.stats().hits, cache.stats().misses) == (1, 1)


class TestComparisons:
    def test_compare_backends_keys(self):
        backends = [
            target_for("Heavy-Hex", "cx", name="Heavy-Hex-CX"),
            target_for("Corral1,1", "siswap", name="Corral1,1-siswap"),
        ]
        comparison = compare_backends(backends, "QuantumVolume", 8, seeds=(0, 1))
        assert set(comparison) == {"Heavy-Hex-CX", "Corral1,1-siswap"}

    def test_codesign_ordering_is_seed_stable(self):
        """The paper's central comparison should not be a heuristic artefact."""
        stability = ordering_stability(
            target_for("Corral1,1", "siswap", name="corral"),
            target_for("Heavy-Hex", "cx", name="heavyhex"),
            "QuantumVolume",
            10,
            seeds=(0, 1, 2, 3),
        )
        assert stability >= 0.75

    def test_ordering_stability_requires_seeds(self):
        with pytest.raises(ValueError):
            ordering_stability(
                target_for("Tree", "siswap"),
                target_for("Heavy-Hex", "cx"),
                "GHZ",
                6,
                seeds=(),
            )

    def test_format_comparison_sorted_by_mean(self):
        backends = [
            target_for("Heavy-Hex", "cx", name="Heavy-Hex-CX"),
            target_for("Corral1,1", "siswap", name="Corral1,1-siswap"),
        ]
        comparison = compare_backends(backends, "QuantumVolume", 8, seeds=(0, 1))
        text = format_comparison(comparison)
        assert text.index("Corral1,1-siswap") < text.index("Heavy-Hex-CX")
