"""Tests for batch transpilation through the experiment runtime."""

import pytest

from repro.runtime import ExperimentRunner, ResultCache
from repro.runtime.runner import serial_runner
from repro.transpiler import Target, circuit_fingerprint, transpile, transpile_batch
from repro.transpiler.batch import batch_cache_key
from repro.workloads import build_workload, ghz_circuit, quantum_volume_circuit


@pytest.fixture()
def circuits():
    return [
        quantum_volume_circuit(6, seed=1),
        ghz_circuit(8),
        build_workload("QFT", 5),
    ]


@pytest.fixture()
def target():
    return Target.from_names("Corral1,1", "siswap")


class TestBatchMatchesSequential:
    def test_results_aligned_and_identical(self, circuits, target):
        batch = transpile_batch(circuits, target, seed=7, optimization_level=2)
        assert len(batch) == len(circuits)
        for circuit, result in zip(circuits, batch):
            reference = transpile(circuit, target, seed=7, optimization_level=2)
            assert result.metrics == reference.metrics

    def test_runner_fanout_matches_serial(self, circuits, target):
        serial = transpile_batch(circuits, target, seed=3)
        with ExperimentRunner(parallel=True, max_workers=2) as runner:
            parallel = transpile_batch(circuits, target, seed=3, runner=runner)
        assert [r.metrics for r in parallel] == [r.metrics for r in serial]


class TestBatchCaching:
    def test_repeated_points_hit_cache(self, circuits, target):
        cache = ResultCache()
        runner = serial_runner(result_cache=cache)
        first = transpile_batch(circuits, target, seed=2, runner=runner)
        stats_after_first = cache.stats()
        second = transpile_batch(circuits, target, seed=2, runner=runner)
        stats_after_second = cache.stats()
        assert stats_after_second.hits == stats_after_first.hits + len(circuits)
        assert [r.metrics for r in second] == [r.metrics for r in first]

    def test_cache_hits_are_isolated_copies(self, circuits, target):
        """Mutating a returned result must not corrupt the cache."""
        runner = serial_runner(result_cache=ResultCache())
        first = transpile_batch(circuits[:1], target, seed=4, runner=runner)
        first[0].metrics.extra["poison"] = 1.0
        first[0].properties.pop("stage_circuits")
        first[0].properties["pass_timings"]["poison"] = 1.0
        second = transpile_batch(circuits[:1], target, seed=4, runner=runner)
        assert "poison" not in second[0].metrics.extra
        assert "stage_circuits" in second[0].properties
        assert "poison" not in second[0].properties["pass_timings"]

    def test_key_distinguishes_level_and_seed(self, circuits, target):
        base = batch_cache_key(circuits[0], target, 1, None, None, None, 0)
        assert batch_cache_key(circuits[0], target, 2, None, None, None, 0) != base
        assert batch_cache_key(circuits[0], target, 1, None, None, None, 5) != base
        assert batch_cache_key(circuits[1], target, 1, None, None, None, 0) != base


class TestCircuitFingerprint:
    def test_identical_construction_matches(self):
        assert circuit_fingerprint(ghz_circuit(6)) == circuit_fingerprint(ghz_circuit(6))

    def test_content_sensitive(self):
        assert circuit_fingerprint(ghz_circuit(6)) != circuit_fingerprint(ghz_circuit(7))
        assert circuit_fingerprint(
            quantum_volume_circuit(6, seed=1)
        ) != circuit_fingerprint(quantum_volume_circuit(6, seed=2))
