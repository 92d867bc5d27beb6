"""Tests for the experiment runner: ordering, parallel parity, caching."""

from __future__ import annotations

import warnings

import pytest

from repro.core.pipeline import run_sweep, sweep_grid
from repro.core.statistics import seed_sweep
from repro.experiments.sensitivity_study import figure15_study
from repro.experiments.swap_study import swap_study
from repro.runtime import (
    ExperimentRunner,
    ResultCache,
    point_cache_key,
    point_seed,
    serial_runner,
)
from repro.topology.registry import small_topologies
from repro.transpiler import make_target


def _square(value):
    return value * value


def _spaced(value):
    return f"<{value}>"


def _raise_missing_file(value):
    raise FileNotFoundError(f"missing {value}")


class TestRunnerMap:
    def test_serial_map_preserves_order(self):
        runner = serial_runner()
        assert runner.map(_square, [(3,), (1,), (2,)]) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        serial = serial_runner().map(_square, [(n,) for n in range(8)])
        parallel = ExperimentRunner(parallel=True, max_workers=2).map(
            _square, [(n,) for n in range(8)]
        )
        assert parallel == serial

    def test_progress_labels_are_reported(self):
        seen = []
        runner = ExperimentRunner(parallel=False, progress=seen.append)
        runner.map(_spaced, [(1,), (2,)], labels=["one", "two"])
        assert seen == ["one", "two"]

    def test_misaligned_keys_rejected(self):
        with pytest.raises(ValueError):
            serial_runner(result_cache=ResultCache()).map(
                _square, [(1,), (2,)], keys=["only-one"]
            )

    def test_cache_short_circuits_repeated_tasks(self):
        cache = ResultCache()
        runner = ExperimentRunner(parallel=False, result_cache=cache)
        first = runner.map(_square, [(2,), (3,)], keys=["a", "b"])
        second = runner.map(_square, [(2,), (3,)], keys=["a", "b"])
        assert first == second == [4, 9]
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses >= 2

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(max_workers=0)

    def test_task_raised_oserror_propagates_from_pool(self):
        # An OSError subclass raised *by the task* must surface unchanged —
        # it is not a pool failure and must not trigger the serial fallback
        # (which would silently rerun the whole batch).
        runner = ExperimentRunner(parallel=True, max_workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FileNotFoundError, match="missing 1"):
                runner.map(_raise_missing_file, [(1,), (2,)])

    def test_non_integer_workers_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            runner = ExperimentRunner()
        assert runner.max_workers >= 1

    def test_pool_is_reused_across_map_calls(self):
        with ExperimentRunner(parallel=True, max_workers=2) as runner:
            assert runner.map(_square, [(1,), (2,)]) == [1, 4]
            pool = runner._pool
            assert pool is not None
            assert runner.map(_square, [(3,), (4,)]) == [9, 16]
            assert runner._pool is pool
            runner.close()
            assert runner._pool is None
            # Still usable after close: a fresh pool is started on demand.
            assert runner.map(_square, [(5,), (6,)]) == [25, 36]


class TestPointSeed:
    def test_deterministic_and_distinct(self):
        assert point_seed(7, "GHZ", 12) == point_seed(7, "GHZ", 12)
        assert point_seed(7, "GHZ", 12) != point_seed(7, "GHZ", 13)
        assert point_seed(7, "GHZ", 12) != point_seed(8, "GHZ", 12)

    def test_fits_in_31_bits(self):
        for base in (0, 1, 2**31, 12345):
            assert 0 <= point_seed(base, "x") < 2**31


@pytest.fixture(scope="module")
def small_backends():
    registry = small_topologies()
    return [
        make_target(registry["Corral1,1"], "siswap", name="Corral1,1-siswap"),
        make_target(registry["Hypercube"], "cx", name="Hypercube-cx"),
    ]


class TestSweepParity:
    def test_sweep_grid_skips_oversized_points(self, small_backends):
        grid = sweep_grid(["GHZ"], [5, 64], small_backends)
        assert all(size <= backend.num_qubits for _, size, backend in grid)

    def test_parallel_sweep_bit_identical(self, small_backends):
        serial = run_sweep(["GHZ", "QFT"], [5, 7], small_backends, seed=3)
        runner = ExperimentRunner(parallel=True, max_workers=2)
        parallel = run_sweep(["GHZ", "QFT"], [5, 7], small_backends, seed=3, runner=runner)
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]

    def test_cached_sweep_bit_identical(self, small_backends):
        runner = ExperimentRunner(parallel=False, result_cache=ResultCache())
        cold = run_sweep(["GHZ"], [5, 6], small_backends, seed=3, runner=runner)
        warm = run_sweep(["GHZ"], [5, 6], small_backends, seed=3, runner=runner)
        assert [r.as_dict() for r in cold] == [r.as_dict() for r in warm]
        assert runner.result_cache.stats().hits == len(warm)

    def test_swap_study_parallel_parity(self):
        topologies = ["Corral1,1", "Hypercube"]
        serial = swap_study("small", topologies, workloads=["GHZ"], sizes=[5, 6])
        parallel = swap_study(
            "small",
            topologies,
            workloads=["GHZ"],
            sizes=[5, 6],
            runner=ExperimentRunner(parallel=True, max_workers=2),
        )
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]

    def test_seed_sweep_parallel_parity(self, small_backends):
        backend = small_backends[0]
        serial = seed_sweep("GHZ", 6, backend, seeds=(1, 2, 3))
        parallel = seed_sweep(
            "GHZ",
            6,
            backend,
            seeds=(1, 2, 3),
            runner=ExperimentRunner(parallel=True, max_workers=2),
        )
        assert serial == parallel


class TestSensitivityParity:
    @pytest.mark.slow
    def test_sensitivity_parallel_parity(self):
        kwargs = dict(roots=(2, 3), num_targets=2, k_values=(2, 3), seed=9)
        serial = figure15_study(**kwargs)
        parallel = figure15_study(
            **kwargs, runner=ExperimentRunner(parallel=True, max_workers=2)
        )
        assert serial.root_results == parallel.root_results
        assert serial.total_fidelity == parallel.total_fidelity


class TestPointCacheKey:
    def test_distinct_backends_never_collide(self, small_backends):
        first, second = small_backends
        key_a = point_cache_key("GHZ", 5, first, 0, "dense", "sabre")
        key_b = point_cache_key("GHZ", 5, second, 0, "dense", "sabre")
        assert key_a != key_b

    def test_key_is_stable(self, small_backends):
        backend = small_backends[0]
        assert point_cache_key("GHZ", 5, backend, 0, "dense", "sabre") == point_cache_key(
            "GHZ", 5, backend, 0, "dense", "sabre"
        )
