"""Failure-aware sweeps: a quarantined point is listed, and a rerun retries it.

The acceptance scenario of the fault-tolerant execution layer: under an
injected always-crash fault one sweep point is quarantined while the
rest of the sweep completes and lands in the result cache.  The cache
never stores a quarantined point, so a rerun on the same directory
reads the finished points from disk and retries *exactly* the failed
one — producing a result identical, record for record, to a
never-faulted sweep.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core import pipeline
from repro.core.pipeline import run_sweep
from repro.runtime import (
    ExperimentRunner,
    FailurePolicy,
    FaultPlan,
    PersistentResultCache,
    segment_stats,
)
from repro.transpiler.target import Target

pytestmark = pytest.mark.chaos


def _target() -> Target:
    return Target.from_names(
        "Corral1,1", "siswap", scale="small", name="Corral1,1-siswap"
    )


def _sweep(cache_dir, **runner_options):
    """``run_sweep`` of GHZ 4/5/6 on a runner caching in ``cache_dir``."""
    cache = PersistentResultCache(cache_dir)
    runner = ExperimentRunner(result_cache=cache, **runner_options)
    try:
        result = run_sweep(["GHZ"], [4, 5, 6], [_target()], runner=runner)
    finally:
        runner.close()
        cache.close()
    return result, runner, cache.stats()


def _poisoned_sweep(cache_dir):
    """The sweep on a parallel runner whose second dispatched task always crashes."""
    return _sweep(
        cache_dir,
        parallel=True,
        max_workers=2,
        failure_policy=FailurePolicy(max_pool_rebuilds=1),
        fault_plan=FaultPlan.parse("crash@1x*"),
    )


class TestFailureRecording:
    def test_quarantined_point_is_listed_not_fatal(self, tmp_path):
        result, runner, _stats = _poisoned_sweep(tmp_path)
        # The other points of the sweep completed and were stored.
        assert len(result) == 2
        assert result.failed_points == [{"label": "GHZ-5 on Corral1,1-siswap"}]
        assert runner.fault_stats.quarantined
        assert segment_stats(tmp_path).live_records == 2

    def test_quarantine_in_one_chunk_does_not_stop_the_next(self, tmp_path, monkeypatch):
        """Chunks of two: the poisoned point of the first is listed, the second still runs."""
        monkeypatch.setattr(pipeline, "SWEEP_CHUNK_POINTS", 2)
        cache = PersistentResultCache(tmp_path)
        runner = ExperimentRunner(
            result_cache=cache,
            parallel=True,
            max_workers=2,
            failure_policy=FailurePolicy(max_pool_rebuilds=1),
            fault_plan=FaultPlan.parse("crash@1x*"),
        )
        try:
            result = run_sweep(["GHZ"], [4, 5, 6, 7], [_target()], runner=runner)
        finally:
            runner.close()
            cache.close()
        assert [record.circuit_qubits for record in result] == [4, 6, 7]
        assert result.failed_points == [{"label": "GHZ-5 on Corral1,1-siswap"}]
        assert segment_stats(tmp_path).live_records == 3

    def test_rerun_retries_exactly_the_failed_point(self, tmp_path):
        _poisoned_sweep(tmp_path)
        result, _runner, stats = _sweep(tmp_path, parallel=False)
        # Two finished points come from disk; only the hole is recomputed.
        assert (stats.disk_hits, stats.computed) == (2, 1)
        assert len(result) == 3
        assert not result.failed_points
        direct = run_sweep(["GHZ"], [4, 5, 6], [_target()])
        assert [r.as_dict() for r in result.records] == [
            r.as_dict() for r in direct.records
        ]


class TestFailureCli:
    def test_cli_reports_and_rerun_retries(self, tmp_path, capsys):
        args = [
            "sweep",
            "--workloads",
            "GHZ",
            "--sizes",
            "4",
            "5",
            "6",
            "--topologies",
            "Corral1,1",
            "--cache-dir",
            str(tmp_path),
            "--parallel",
            "--workers",
            "2",
        ]
        exit_code = main(args + ["--inject-faults", "crash@1x*"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "sweep complete: 2 points, 1 failed" in captured.out
        assert "failed points (quarantined): GHZ-5 on Corral1,1-siswap" in captured.out
        assert "quarantined: GHZ-5 on Corral1,1-siswap" in captured.err

        exit_code = main(args)
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "2 disk hits, 1 transpiled" in captured.err
        assert "sweep complete: 3 points" in captured.out
        assert "failed" not in captured.out
