"""Crash recovery: a SIGKILLed sweep resumes from its result cache.

``run_sweep`` maps its grid in chunks through one runner, and a
persistent cache holds each chunk once its ``map`` returns.  These tests
kill a real sweep subprocess mid-flight (after its first chunk is
stored) and assert that a rerun on the same cache directory — both the
library call and ``repro sweep --cache-dir`` — reads the finished point
from disk and computes exactly the missing ones.  The same holds for a
sweep stopped in-process (Ctrl-C), for a rerun of a finished sweep and
for a rerun on a grown grid.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import pipeline
from repro.core.pipeline import run_sweep
from repro.runtime import ExperimentRunner, PersistentResultCache, segment_stats
from repro.transpiler.target import Target

pytestmark = pytest.mark.fast

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Target construction identical to ``repro sweep --topologies Corral1,1``.
_TARGET_EXPR = (
    'Target.from_names("Corral1,1", "siswap", scale="small", '
    'name="Corral1,1-siswap")'
)

_KILL_SCRIPT = f"""
import os, signal
from repro.core import pipeline
from repro.runtime import ExperimentRunner, PersistentResultCache
from repro.transpiler.target import Target

pipeline.SWEEP_CHUNK_POINTS = 1
announced = []

def die_at_second_point(label):
    # Announced before the point compiles: only the first chunk is stored.
    announced.append(label)
    if len(announced) == 2:
        os.kill(os.getpid(), signal.SIGKILL)

runner = ExperimentRunner(
    parallel=False, result_cache=PersistentResultCache({{cache_dir!r}})
)
pipeline.run_sweep(
    ["GHZ"], [4, 5, 6], [{_TARGET_EXPR}], progress=die_at_second_point, runner=runner
)
"""


def _target() -> Target:
    return Target.from_names(
        "Corral1,1", "siswap", scale="small", name="Corral1,1-siswap"
    )


@pytest.fixture
def killed_cache(tmp_path) -> Path:
    """A cache directory left by a sweep SIGKILLed at its second point."""
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=_SRC)
    for name in ("REPRO_CACHE_DIR", "REPRO_FAULT_PLAN"):
        env.pop(name, None)
    process = subprocess.run(
        [sys.executable, "-c", _KILL_SCRIPT.format(cache_dir=str(cache_dir))],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert process.returncode == -signal.SIGKILL, process.stderr
    return cache_dir


class TestSigkillResume:
    def test_killed_sweep_leaves_its_first_chunk(self, killed_cache):
        assert segment_stats(killed_cache).live_records == 1

    def test_rerun_computes_only_the_missing_points(self, killed_cache):
        cache = PersistentResultCache(killed_cache)
        try:
            runner = ExperimentRunner(parallel=False, result_cache=cache)
            result = run_sweep(["GHZ"], [4, 5, 6], [_target()], runner=runner)
            stats = cache.stats()
        finally:
            cache.close()
        assert (stats.disk_hits, stats.computed) == (1, 2)
        direct = run_sweep(["GHZ"], [4, 5, 6], [_target()])
        assert [r.as_dict() for r in result.records] == [
            r.as_dict() for r in direct.records
        ]

    def test_cli_rerun_after_kill(self, killed_cache, capsys):
        argv = ["sweep", "--workloads", "GHZ", "--sizes", "4", "5", "6"]
        argv += ["--topologies", "Corral1,1", "--seed", "0", "--cache-dir", str(killed_cache)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "1 disk hits, 2 transpiled" in captured.err
        assert "sweep complete: 3 points" in captured.out


def _cached_sweep(cache_dir, sizes, progress=None):
    """``run_sweep`` of GHZ at ``sizes`` on a serial runner caching in ``cache_dir``."""
    cache = PersistentResultCache(cache_dir)
    try:
        runner = ExperimentRunner(parallel=False, result_cache=cache)
        result = run_sweep(["GHZ"], sizes, [_target()], progress=progress, runner=runner)
    finally:
        cache.close()
    return result, cache.stats()


def _same_records(result, sizes) -> bool:
    direct = run_sweep(["GHZ"], sizes, [_target()])
    return [r.as_dict() for r in result.records] == [r.as_dict() for r in direct.records]


class TestRerunOnTheSameCache:
    def test_interrupted_sweep_keeps_its_finished_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SWEEP_CHUNK_POINTS", 1)
        announced = []

        def interrupt_at_second_point(label):
            announced.append(label)
            if len(announced) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _cached_sweep(tmp_path, [4, 5, 6], progress=interrupt_at_second_point)
        assert segment_stats(tmp_path).live_records == 1
        result, stats = _cached_sweep(tmp_path, [4, 5, 6])
        assert (stats.disk_hits, stats.computed) == (1, 2)
        assert _same_records(result, [4, 5, 6])

    def test_finished_sweep_reruns_without_compiling(self, tmp_path):
        _cached_sweep(tmp_path, [4, 5, 6])
        announced = []
        result, stats = _cached_sweep(tmp_path, [4, 5, 6], progress=announced.append)
        assert (stats.disk_hits, stats.computed) == (3, 0)
        assert announced == []  # cache hits are not announced
        assert _same_records(result, [4, 5, 6])

    def test_grown_grid_computes_only_its_new_points(self, tmp_path):
        _cached_sweep(tmp_path, [4, 5])
        announced = []
        result, stats = _cached_sweep(tmp_path, [4, 5, 6], progress=announced.append)
        assert (stats.disk_hits, stats.computed) == (2, 1)
        assert announced == ["GHZ-6 on Corral1,1-siswap"]
        assert _same_records(result, [4, 5, 6])
