"""Benchmark: million-point sweep machinery, exercised at 50k-point scale.

Four claims from the scaling work are pinned here:

* **Packed segments** — a ~50k-point sweep lands its cache records in at
  most a few dozen segment files (not 50k inodes);
* **Warm reruns** — replaying the sweep against the warm directory is at
  least 5x faster than the cold compute, with zero recomputation;
* **Persistent pool workers** — a second ``map`` on a live runner is
  faster than the same ``map`` on a freshly spawned pool;
* **Kill-and-resume** — a sweep interrupted after its first chunk
  resumes from its result cache by recomputing exactly the missing
  points, and the final ``SweepResult`` is record-identical to an
  uninterrupted run.

The scale legs use a cheap synthetic task (~100 µs) through the real
``ExperimentRunner`` + ``PersistentResultCache`` path, so the numbers
measure the runtime machinery rather than 50k transpilations.  The
resume leg interrupts deterministically via an exception; the real
SIGKILL variant lives in ``tests/runtime/test_crash_recovery.py``.
"""

from __future__ import annotations

import time
import warnings

import pytest

from repro.core import pipeline
from repro.core.pipeline import run_sweep
from repro.runtime import ExperimentRunner, PersistentResultCache
from repro.transpiler.target import Target

N_POINTS = 50_000


def _work(index: int):
    """Synthetic sweep point: ~100 µs of compute, deterministic result."""
    return {"index": index, "weight": sum(i * i for i in range(2000)) + index}


def _grid():
    tasks = [(index,) for index in range(N_POINTS)]
    keys = [("scale-point", index) for index in range(N_POINTS)]
    return tasks, keys


def test_bench_packed_segments_and_warm_rerun(benchmark, emit, tmp_path):
    tasks, keys = _grid()

    cold_cache = PersistentResultCache(tmp_path)
    cold_runner = ExperimentRunner(parallel=False, result_cache=cold_cache)
    start = time.perf_counter()
    cold = cold_runner.map(_work, tasks, keys=keys)
    cold_seconds = time.perf_counter() - start
    cold_cache.close()

    segments = sorted(tmp_path.glob("seg-*.rps"))
    total_files = [path for path in tmp_path.iterdir() if path.is_file()]
    # O(1) file count: a few dozen segments at most, never one per record.
    assert 1 <= len(segments) <= 36
    assert sorted(total_files) == segments  # a segment is its own index

    warm_cache = PersistentResultCache(tmp_path)
    warm_runner = ExperimentRunner(parallel=False, result_cache=warm_cache)
    start = time.perf_counter()
    warm = warm_runner.map(_work, tasks, keys=keys)
    warm_seconds = time.perf_counter() - start
    benchmark.pedantic(
        warm_runner.map, args=(_work, tasks), kwargs={"keys": keys},
        rounds=1, iterations=1,
    )

    assert warm == cold
    stats = warm_cache.stats()
    assert stats.computed == 0  # the warm pass recomputes nothing
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    emit(
        benchmark,
        f"{N_POINTS}-point sweep on packed segments",
        {
            "points": N_POINTS,
            "segment_files": len(segments),
            "files_total": len(total_files),
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "warm_speedup": round(speedup, 1),
        },
    )
    # The acceptance bar: a warm rerun beats the cold sweep by >= 5x.
    assert speedup >= 5.0


def test_bench_persistent_pool_second_map(benchmark, emit):
    tasks = [(index,) for index in range(256)]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        live = ExperimentRunner(parallel=True, max_workers=2, result_cache=None)
        with live:
            live.map(_work, tasks)  # pays the pool spawn
            pool_survived = live.pool_alive
            start = time.perf_counter()
            second = live.map(_work, tasks)
            live_seconds = time.perf_counter() - start

        start = time.perf_counter()
        fresh = ExperimentRunner(parallel=True, max_workers=2, result_cache=None)
        with fresh:
            first = fresh.map(_work, tasks)
        fresh_seconds = time.perf_counter() - start
        benchmark.pedantic(
            lambda: ExperimentRunner(parallel=True, max_workers=2).map(_work, tasks),
            rounds=1, iterations=1,
        )

    assert second == first
    emit(
        benchmark,
        "Second map on a live pool vs a fresh pool",
        {
            "tasks": len(tasks),
            "live_pool_seconds": round(live_seconds, 4),
            "fresh_pool_seconds": round(fresh_seconds, 4),
            "pool_survived_between_maps": pool_survived,
            "speedup": round(fresh_seconds / max(live_seconds, 1e-9), 2),
        },
    )
    if pool_survived:
        # Keeping workers alive must beat paying the spawn again.
        assert live_seconds < fresh_seconds


class _Interrupted(Exception):
    pass


def test_bench_kill_and_resume(benchmark, emit, monkeypatch, tmp_path):
    target = Target.from_names(
        "Corral1,1", "siswap", scale="small", name="Corral1,1-siswap"
    )
    monkeypatch.setattr(pipeline, "SWEEP_CHUNK_POINTS", 1)
    announced = []

    def die_at_second_point(label):
        # Announced before the point compiles: only the first chunk is stored.
        announced.append(label)
        if len(announced) == 2:
            raise _Interrupted

    def cached_sweep(progress=None):
        cache = PersistentResultCache(tmp_path)
        try:
            runner = ExperimentRunner(parallel=False, result_cache=cache)
            result = run_sweep(["GHZ"], [4, 5, 6], [target], progress=progress, runner=runner)
            return result, cache.stats()
        finally:
            cache.close()

    start = time.perf_counter()
    with pytest.raises(_Interrupted):
        cached_sweep(die_at_second_point)
    interrupted_seconds = time.perf_counter() - start

    start = time.perf_counter()
    resumed, stats = cached_sweep()
    resume_seconds = time.perf_counter() - start
    benchmark.pedantic(cached_sweep, rounds=1, iterations=1)

    # Only the points the "crash" lost are recomputed...
    assert (stats.disk_hits, stats.computed) == (1, 2)
    # ...and the result is record-identical to an uninterrupted sweep.
    direct = run_sweep(["GHZ"], [4, 5, 6], [target])
    assert [r.as_dict() for r in resumed.records] == [
        r.as_dict() for r in direct.records
    ]
    emit(
        benchmark,
        "Kill-and-resume on a 3-chunk sweep",
        {
            "interrupted_seconds": round(interrupted_seconds, 3),
            "resume_seconds": round(resume_seconds, 3),
            "disk_hits": stats.disk_hits,
            "computed": stats.computed,
        },
    )
