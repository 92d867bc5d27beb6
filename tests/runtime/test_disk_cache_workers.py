"""Runners sharing one disk-backed result cache directory.

The runner's parent process owns the cache: it looks every keyed task up
(memory, then disk) before dispatch and stores each computed value, while
pool workers only compute.  These tests pin that one path on serial and
parallel runners alike: a warm rerun over the same directory computes
nothing, concurrent writers (separate processes, each with its own
segment) never corrupt or lose records, and the parent's
:class:`~repro.linalg.cache.CacheStats` stays internally consistent
(``hits + misses`` lookups, ``computed == misses - disk_hits``).

The parallel tests tolerate sandboxes without process pools: the
runner's serial twin returns the same values, so every assertion below
holds either way (a RuntimeWarning marks the fallback).
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

from repro.linalg.cache import CacheStats
from repro.runtime import ExperimentRunner, PersistentResultCache


def _weigh(token: str, repeats: int):
    """Cheap deterministic task: value depends only on the arguments."""
    return {"token": token, "weight": sum(ord(ch) for ch in token) * repeats}


def _run_hammer(cache_dir, tasks, keys, max_workers=4):
    runner = ExperimentRunner(
        parallel=max_workers > 1,
        max_workers=max_workers,
        result_cache=PersistentResultCache(cache_dir),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with runner:
            results = runner.map(_weigh, tasks, keys=keys)
    return results, runner.result_cache


class TestWorkerSharedCache:
    def _grid(self, copies):
        """``copies`` interleaved repetitions of 8 unique points."""
        unique = [(f"point-{i}", i + 1) for i in range(8)]
        tasks = unique * copies
        keys = [("weigh", token, repeats) for token, repeats in tasks]
        return tasks, keys, unique

    def test_concurrent_writers_no_lost_or_corrupt_records(self, tmp_path):
        tasks, keys, unique = self._grid(copies=3)
        results, cache = _run_hammer(tmp_path, tasks, keys)
        assert results == [_weigh(*task) for task in tasks]
        # No lost writes: every unique point has a record file on disk.
        assert cache.disk_entries() == len(unique)
        # No corrupt records: a fresh instance (a "new process") reads all.
        fresh = PersistentResultCache(tmp_path)
        for key, task in zip(keys[: len(unique)], tasks[: len(unique)]):
            assert fresh.get(key) == _weigh(*task)

    def test_cache_stats_sum_consistently(self, tmp_path):
        tasks, keys, unique = self._grid(copies=3)
        _, cache = _run_hammer(tmp_path, tasks, keys)
        stats = cache.stats()
        # A key repeated within one map is looked up once.
        assert stats.hits + stats.misses == len(unique)
        assert stats.computed == stats.misses - stats.disk_hits
        assert stats.hits + stats.disk_hits + stats.computed == len(unique)
        assert stats.computed >= 1  # somebody did the cold work

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "2-workers"])
    def test_parallel_warm_rerun_computes_nothing(self, tmp_path, workers):
        tasks, keys, unique = self._grid(copies=1)
        points = len(unique)
        _, cold = _run_hammer(tmp_path, tasks, keys, max_workers=workers)
        # Serial or parallel, the parent looks every key up in both tiers
        # before dispatch: a cold run misses each point once per tier.
        assert cold.stats() == CacheStats(
            hits=0,
            misses=points,
            currsize=points,
            maxsize=8192,
            disk_hits=0,
            disk_misses=points,
            computed=points,
        )
        # A fresh runner over the same directory models a rerun: its memory
        # LRU starts empty, so every point must come off the shared disk
        # tier, not be recomputed.
        results, cache = _run_hammer(tmp_path, tasks, keys, max_workers=workers)
        assert results == [_weigh(*task) for task in tasks]
        assert cache.stats() == CacheStats(
            hits=0,
            misses=points,
            currsize=points,
            maxsize=8192,
            disk_hits=points,
            disk_misses=0,
        )

    def test_second_map_in_same_runner_hits_parent_memory(self, tmp_path):
        tasks, keys, _ = self._grid(copies=1)
        runner = ExperimentRunner(
            parallel=True,
            max_workers=4,
            result_cache=PersistentResultCache(tmp_path),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with runner:
                runner.map(_weigh, tasks, keys=keys)
                before = runner.result_cache.stats()
                runner.map(_weigh, tasks, keys=keys)
        after = runner.result_cache.stats()
        # The first map warmed the parent LRU (promotion of worker results),
        # so the repeat is pure memory hits: no new misses, nothing computed.
        assert after.hits == before.hits + len(tasks)
        assert after.misses == before.misses
        assert after.computed == before.computed

    def test_serial_runner_unchanged_by_sharing_machinery(self, tmp_path):
        """A serial runner must keep the PR-4 parent-side disk behaviour."""
        tasks, keys, unique = self._grid(copies=1)
        runner = ExperimentRunner(
            parallel=False, result_cache=PersistentResultCache(tmp_path)
        )
        first = runner.map(_weigh, tasks, keys=keys)
        rerun_cache = PersistentResultCache(tmp_path)
        rerun = ExperimentRunner(parallel=False, result_cache=rerun_cache)
        assert rerun.map(_weigh, tasks, keys=keys) == first
        stats = rerun_cache.stats()
        assert stats.computed == 0
        assert stats.disk_hits == len(unique)


def _append_records(cache_dir: str, worker_id: int, count: int, barrier) -> None:
    """One writer process: append ``count`` records through its own handle."""
    cache = PersistentResultCache(cache_dir, segment_max_bytes=4096)
    barrier.wait()  # maximize overlap between the writers
    for index in range(count):
        cache.put(("stress", worker_id, index), {"worker": worker_id, "index": index})
    cache.close()


class TestConcurrentSegmentAppend:
    """Many processes appending packed segments to one directory at once."""

    WRITERS = 4
    RECORDS = 25

    def _hammer(self, tmp_path):
        context = multiprocessing.get_context()
        barrier = context.Barrier(self.WRITERS)
        processes = [
            context.Process(
                target=_append_records,
                args=(str(tmp_path), worker_id, self.RECORDS, barrier),
            )
            for worker_id in range(self.WRITERS)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0

    def test_no_lost_or_corrupt_records_across_processes(self, tmp_path):
        self._hammer(tmp_path)
        reader = PersistentResultCache(tmp_path)
        for worker_id in range(self.WRITERS):
            for index in range(self.RECORDS):
                assert reader.get(("stress", worker_id, index)) == (
                    {"worker": worker_id, "index": index}
                )
        assert reader.disk_entries() == self.WRITERS * self.RECORDS

    def test_compaction_after_the_stampede_keeps_everything(self, tmp_path):
        self._hammer(tmp_path)
        cache = PersistentResultCache(tmp_path)
        report = cache.gc(compact=True)
        assert report.kept == self.WRITERS * self.RECORDS
        fresh = PersistentResultCache(tmp_path)
        for worker_id in range(self.WRITERS):
            for index in range(self.RECORDS):
                assert fresh.get(("stress", worker_id, index)) is not None
