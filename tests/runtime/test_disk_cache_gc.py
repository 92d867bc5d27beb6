"""Garbage collection of the disk-backed result cache.

Policies: ``max_age_seconds`` evicts expired records, ``max_bytes`` evicts
oldest-first down to the budget.  Two invariants matter more than the
policies themselves: records written during the *current run* are never
evicted out from under the sweep that produced them, and a GC'd record
degrades to a clean miss (recompute-and-heal), never an error.

Records live inside packed segment files and carry their write time in
the frame header, so tests age records by patching ``time.time`` around
the write, not by backdating files.
"""

from __future__ import annotations

import time
from unittest.mock import patch

import pytest

from repro.cli import main
from repro.runtime import (
    CACHE_MAX_BYTES_ENV,
    PersistentResultCache,
    collect_garbage,
    max_bytes_from_env,
    resolve_result_cache,
    segment_stats,
)


def _fill(cache_dir, keys, payload="x" * 200, age_seconds=0.0):
    """Write records through a throwaway instance (a *previous* run).

    ``age_seconds`` backdates the frame mtimes, simulating records written
    that long ago.
    """
    with patch("time.time", return_value=time.time() - age_seconds):
        cache = PersistentResultCache(cache_dir)
        for key in keys:
            cache.put(key, {"key": key, "payload": payload})
        cache.close()


class TestAgePolicy:
    def test_expired_records_removed_fresh_kept(self, tmp_path):
        _fill(tmp_path, ["old"], age_seconds=7200)
        _fill(tmp_path, ["new"])
        report = collect_garbage(tmp_path, max_age_seconds=3600)
        assert report.removed == 1
        fresh = PersistentResultCache(tmp_path)
        assert fresh.get("old") is None
        assert fresh.get("new") is not None

    def test_no_policy_removes_nothing(self, tmp_path):
        _fill(tmp_path, ["a", "b"])
        report = collect_garbage(tmp_path)
        assert report.removed == 0
        assert report.kept == 2
        assert report.kept_bytes > 0


class TestSizePolicy:
    def test_evicts_oldest_first_down_to_budget(self, tmp_path):
        for index, key in enumerate(("first", "second", "third")):
            _fill(tmp_path, [key], age_seconds=300 - 100 * index)
        stats = segment_stats(tmp_path)
        assert stats.live_records == 3
        # One byte under the total forces exactly one eviction — and the
        # eviction order must pick the oldest record.
        report = collect_garbage(tmp_path, max_bytes=stats.live_bytes - 1)
        assert report.removed == 1
        fresh = PersistentResultCache(tmp_path)
        assert fresh.get("first") is None  # oldest evicted
        assert fresh.get("second") is not None
        assert fresh.get("third") is not None

    def test_zero_budget_clears_unprotected_directory(self, tmp_path):
        _fill(tmp_path, ["a", "b", "c"])
        report = collect_garbage(tmp_path, max_bytes=0)
        assert report.removed == 3
        assert report.kept == 0
        assert list(tmp_path.glob("seg-*.rps")) == []

    def test_missing_directory_is_harmless(self, tmp_path):
        report = collect_garbage(tmp_path / "never-created", max_bytes=0)
        assert report.scanned == 0 and report.removed == 0


class TestCurrentRunProtection:
    def test_gc_never_evicts_records_written_this_run(self, tmp_path):
        _fill(tmp_path, ["stale-1", "stale-2"], age_seconds=7200)
        cache = PersistentResultCache(tmp_path)
        cache.put("fresh", {"payload": "y" * 500})
        report = cache.gc(max_bytes=0, max_age_seconds=1)
        assert report.protected == 1
        assert report.removed == 2
        assert cache.get("stale-1") is None
        assert PersistentResultCache(tmp_path).get("fresh") is not None

    def test_own_records_read_from_disk_after_gc(self, tmp_path):
        """``gc`` seals this instance's segment; its records stay indexed."""
        cache = PersistentResultCache(tmp_path, maxsize=1)
        keys = [("point", index) for index in range(3)]
        for index, key in enumerate(keys):
            cache.put(key, {"value": index})
        cache.gc()
        assert [cache.get(key) for key in keys] == [{"value": i} for i in range(3)]
        # The one-slot memory tier holds at most one of them.
        assert cache.stats().disk_hits >= 2

    def test_constructor_policy_runs_gc_before_any_write(self, tmp_path):
        _fill(tmp_path, ["stale-1", "stale-2", "stale-3"])
        cache = PersistentResultCache(tmp_path, max_bytes=0)
        assert cache.disk_entries() == 0
        # ... and the bound instance still works normally afterwards.
        cache.put("fresh", {"value": 1})
        assert cache.disk_entries() == 1

    def test_gcd_entry_is_a_miss_then_heals(self, tmp_path):
        writer = PersistentResultCache(tmp_path)
        writer.put("key", {"value": 41})
        writer.close()
        # A *different* run's GC may evict it (no protection across runs).
        collect_garbage(tmp_path, max_bytes=0)
        reader = PersistentResultCache(tmp_path)
        assert reader.get("key") is None  # clean miss, not an error
        stats = reader.stats()
        assert stats.disk_misses == 1
        reader.put("key", {"value": 42})  # recompute heals the slot
        assert PersistentResultCache(tmp_path).get("key") == {"value": 42}


class TestCompaction:
    def test_superseded_duplicates_are_dead_bytes_until_compaction(self, tmp_path):
        _fill(tmp_path, ["key"], payload="old" * 100, age_seconds=60)
        _fill(tmp_path, ["key"], payload="new" * 100)
        stats = segment_stats(tmp_path)
        assert stats.live_records == 1
        assert stats.dead_bytes > 0
        report = collect_garbage(tmp_path, compact=True)
        assert report.removed == 0
        assert report.segments_written >= 1
        after = segment_stats(tmp_path)
        assert after.dead_bytes == 0
        assert PersistentResultCache(tmp_path).get("key")["payload"] == "new" * 100

    def test_newest_frame_serves_every_reader(self, tmp_path):
        """A fresh reader, ``cache info`` and GC agree on which frame is live."""
        for trial in range(20):
            directory = tmp_path / str(trial)
            for value in (1, 2):
                cache = PersistentResultCache(directory)
                cache.put("k", value)
                cache.close()
            assert PersistentResultCache(directory).get("k") == 2
            stats = segment_stats(directory)
            assert stats.live_records == 1
            assert stats.dead_bytes > 0
            collect_garbage(directory, compact=True)
            assert PersistentResultCache(directory).get("k") == 2

    def test_long_lived_reader_survives_compactions_elsewhere(self, tmp_path):
        """Frames another process's GC moved are found again, not missed."""
        for trial in range(10):
            directory = tmp_path / str(trial)
            # Two writers, so the first compaction has segments to merge.
            _fill(directory, [("p", index) for index in range(3)])
            _fill(directory, [("p", index) for index in range(3, 5)])
            collect_garbage(directory, compact=True)
            reader = PersistentResultCache(directory)  # indexes the seg-gc output
            _fill(directory, ["other"])
            collect_garbage(directory, compact=True)  # ... which this pass deletes
            assert all(reader.get(("p", index)) is not None for index in range(5))
            assert reader.stats().disk_misses == 0

    def test_a_compact_directory_is_left_alone(self, tmp_path):
        for key in ("a", "b"):
            _fill(tmp_path, [key])
        collect_garbage(tmp_path, compact=True)
        (segment,) = tmp_path.glob("seg-*.rps")
        before = segment.read_bytes()
        report = collect_garbage(tmp_path, compact=True)
        assert (report.segments_removed, report.segments_written) == (0, 0)
        assert report.kept == 2
        assert "compacted" not in report.describe()
        assert list(tmp_path.glob("seg-*.rps")) == [segment]
        assert segment.read_bytes() == before

    def test_one_segment_with_a_superseded_frame_is_still_compacted(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        cache.put("k", 1)
        cache.put("k", 2)
        cache.close()
        report = collect_garbage(tmp_path, compact=True)
        assert (report.segments_removed, report.segments_written) == (1, 1)
        assert segment_stats(tmp_path).dead_bytes == 0
        assert PersistentResultCache(tmp_path).get("k") == 2

    def test_compaction_consolidates_many_segments(self, tmp_path):
        for key in ("a", "b", "c", "d"):
            _fill(tmp_path, [key])
        assert len(list(tmp_path.glob("seg-*.rps"))) == 4
        collect_garbage(tmp_path, compact=True)
        assert len(list(tmp_path.glob("seg-*.rps"))) == 1
        fresh = PersistentResultCache(tmp_path)
        assert all(fresh.get(key) is not None for key in ("a", "b", "c", "d"))


class TestResolutionAndEnv:
    def test_env_budget_applies_on_resolution(self, tmp_path, monkeypatch):
        _fill(tmp_path, ["a", "b"], age_seconds=60)
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "0")
        assert max_bytes_from_env() == 0
        cache = resolve_result_cache(cache_dir=tmp_path)
        assert cache.disk_entries() == 0

    @pytest.mark.parametrize("value", ["lots", "-5"])
    def test_invalid_env_budget_ignored_with_warning(self, monkeypatch, value):
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, value)
        with pytest.warns(RuntimeWarning, match="not a non-negative integer"):
            assert max_bytes_from_env() is None


class TestCliCacheCommands:
    def test_cache_gc_verb(self, tmp_path, capsys):
        _fill(tmp_path, ["a", "b"], age_seconds=7200)
        code = main(
            ["cache", "gc", "--cache-dir", str(tmp_path), "--max-age-hours", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 2/2 records" in out
        assert list(tmp_path.glob("seg-*.rps")) == []

    def test_cache_gc_zero_budget_empties_the_cache(self, tmp_path, capsys):
        _fill(tmp_path, ["a", "b"])
        assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--max-bytes", "0"]) == 0
        assert "removed 2/2 records" in capsys.readouterr().out
        assert PersistentResultCache(tmp_path).disk_entries() == 0

    def test_cache_gc_without_policy_compacts(self, tmp_path, capsys):
        for key in ("a", "b"):
            _fill(tmp_path, [key])
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "compacted 2 segments into 1" in out
        assert len(list(tmp_path.glob("seg-*.rps"))) == 1

    def test_cache_info_verb(self, tmp_path, capsys):
        _fill(tmp_path, ["a", "b", "c"])
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "live records: 3" in out
        assert "segments: 1" in out

    def test_cache_info_is_read_only(self, tmp_path):
        """Inspection must not unlink even hour-stale writer staging files."""
        _fill(tmp_path, ["a"])
        staging = tmp_path / "deadbeef0000.tmp"
        staging.write_bytes(b"slow writer's live staging file")
        before = sorted(path.name for path in tmp_path.iterdir())
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert staging.exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == before

    def test_cache_gc_requires_a_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--max-bytes", "0"])
