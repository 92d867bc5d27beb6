"""Disk-backed result cache: round-trip, cross-instance reuse, corruption."""

from __future__ import annotations

import pickle
import zlib

import pytest

from repro.core.pipeline import run_point
from repro.runtime import (
    CACHE_DIR_ENV,
    PersistentResultCache,
    cache_dir_from_env,
    key_digest,
    resolve_result_cache,
    ResultCache,
    verify_cache,
)
from repro.runtime.cache import point_cache_key
from repro.topology.registry import small_topologies
from repro.transpiler.target import make_target


@pytest.fixture
def target():
    return make_target(small_topologies()["Corral1,1"], "siswap", name="Corral1,1-siswap")


@pytest.fixture
def record(target):
    return run_point("GHZ", 5, target, seed=1)


class TestPersistentResultCache:
    def test_round_trip_same_instance(self, tmp_path, record):
        cache = PersistentResultCache(tmp_path)
        cache.put("key", record)
        cached = cache.get("key")
        assert cached is not record
        assert cached.as_dict() == record.as_dict()

    def test_second_instance_reads_from_disk(self, tmp_path, record):
        PersistentResultCache(tmp_path).put("key", record)
        fresh = PersistentResultCache(tmp_path)  # simulates a new process
        cached = fresh.get("key")
        assert cached is not None
        assert cached.as_dict() == record.as_dict()
        stats = fresh.stats()
        assert stats.disk_hits == 1
        assert stats.computed == 0

    def test_disk_hit_promotes_into_memory(self, tmp_path, record):
        PersistentResultCache(tmp_path).put("key", record)
        fresh = PersistentResultCache(tmp_path)
        fresh.get("key")
        assert fresh.get("key") is not None
        stats = fresh.stats()
        assert stats.hits == 1  # second lookup served by the LRU
        assert stats.disk_hits == 1

    def test_missing_key_counts_disk_miss(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        assert cache.get("absent") is None
        stats = cache.stats()
        assert stats.disk_misses == 1
        assert stats.hit_rate == 0.0

    def test_truncated_segment_tail_is_a_miss_not_a_crash(self, tmp_path, record):
        cache = PersistentResultCache(tmp_path)
        cache.put("key", record)
        (path,) = tmp_path.glob("seg-*.rps")
        path.write_bytes(path.read_bytes()[:-7])  # a killed writer's torn frame
        fresh = PersistentResultCache(tmp_path)
        assert fresh.get("key") is None
        # Compaction physically heals the torn tail (drops the segment).
        fresh.gc(compact=True)
        assert not path.exists()

    def test_garbage_segment_is_a_miss(self, tmp_path, record):
        cache = PersistentResultCache(tmp_path)
        cache.put("key", record)
        (path,) = tmp_path.glob("seg-*.rps")
        path.write_bytes(b"not a cache segment at all")
        assert PersistentResultCache(tmp_path).get("key") is None

    def test_valid_frame_corrupt_payload_is_a_miss(self, tmp_path, record):
        cache = PersistentResultCache(tmp_path)
        cache.put("key", record)
        (path,) = tmp_path.glob("seg-*.rps")
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # flip a payload byte; the frame CRC must reject it
        path.write_bytes(bytes(blob))
        assert PersistentResultCache(tmp_path).get("key") is None

    def test_unpicklable_record_degrades_to_memory_only(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        cache.put("key", lambda: None)  # lambdas cannot pickle
        assert cache.disk_entries() == 0
        assert cache.get("key") is not None  # the LRU still serves it

    def test_clear_removes_disk_records(self, tmp_path, record):
        cache = PersistentResultCache(tmp_path)
        cache.put("key", record)
        assert cache.disk_entries() == 1
        cache.clear()
        assert cache.disk_entries() == 0
        assert PersistentResultCache(tmp_path).get("key") is None

    def test_point_keys_digest_identically_across_processes(self, target):
        key = point_cache_key("GHZ", 5, target, 1, "dense", "sabre")
        assert key_digest(key) == key_digest(
            point_cache_key("GHZ", 5, target, 1, "dense", "sabre")
        )
        assert key_digest(key) != key_digest(
            point_cache_key("GHZ", 6, target, 1, "dense", "sabre")
        )

    def test_segment_format_is_framed_compressed_pickle(self, tmp_path, record):
        from repro.runtime.disk_cache import _FRAME, SEGMENT_MAGIC

        PersistentResultCache(tmp_path).put("key", record)
        (path,) = tmp_path.glob("seg-*.rps")
        blob = path.read_bytes()
        assert blob.startswith(SEGMENT_MAGIC)
        magic, digest, _mtime, length, crc = _FRAME.unpack_from(
            blob, len(SEGMENT_MAGIC)
        )
        assert magic == b"RF"
        assert digest.hex() == key_digest("key")
        payload = blob[len(SEGMENT_MAGIC) + _FRAME.size :]
        assert len(payload) == length
        assert zlib.crc32(payload) == crc
        restored = pickle.loads(zlib.decompress(payload))
        assert restored.as_dict() == record.as_dict()

    def test_many_records_share_one_segment_file(self, tmp_path, record):
        cache = PersistentResultCache(tmp_path)
        for index in range(50):
            cache.put(("key", index), record)
        assert len(list(tmp_path.glob("seg-*.rps"))) == 1
        assert cache.disk_entries() == 50

    def test_segments_rotate_at_the_size_bound(self, tmp_path, record):
        cache = PersistentResultCache(tmp_path, segment_max_bytes=4096)
        for index in range(50):
            cache.put(("key", index), record)
        segments = list(tmp_path.glob("seg-*.rps"))
        assert len(segments) > 1
        fresh = PersistentResultCache(tmp_path)
        assert fresh.disk_entries() == 50
        assert fresh.get(("key", 17)) is not None

    def test_close_writes_no_index_file(self, tmp_path, record):
        """A segment is its own index: closing it leaves the segment alone."""
        cache = PersistentResultCache(tmp_path)
        cache.put("key", record)
        cache.close()
        assert [path.suffix for path in tmp_path.iterdir()] == [".rps"]  # no .rpi
        assert PersistentResultCache(tmp_path).get("key") is not None

    def test_legacy_record_files_are_ignored(self, tmp_path, record):
        """The retired one-file-per-record format is a foreign file: a miss."""
        import struct

        payload = zlib.compress(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        legacy = tmp_path / f"{key_digest('key')}.rpc"
        legacy.write_bytes(b"RPRC1\n" + struct.pack(">Q", len(payload)) + payload)
        fresh = PersistentResultCache(tmp_path)
        assert fresh.get("key") is None
        assert fresh.stats().disk_misses == 1
        assert fresh.disk_entries() == 0
        assert verify_cache(tmp_path).clean
        assert legacy.exists()


class TestResolveResultCache:
    def test_no_cache_wins(self, tmp_path):
        assert resolve_result_cache(cache_dir=tmp_path, no_cache=True) is None

    def test_explicit_dir_builds_persistent_cache(self, tmp_path):
        cache = resolve_result_cache(cache_dir=tmp_path)
        assert isinstance(cache, PersistentResultCache)
        assert cache.cache_dir == tmp_path

    def test_env_dir_builds_persistent_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert cache_dir_from_env() == str(tmp_path)
        cache = resolve_result_cache()
        assert isinstance(cache, PersistentResultCache)

    def test_default_is_memory_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        cache = resolve_result_cache()
        assert isinstance(cache, ResultCache)
        assert not isinstance(cache, PersistentResultCache)


class TestCliIntegration:
    def test_second_cli_invocation_transpiles_nothing(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["headline", "--sizes", "4", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "transpiled" in cold.err
        assert "0 disk hits" in cold.err

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out
        assert " 0 transpiled" in warm.err

    def test_repeated_size_is_transpiled_and_stored_once(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["swaps", "--sizes", "8", "8", "--workloads", "GHZ", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        # GHZ-8 on the six small design points: six distinct points.
        assert "0 disk hits, 6 transpiled" in capsys.readouterr().err
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        info = capsys.readouterr().out
        assert "live records: 6 " in info
        assert "dead bytes: 0 B" in info
