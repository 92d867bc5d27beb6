"""Tests for ``verify_cache`` and the ``repro cache verify`` command.

The verifier is the offline half of the cache's integrity story (the
online half being CRC checks at read time): it re-parses every segment
from byte zero, recomputes every payload CRC, and — with
``repair=True`` — rewrites damaged segments keeping only the valid
frames.
"""

from __future__ import annotations

import pickle
import zlib

import pytest

from repro.cli import main
from repro.runtime.disk_cache import (
    _FRAME,
    SEGMENT_MAGIC,
    PersistentResultCache,
    collect_garbage,
    segment_stats,
    verify_cache,
)
from repro.runtime.faults import write_corrupt_frame


@pytest.fixture
def populated(tmp_path):
    """A cache directory holding five healthy records."""
    cache = PersistentResultCache(tmp_path)
    for index in range(5):
        cache.put(("point", index), {"value": index * 10})
    cache.close()
    return tmp_path


class TestVerifyCache:
    def test_clean_cache_reports_clean(self, populated):
        report = verify_cache(populated)
        assert report.clean
        assert report.frames_ok == 5
        assert report.frames_corrupt == 0
        assert "verdict: clean" in report.describe()

    def test_corrupt_frame_is_detected(self, populated):
        write_corrupt_frame(populated, ("point", 99))
        report = verify_cache(populated)
        assert not report.clean
        assert report.frames_corrupt == 1
        assert report.frames_ok == 5
        assert "verdict: CORRUPT" in report.describe()

    def test_repair_drops_only_the_bad_frames(self, populated):
        write_corrupt_frame(populated, ("point", 99))
        report = verify_cache(populated, repair=True)
        assert report.dropped_frames == 1
        assert report.repaired_segments >= 1
        assert verify_cache(populated).clean
        fresh = PersistentResultCache(populated)
        for index in range(5):
            assert fresh.get(("point", index)) == {"value": index * 10}
        fresh.close()

    def test_torn_tail_is_detected_and_repaired(self, populated):
        segment = sorted(populated.glob("seg-*.rps"))[0]
        with open(segment, "ab") as handle:
            handle.write(b"\x00torn-tail-garbage")
        report = verify_cache(populated)
        assert not report.clean
        assert report.torn_segments == 1
        assert report.torn_bytes > 0
        verify_cache(populated, repair=True)
        assert verify_cache(populated).clean

    def test_sidecar_left_behind_by_2_0_loses_nothing(self, tmp_path):
        """A decodable ``.rpi`` listing another segment's frames is ignored.

        2.0 wrote a sidecar index (``RPIX1`` + zlib-compressed pickle of
        ``(digest, offset, length, mtime, crc)`` tuples) beside each closed
        segment; a stale one must neither hide records from ``cache info``
        and ``verify`` nor make GC drop them.
        """
        segments = []
        for batch in range(2):
            cache = PersistentResultCache(tmp_path)
            for index in range(3):
                cache.put(("point", batch, index), {"value": 10 * batch + index})
            cache.close()
            (new,) = set(tmp_path.glob("seg-*.rps")) - set(segments)
            segments.append(new)
        entries = []
        blob = segments[0].read_bytes()
        offset = len(SEGMENT_MAGIC)
        while offset < len(blob):
            _magic, digest, mtime, length, crc = _FRAME.unpack_from(blob, offset)
            entries.append((digest, offset + _FRAME.size, length, mtime, crc))
            offset += _FRAME.size + length
        assert len(entries) == 3
        segments[1].with_suffix(".rpi").write_bytes(
            b"RPIX1\n" + zlib.compress(pickle.dumps(entries))
        )
        assert segment_stats(tmp_path).live_records == 6
        assert verify_cache(tmp_path).clean
        collect_garbage(tmp_path, compact=True)
        fresh = PersistentResultCache(tmp_path)
        for batch in range(2):
            for index in range(3):
                assert fresh.get(("point", batch, index)) == {"value": 10 * batch + index}
        assert fresh.stats().disk_hits == 6
        fresh.close()

    def test_empty_directory_is_clean(self, tmp_path):
        report = verify_cache(tmp_path)
        assert report.clean
        assert report.segments == 0


class TestCacheVerifyCli:
    def test_clean_exits_zero(self, populated, capsys):
        assert main(["cache", "verify", "--cache-dir", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "verdict: clean" in out

    def test_corrupt_without_repair_exits_nonzero(self, populated, capsys):
        write_corrupt_frame(populated, ("point", 99))
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "verify", "--cache-dir", str(populated)])
        assert excinfo.value.code == 1
        # The report goes where a clean one goes, so `> out.txt` keeps it.
        captured = capsys.readouterr()
        assert "verdict: CORRUPT" in captured.out
        assert "run again with --repair" in captured.out
        assert captured.err == ""

    def test_repair_fixes_and_exits_zero(self, populated, capsys):
        write_corrupt_frame(populated, ("point", 99))
        code = main(["cache", "verify", "--cache-dir", str(populated), "--repair"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repaired" in out
        # The counters say what was found; the verdict says it was fixed.
        assert "1 corrupt" in out
        assert out.splitlines()[-1] == "verdict: repaired"
        assert verify_cache(populated).clean

    def test_missing_directory_is_a_noop(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["cache", "verify", "--cache-dir", str(missing)]) == 0
        assert "no cache directory" in capsys.readouterr().out
