"""Disk-backed result cache shared across processes and CLI invocations.

The in-process :class:`~repro.runtime.cache.ResultCache` dies with its
process, so every fresh CLI run or server re-transpiles sweep points an
earlier run already paid for.
:class:`PersistentResultCache` keeps the memory LRU in front and adds a
packed, content-addressed store behind it:

* **keys** are digested with SHA-256 over their canonical ``repr`` — the
  same point/batch cache keys used in memory are stable across processes
  (they are tuples of primitives and hex digests, never ``id``/``hash``);
* **records** are appended to *packed segment files* (many records per
  file) as CRC-guarded frames of ``zlib``-compressed pickle, so a
  million-point sweep costs a few dozen inodes, not a million; every
  writer owns its own append-only segment, which makes concurrent
  writers safe without locks, and one private writer creates every
  segment (the cache's own, GC and repair output, injected faults);
* **the index** maps key digests to the newest frame of each key: a
  segment is its own index, so a reader learns a segment's frames by
  scanning it, and only the bytes appended since its last look; when
  several frames hold one key, the greatest ``(mtime, segment name,
  offset)`` serves it, for every reader and for GC alike;
* **corruption tolerance**: a torn frame at a segment tail (crashed or
  killed writer) or a foreign file is treated as a miss, never an error
  — a crash mid-write costs at most one record, and
  :func:`collect_garbage` physically truncates corrupt tails during
  compaction so the damage does not survive maintenance.

``REPRO_CACHE_DIR`` (or the CLI's ``--cache-dir``) selects the directory;
:func:`resolve_result_cache` is the single decision point the CLI and the
``repro serve`` server funnel through.  An explicit ``--cache-dir``
always wins over ``REPRO_CACHE_DIR``, and ``--no-cache`` over everything.
``REPRO_CACHE_MAX_BYTES`` bounds the directory a resolved cache opens;
library code passes ``max_bytes`` to :class:`PersistentResultCache` or
:func:`collect_garbage` itself (see ``docs/architecture.md`` for the
precedence table and the on-disk format reference).

Sharing a directory
-------------------

One cache directory may be shared by many processes at once — CLI runs,
``repro serve`` servers, separate sweeps: each
:class:`PersistentResultCache` appends to its own segment and discovers
the others' records through incremental tail scans.  Within one
experiment runner only the parent process opens the cache; its pool
workers only compute (see :mod:`repro.runtime.runner`).
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import time
import uuid
import warnings
import zlib
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import AbstractSet, Dict, Hashable, List, NamedTuple, Optional, Set, Tuple, Union

from repro.linalg.cache import CacheStats
from repro.runtime.cache import ResultCache

#: Environment variable selecting a default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the cache directory size (bytes); when a
#: persistent cache is resolved with this set, records are garbage
#: collected oldest-first down to the budget before the run starts.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Packed segment file magic + format version.  Bumping it invalidates
#: old segments safely (they simply read as misses).
SEGMENT_MAGIC = b"RPSG1\n"

#: Per-record frame header inside a segment: frame magic, raw SHA-256 key
#: digest, record mtime (epoch seconds), payload length, payload CRC-32.
_FRAME = struct.Struct(">2s32sdII")
_FRAME_MAGIC = b"RF"

#: Rotate the active segment once it grows past this many bytes.  Small
#: enough that compaction rewrites stay incremental, large enough that a
#: 50k-point sweep fits in a handful of segments.
DEFAULT_SEGMENT_MAX_BYTES = 8 * 1024 * 1024

_SEGMENT_SUFFIX = ".rps"


def cache_dir_from_env() -> Optional[str]:
    """The ``REPRO_CACHE_DIR`` directory, or ``None`` when unset/empty."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return value or None


def key_digest(key: Hashable) -> str:
    """Stable content digest of a cache key.

    Cache keys are tuples of primitives (strings, ints, ``None``, nested
    tuples, hex digests), whose ``repr`` is deterministic across processes
    and Python invocations — unlike the salted builtin ``hash``.
    """
    return sha256(repr(key).encode("utf-8")).hexdigest()


def max_bytes_from_env() -> Optional[int]:
    """The ``REPRO_CACHE_MAX_BYTES`` budget, or ``None`` when unset/invalid."""
    value = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
    if not value:
        return None
    try:
        budget: Optional[int] = int(value)
    except ValueError:
        budget = None
    if budget is None or budget < 0:
        warnings.warn(
            f"ignoring {CACHE_MAX_BYTES_ENV}={value!r}: not a non-negative integer",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return budget


def human_bytes(count: int) -> str:
    """``1234567`` → ``"1.2 MiB"`` (exact byte counts below one KiB)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{int(count)} B"  # pragma: no cover - unreachable


# -- segment scanning (module-level so GC and the cache share one parser) ------


class _Frame(NamedTuple):
    """Where one record frame's payload lives.

    Field order is the newest-frame rule: of two frames holding one key,
    the greater tuple — later ``mtime``, then later segment name, then
    later offset — serves it (see :func:`_fold`).
    """

    mtime: float  #: record write time (epoch seconds, from the frame)
    segment: str  #: name of the segment file holding the frame
    offset: int  #: payload offset inside the segment
    length: int  #: payload length in bytes
    crc: int  #: payload CRC-32 (validated lazily at read time)


def _fold(index: Dict[bytes, _Frame], digest: bytes, frame: _Frame) -> Optional[_Frame]:
    """Let the newest of ``frame`` and the indexed frame serve ``digest``.

    The one rule deciding which frame of a key is live: the directory
    inventory, a reader's refresh and a reader's own appends all fold
    through here, so the order segments are listed in never matters.
    Returns the frame that lost (``None`` for a key seen first).
    """
    current = index.get(digest)
    if current is None or frame > current:
        index[digest] = frame
        return current
    return frame


def _scan_segment(
    path: Union[str, Path], start: int, size: int
) -> Tuple[List[Tuple[bytes, _Frame]], int, bool]:
    """Parse record frames from ``start``, returning ``(frames, end, clean)``.

    ``frames`` pairs each raw key digest with its frame.  ``end`` is the
    offset of the first byte not covered by a complete, well-formed
    frame; ``clean`` is False when scanning stopped at a corrupt (rather
    than merely incomplete) frame — an incomplete tail may be a live
    writer mid-append and is retried on the next refresh, while a corrupt
    frame poisons the rest of the file until compaction truncates it.
    """
    name = os.path.basename(path)
    frames: List[Tuple[bytes, _Frame]] = []
    try:
        with open(path, "rb") as stream:
            if start == 0:
                if stream.read(len(SEGMENT_MAGIC)) != SEGMENT_MAGIC:
                    return [], 0, False
                start = len(SEGMENT_MAGIC)
            stream.seek(start)
            offset = start
            while offset + _FRAME.size <= size:
                header = stream.read(_FRAME.size)
                if len(header) < _FRAME.size:
                    break
                magic, digest, mtime, length, crc = _FRAME.unpack(header)
                if magic != _FRAME_MAGIC:
                    return frames, offset, False
                payload_end = offset + _FRAME.size + length
                if payload_end > size:
                    break  # torn tail: a crashed — or still-writing — writer
                frames.append(
                    (digest, _Frame(mtime, name, offset + _FRAME.size, length, crc))
                )
                stream.seek(payload_end)
                offset = payload_end
            return frames, offset, True
    except OSError:
        return frames, start, True


def _read_payload(stream, frame: _Frame) -> Optional[bytes]:
    """The stored payload of ``frame``, or ``None`` when it fails its CRC.

    The only code that reads a record's payload back; a short read (the
    segment was truncated or compacted away) counts as a failure.
    ``OSError`` propagates, so a caller never mistakes an unreadable file
    for a corrupt frame.
    """
    stream.seek(frame.offset)
    payload = stream.read(frame.length)
    if len(payload) != frame.length or zlib.crc32(payload) != frame.crc:
        return None
    return payload


def _segment_names(directory: Path) -> List[str]:
    """Every packed segment file name in the directory, sorted (none if unlistable)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        name for name in names if name.startswith("seg-") and name.endswith(_SEGMENT_SUFFIX)
    )


# -- directory inspection ------------------------------------------------------


class _SegmentScan(NamedTuple):
    """One segment as the directory inventory found it."""

    path: Path  #: the segment file
    size: int  #: file size when scanned
    frames: List[Tuple[bytes, _Frame]]  #: every well-formed frame, in file order
    end: int  #: offset of the first byte no well-formed frame covers
    clean: bool  #: False when the scan stopped at a corrupt frame


def _inventory(directory: Path) -> Tuple[Dict[bytes, _Frame], List[_SegmentScan], int]:
    """Scan every segment of a cache directory from byte zero.

    The one inventory behind ``cache info``, GC and ``cache verify``.
    Returns ``(live, segments, dead_bytes)``: ``live`` maps each key
    digest to its newest frame, ``segments`` lists every segment with its
    frames, and ``dead_bytes`` counts the frame bytes newer duplicates
    superseded.
    """
    live: Dict[bytes, _Frame] = {}
    segments: List[_SegmentScan] = []
    dead_bytes = 0
    for name in _segment_names(directory):
        path = directory / name
        try:
            size = os.stat(path).st_size
        except OSError:
            continue
        frames, end, clean = _scan_segment(path, 0, size)
        segments.append(_SegmentScan(path, size, frames, end, clean))
        for digest, frame in frames:
            superseded = _fold(live, digest, frame)
            if superseded is not None:
                dead_bytes += _FRAME.size + superseded.length
    return live, segments, dead_bytes


@dataclass(frozen=True)
class SegmentReport:
    """Segment-level statistics of one cache directory (``cache info``)."""

    segments: int  #: packed segment files present
    segment_bytes: int  #: total size of the segment files
    live_records: int  #: distinct keys served by the newest frames
    live_bytes: int  #: frame bytes of those newest records
    dead_bytes: int  #: frame bytes superseded by newer duplicates

    def describe(self) -> str:
        """Multi-line human-readable summary (the ``cache info`` body)."""
        lines = [
            f"segments: {self.segments} ({human_bytes(self.segment_bytes)})",
            f"live records: {self.live_records} ({human_bytes(self.live_bytes)})",
            f"dead bytes: {human_bytes(self.dead_bytes)}",
        ]
        return "\n".join(lines)


def segment_stats(cache_dir: Union[str, Path]) -> SegmentReport:
    """Read-only segment-level statistics of a cache directory."""
    live, segments, dead_bytes = _inventory(Path(cache_dir))
    return SegmentReport(
        segments=len(segments),
        segment_bytes=sum(segment.size for segment in segments),
        live_records=len(live),
        live_bytes=sum(_FRAME.size + frame.length for frame in live.values()),
        dead_bytes=dead_bytes,
    )


@dataclass(frozen=True)
class GCReport:
    """Outcome of one garbage-collection pass over a cache directory."""

    scanned: int  #: live records examined
    removed: int  #: records evicted by policy
    reclaimed_bytes: int  #: bytes of the evicted records
    kept: int  #: records surviving the pass
    kept_bytes: int  #: bytes of the surviving records
    protected: int  #: records exempted (written during the current run)
    segments_scanned: int = 0  #: segment files examined
    segments_removed: int = 0  #: segment files deleted (compaction inputs)
    segments_written: int = 0  #: fresh compacted segment files written
    dead_bytes: int = 0  #: superseded duplicate bytes found (reclaimed on compaction)

    def describe(self) -> str:
        """One human-readable status line (the CLI ``cache gc`` output)."""
        line = (
            f"removed {self.removed}/{self.scanned} records "
            f"({human_bytes(self.reclaimed_bytes)} reclaimed), "
            f"{self.kept} kept ({human_bytes(self.kept_bytes)})"
            + (f", {self.protected} protected" if self.protected else "")
        )
        if self.segments_removed or self.segments_written:
            line += (
                f"; compacted {self.segments_removed} segments into "
                f"{self.segments_written} ({human_bytes(self.dead_bytes)} dead)"
            )
        return line


class _SegmentWriter:
    """The one writer of segment files: appends CRC-framed records.

    Every segment it opens is a fresh ``<prefix>-<12 hex>.rps`` file:
    ``seg-<pid hex>`` for a cache's own appends, ``seg-gc`` for GC and
    repair output, ``seg-fault`` for injected faults.  Each frame is
    flushed as it is written, because other processes tail-scan a live
    segment.  The writer rotates to a fresh segment past ``max_bytes``.
    """

    def __init__(
        self, directory: Path, prefix: str, max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES
    ):
        self._directory = directory
        self._prefix = prefix
        self.max_bytes = max_bytes
        self.path: Optional[Path] = None  #: the open segment, if any
        self.written = 0  #: segments closed holding at least one frame
        self._stream: Optional[io.BufferedWriter] = None
        self._size = 0

    def append(self, digest: bytes, payload: bytes, mtime: float, crc: int) -> _Frame:
        """Write one frame, rotating at the size bound; returns the frame."""
        if self._stream is None or (
            self._size > len(SEGMENT_MAGIC)
            and self._size + _FRAME.size + len(payload) > self.max_bytes
        ):
            self.close()
            token = uuid.uuid4().hex[:12]
            path = self._directory / f"{self._prefix}-{token}{_SEGMENT_SUFFIX}"
            self._stream = open(path, "wb")
            self.path = path
            self._stream.write(SEGMENT_MAGIC)
            self._size = len(SEGMENT_MAGIC)
        self._stream.write(_FRAME.pack(_FRAME_MAGIC, digest, mtime, len(payload), crc))
        self._stream.write(payload)
        self._stream.flush()
        frame = _Frame(mtime, self.path.name, self._size + _FRAME.size, len(payload), crc)
        self._size += _FRAME.size + len(payload)
        return frame

    def close(self) -> None:
        """Close the open segment, deleting it if it holds no frame.

        The writer is reset before the file is touched, so after an
        ``OSError`` the next append starts a fresh segment.
        """
        stream, path = self._stream, self.path
        if stream is None:
            return
        self._stream, self.path = None, None
        stream.close()
        if self._size == len(SEGMENT_MAGIC):
            path.unlink()
            return
        self.written += 1


def _rewrite_segments(
    directory: Path,
    plan: List[Tuple[Path, List[Tuple[bytes, _Frame]]]],
    segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
) -> Tuple[int, int, int]:
    """Copy the listed frames of each segment into fresh ``seg-gc`` segments.

    The only code that copies frames.  ``plan`` pairs each source segment
    with the frames to keep from it; a frame whose payload fails its CRC
    is dropped (its key heals as a miss).  Each source segment is deleted
    once copied; one that cannot be read stays in place.  Returns
    ``(segments removed, segments written, frames dropped)``.
    """
    writer = _SegmentWriter(directory, "seg-gc", segment_max_bytes)
    removed = 0
    dropped = 0
    for segment, frames in plan:
        bad = 0
        try:
            with open(segment, "rb") as stream:
                for digest, frame in frames:
                    payload = _read_payload(stream, frame)
                    if payload is None:
                        bad += 1
                    else:
                        writer.append(digest, payload, frame.mtime, frame.crc)
        except OSError:
            continue
        try:
            segment.unlink()
        except OSError:
            pass
        removed += 1
        dropped += bad
    writer.close()
    return removed, writer.written, dropped


def collect_garbage(
    cache_dir: Union[str, Path],
    max_bytes: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    protected: AbstractSet[str] = frozenset(),
    compact: bool = False,
    segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
) -> GCReport:
    """Evict cache records by age and total size, oldest first.

    Eviction never errors a reader: a GC'd record simply reads as a miss
    and is recomputed.  ``protected`` names key digests (hex) that must
    survive regardless of policy — the persistent cache passes the
    records written during the current run.

    Records live inside packed segments, so evicting one means rewriting
    its segment's survivors into a fresh segment: segments touched by the
    policy are compacted automatically, and ``compact=True`` additionally
    merges every segment into fresh ones and truncates torn tails (the
    ``repro cache gc`` maintenance pass).  A directory that is already
    compact — intact segments of live frames, no two of which would fit
    in one ``segment_max_bytes`` segment — is left alone.

    GC assumes no concurrent *writers* share the directory (readers are
    fine — a compacted-away record heals as a miss).  Missing-directory
    and per-file ``OSError`` are tolerated silently.
    """
    directory = Path(cache_dir)
    now = time.time()

    live, segments, dead_bytes = _inventory(directory)
    # Deterministic eviction order: oldest first, digest breaks ties.
    entries = sorted(
        (frame.mtime, digest.hex(), _FRAME.size + frame.length)
        for digest, frame in live.items()
    )
    scanned = len(entries)
    protected_count = sum(1 for _, name, _ in entries if name in protected)
    total = sum(size for _, _, size in entries)
    evicted: Set[str] = set()
    removed = 0
    reclaimed = 0
    for mtime, name, size in entries:
        if name in protected:
            continue
        expired = max_age_seconds is not None and now - mtime > max_age_seconds
        oversize = max_bytes is not None and total > max_bytes
        if not (expired or oversize):
            continue
        evicted.add(name)
        removed += 1
        reclaimed += size
        total -= size

    # Rewrite every segment when compacting, otherwise only those with a
    # corrupt tail or an evicted or superseded frame (rewriting is the
    # only way to actually reclaim their bytes), keeping the live frames.
    # Segments that parse cleanly to their end, no two of which fit in one,
    # have nothing to merge.
    sizes = sorted(segment.size for segment in segments)
    if all(segment.clean and segment.end == segment.size for segment in segments) and (
        len(sizes) < 2 or sizes[0] + sizes[1] - len(SEGMENT_MAGIC) > segment_max_bytes
    ):
        compact = False
    plan: List[Tuple[Path, List[Tuple[bytes, _Frame]]]] = []
    for segment in segments:
        keep = [
            (digest, frame)
            for digest, frame in segment.frames
            if live[digest] is frame and digest.hex() not in evicted
        ]
        if compact or not segment.clean or len(keep) < len(segment.frames):
            plan.append((segment.path, keep))
    segments_removed, segments_written, _dropped = _rewrite_segments(
        directory, plan, segment_max_bytes
    )

    # Records whose segment was *not* rewritten survive in place; count
    # them plus everything the writer carried over.
    kept = scanned - removed
    kept_bytes = total
    return GCReport(
        scanned=scanned,
        removed=removed,
        reclaimed_bytes=reclaimed,
        kept=kept,
        kept_bytes=kept_bytes,
        protected=protected_count,
        segments_scanned=len(segments),
        segments_removed=segments_removed,
        segments_written=segments_written,
        dead_bytes=dead_bytes,
    )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an integrity scan over a cache directory (``cache verify``).

    ``clean`` is the verdict on the state found: True when every frame's
    CRC matches and every segment parses end to end.
    """

    segments: int  #: packed segment files scanned
    frames_ok: int  #: frames whose payload CRC validated
    frames_corrupt: int  #: frames whose payload failed its CRC
    torn_segments: int  #: segments with a torn or unparseable tail
    torn_bytes: int  #: bytes past the last well-formed frame
    repaired_segments: int = 0  #: damaged segments rewritten (``--repair``)
    dropped_frames: int = 0  #: corrupt frames dropped by the repair

    @property
    def clean(self) -> bool:
        """True when the scan found no corruption at all."""
        return not (self.frames_corrupt or self.torn_segments)

    def describe(self) -> str:
        """Human-readable summary (the CLI ``cache verify`` body).

        The counters describe what the scan found; the last line says
        ``clean``, ``repaired`` (a repair rewrote the damage) or
        ``CORRUPT``.
        """
        lines = [
            f"segments: {self.segments} ({self.frames_ok} frames ok, "
            f"{self.frames_corrupt} corrupt, {self.torn_segments} torn "
            f"tails / {human_bytes(self.torn_bytes)})",
        ]
        if self.repaired_segments or self.dropped_frames:
            lines.append(
                f"repaired: {self.repaired_segments} segments rewritten, "
                f"{self.dropped_frames} corrupt frames dropped"
            )
        if self.clean:
            verdict = "clean"
        elif self.repaired_segments:
            verdict = "repaired"
        else:
            verdict = "CORRUPT"
        lines.append("verdict: " + verdict)
        return "\n".join(lines)


def verify_cache(cache_dir: Union[str, Path], repair: bool = False) -> VerifyReport:
    """Validate every frame in a cache directory.

    Unlike the lazy read path (which drops a corrupt frame only when its
    key happens to be requested) this walks the whole directory: the
    inventory parses every segment from byte zero and every payload's
    CRC-32 is recomputed.  Without ``repair`` the scan is strictly
    read-only.  With ``repair=True`` every damaged segment (a corrupt
    frame or a torn tail) goes through the rewrite GC compaction uses,
    copying the frames this scan found into a fresh segment; corrupt
    frames and torn tails are dropped, and those records heal as cache
    misses.

    Like GC, repair assumes no concurrent writer shares the directory.
    The counters in the returned :class:`VerifyReport` always describe
    the state *found*, not the state after repair.
    """
    directory = Path(cache_dir)
    _live, segments, _dead_bytes = _inventory(directory)
    frames_ok = 0
    frames_corrupt = 0
    torn_segments = 0
    torn_bytes = 0
    damaged: List[Tuple[Path, List[Tuple[bytes, _Frame]]]] = []
    for segment in segments:
        try:
            with open(segment.path, "rb") as stream:
                ok = sum(_read_payload(stream, frame) is not None for _, frame in segment.frames)
        except OSError:
            continue
        frames_ok += ok
        frames_corrupt += len(segment.frames) - ok
        torn = segment.size - segment.end
        torn_tail = not segment.clean or torn > 0
        if torn_tail:
            torn_segments += 1
            torn_bytes += torn
        if ok < len(segment.frames) or torn_tail:
            damaged.append((segment.path, segment.frames))
    repaired_segments = 0
    dropped_frames = 0
    if repair and damaged:
        repaired_segments, _written, dropped_frames = _rewrite_segments(
            directory, damaged
        )
    return VerifyReport(
        segments=len(segments),
        frames_ok=frames_ok,
        frames_corrupt=frames_corrupt,
        torn_segments=torn_segments,
        torn_bytes=torn_bytes,
        repaired_segments=repaired_segments,
        dropped_frames=dropped_frames,
    )


class PersistentResultCache(ResultCache):
    """A :class:`ResultCache` whose records survive the process.

    Lookups try the in-memory LRU first, then the packed-segment index;
    disk hits are promoted into the LRU.  Writes append to this instance's
    own active segment, so concurrent processes never contend on a file.
    All disk failures degrade to cache misses — a read-only or full disk
    makes the cache slower, never wrong.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        maxsize: int = 8192,
        max_bytes: Optional[int] = None,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
    ):
        super().__init__(maxsize=maxsize)
        self._dir = Path(cache_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._max_bytes = max_bytes
        self._disk_hits = 0
        self._disk_misses = 0
        #: Key digests written by *this* instance — i.e. during the
        #: current run — which garbage collection must never evict.
        self._written: Set[str] = set()
        #: digest -> the newest frame of that key found so far
        self._index: Dict[bytes, _Frame] = {}
        #: segment name -> next scan offset, or ``None`` for a segment this
        #: instance wrote (indexed as written) or whose tail is poisoned
        self._scan_state: Dict[str, Optional[int]] = {}
        self._writer = _SegmentWriter(
            self._dir,
            f"seg-{os.getpid():x}",
            max(_FRAME.size + 1, int(segment_max_bytes)),
        )
        if max_bytes is not None:
            self.gc()
        self._refresh_index()

    @property
    def cache_dir(self) -> Path:
        """The backing directory."""
        return self._dir

    # -- segment index ---------------------------------------------------------

    def _refresh_index(self) -> None:
        """Fold newly appeared segment bytes/files into the in-memory index.

        Segments other writers made are scanned incrementally — only the
        bytes appended since the last refresh are parsed, so a refresh on
        a warm directory costs one ``stat`` per segment.  This instance's
        own segments are indexed as it writes them, and a segment whose
        tail is poisoned by a corrupt frame is never scanned again.
        """
        for name in _segment_names(self._dir):
            start = self._scan_state.get(name, 0)
            if start is None:
                continue
            path = os.path.join(self._dir, name)
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            if size <= start:
                continue
            frames, end, clean = _scan_segment(path, start, size)
            for digest, frame in frames:
                _fold(self._index, digest, frame)
            self._scan_state[name] = end if clean else None

    def _read_indexed(self, digest: bytes) -> Optional[bytes]:
        """The payload an index entry points at, or ``None`` (entry dropped)."""
        frame = self._index.get(digest)
        if frame is None:
            return None
        try:
            with open(self._dir / frame.segment, "rb") as stream:
                payload = _read_payload(stream, frame)
        except FileNotFoundError:
            # Another process's GC compacted the segment away and moved the
            # frames it kept into segments this index may rank below the
            # stale entries: forget everything, so the next refresh rebuilds.
            self._index.clear()
            self._scan_state.clear()
            return None
        except OSError:
            payload = None
        if payload is None:
            # Corrupt or unreadable: drop the entry so the slot heals.
            self._index.pop(digest, None)
        return payload

    # -- disk tier -------------------------------------------------------------

    def _lookup_payload(self, digest: bytes) -> Optional[bytes]:
        """Find a key's compressed payload across segments (refreshing once)."""
        payload = self._read_indexed(digest)
        if payload is not None:
            return payload
        self._refresh_index()
        return self._read_indexed(digest)

    def _append_record(self, digest_hex: str, record) -> None:
        """Append one frame through the writer (failures degrade silently)."""
        try:
            payload = zlib.compress(
                pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            )
            digest = bytes.fromhex(digest_hex)
            frame = self._writer.append(
                digest, payload, time.time(), zlib.crc32(payload)
            )
            # Indexed at write time, so a refresh never rescans the segment.
            self._scan_state[frame.segment] = None
            _fold(self._index, digest, frame)
            self._written.add(digest_hex)
        except Exception:
            # Unpicklable record, read-only directory, full disk, ...: the
            # memory tier still serves this entry; persistence is best-effort.
            pass

    def close(self) -> None:
        """Close the active segment file (a segment left open still reads)."""
        try:
            self._writer.close()
        except OSError:
            pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- cache protocol --------------------------------------------------------

    def get(self, key: Hashable) -> Optional[object]:
        """Memory first, then disk (promoting disk hits into the LRU)."""
        record = super().get(key)
        if record is not None:
            return record
        payload = self._lookup_payload(bytes.fromhex(key_digest(key)))
        record = None
        if payload is not None:
            try:
                record = pickle.loads(zlib.decompress(payload))
            except Exception:
                pass
        if record is None:
            self._disk_misses += 1
            return None
        self._disk_hits += 1
        self._lru.put(key, self._copy(record))
        return record

    def put(self, key: Hashable, record) -> None:
        """Store in the LRU and append to the active packed segment."""
        super().put(key, record)
        # pickling never mutates the record, so no defensive copy is needed
        # on the write path (the LRU already holds its own private copy).
        self._append_record(key_digest(key), record)

    def clear(self) -> None:
        """Drop the memory tier and every record in the directory."""
        super().clear()
        self._disk_hits = 0
        self._disk_misses = 0
        self.close()
        self._index.clear()
        self._scan_state.clear()
        for name in _segment_names(self._dir):
            try:
                os.unlink(self._dir / name)
            except OSError:
                pass

    def stats(self) -> CacheStats:
        """Memory counters plus the disk tier's hit/miss counters."""
        memory = super().stats()
        return CacheStats(
            hits=memory.hits,
            misses=memory.misses,
            currsize=memory.currsize,
            maxsize=memory.maxsize,
            disk_hits=self._disk_hits,
            disk_misses=self._disk_misses,
        )

    def disk_entries(self) -> int:
        """Number of distinct records currently on disk."""
        self._refresh_index()
        return len(self._index)

    # -- garbage collection ----------------------------------------------------

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        compact: bool = False,
    ) -> GCReport:
        """Evict old records by the instance (or overriding) budget, or by age.

        Records written during the current run (by this instance) are
        always kept — a sweep must never evict its own fresh results out
        from under a rerun.  Runs automatically at construction when a
        budget was configured, so long-lived cache directories stay
        bounded without a separate maintenance step.  The active segment
        is closed first so compaction never rewrites a file this instance
        is still appending to.
        """
        self.close()
        report = collect_garbage(
            self._dir,
            max_bytes=self._max_bytes if max_bytes is None else max_bytes,
            max_age_seconds=max_age_seconds,
            protected=frozenset(self._written),
            compact=compact,
            segment_max_bytes=self._writer.max_bytes,
        )
        # Compaction moved frames around: rebuild the index from scratch,
        # rescanning this instance's closed segments too.
        self._index.clear()
        self._scan_state.clear()
        self._refresh_index()
        return report


def resolve_result_cache(
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
) -> Optional[ResultCache]:
    """Build the result cache a runtime entry point should use.

    ``no_cache`` wins over everything; an explicit ``cache_dir`` (or the
    ``REPRO_CACHE_DIR`` environment default) selects the persistent cache;
    otherwise the plain in-process LRU is returned.  The
    ``REPRO_CACHE_MAX_BYTES`` budget bounds a long-lived cache directory:
    the persistent cache garbage-collects down to it on startup.
    """
    if no_cache:
        return None
    directory = cache_dir if cache_dir is not None else cache_dir_from_env()
    if directory is not None:
        return PersistentResultCache(directory, max_bytes=max_bytes_from_env())
    return ResultCache()
