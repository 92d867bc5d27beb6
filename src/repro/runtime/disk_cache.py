"""Disk-backed result cache shared across processes and CLI invocations.

The in-process :class:`~repro.runtime.cache.ResultCache` dies with its
process, so every fresh CLI run and every cold worker pool re-transpiles
sweep points an earlier run already paid for.
:class:`PersistentResultCache` keeps the memory LRU in front and adds a
packed, content-addressed store behind it:

* **keys** are digested with SHA-256 over their canonical ``repr`` — the
  same point/batch cache keys used in memory are stable across processes
  (they are tuples of primitives and hex digests, never ``id``/``hash``);
* **records** are appended to *packed segment files* (many records per
  file) as CRC-guarded frames of ``zlib``-compressed pickle, so a
  million-point sweep costs a few dozen inodes, not a million; every
  writer owns its own append-only segment, which makes concurrent
  writers safe without locks;
* **the index** maps key digests to ``(segment, offset, length)``; sealed
  segments carry a compact sidecar index file that is loaded instead of
  re-scanned, and the open (unsealed) segments of other processes are
  scanned incrementally — only bytes appended since the last look;
* **corruption tolerance**: a torn frame at a segment tail (crashed or
  killed writer), a garbled sidecar or a foreign file are treated as
  misses, never errors — a crash mid-write costs at most one record, and
  :func:`collect_garbage` physically truncates corrupt tails during
  compaction so the damage does not survive maintenance.

``REPRO_CACHE_DIR`` (or the CLI's ``--cache-dir``) selects the directory;
:func:`resolve_result_cache` is the single decision point the CLI, the
``repro serve`` server and :func:`repro.transpiler.batch.transpile_batch`
funnel through.  An explicit ``--cache-dir`` always wins over
``REPRO_CACHE_DIR``, an explicit ``max_bytes`` over
``REPRO_CACHE_MAX_BYTES``, and ``--no-cache`` over everything (see
``docs/architecture.md`` for the precedence table and the on-disk format
reference).

Worker-pool sharing
-------------------

One cache directory may be shared by many processes at once: the
experiment runner's pool workers each open their own
:class:`PersistentResultCache` over the directory named by
:meth:`PersistentResultCache.worker_spec` and then consult/populate the
disk tier directly, reporting ``("computed"|"stored"|"shared"|"cached",
value)`` outcome tuples back to the parent (the full protocol is
documented in :mod:`repro.runtime.runner`).  Each worker appends to its
own segment and discovers the others' records through incremental tail
scans; GC policies deliberately do *not* propagate into workers —
eviction is the parent's job alone.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import tempfile
import time
import uuid
import warnings
import zlib
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import AbstractSet, Dict, Hashable, List, Optional, Set, Tuple, Union

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

#: Sidecar index file magic + format version.
INDEX_MAGIC = b"RPIX1\n"

#: Per-record frame header inside a segment: frame magic, raw SHA-256 key
#: digest, record mtime (epoch seconds), payload length, payload CRC-32.
_FRAME = struct.Struct(">2s32sdII")
_FRAME_MAGIC = b"RF"

#: Rotate the active segment once it grows past this many bytes.  Small
#: enough that compaction rewrites stay incremental, large enough that a
#: 50k-point sweep fits in a handful of segments.
DEFAULT_SEGMENT_MAX_BYTES = 8 * 1024 * 1024

_SEGMENT_SUFFIX = ".rps"
_SIDECAR_SUFFIX = ".rpi"


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
        budget = int(value)
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {CACHE_MAX_BYTES_ENV}={value!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return budget if budget >= 0 else None


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


@dataclass(frozen=True)
class _SegmentRecord:
    """One live-or-dead record frame found inside a segment file."""

    digest: bytes  #: raw SHA-256 key digest
    offset: int  #: payload offset inside the segment
    length: int  #: payload length in bytes
    mtime: float  #: record write time (epoch seconds, from the frame)
    crc: int  #: payload CRC-32 (validated lazily at read time)

    @property
    def frame_bytes(self) -> int:
        """Total on-disk footprint of the frame (header + payload)."""
        return _FRAME.size + self.length


def _scan_segment(
    path: Path, start: int, size: Optional[int] = None
) -> Tuple[List[_SegmentRecord], int, bool]:
    """Parse record frames from ``start``, returning ``(records, end, clean)``.

    ``end`` is the offset of the first byte not covered by a complete,
    well-formed frame; ``clean`` is False when scanning stopped at a
    corrupt (rather than merely incomplete) frame — an incomplete tail may
    be a live writer mid-append and is retried on the next refresh, while
    a corrupt frame poisons the rest of the file until compaction
    truncates it.
    """
    records: List[_SegmentRecord] = []
    try:
        if size is None:
            size = path.stat().st_size
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
                    return records, offset, False
                payload_end = offset + _FRAME.size + length
                if payload_end > size:
                    break  # torn tail: a crashed — or still-writing — writer
                records.append(
                    _SegmentRecord(
                        digest=digest,
                        offset=offset + _FRAME.size,
                        length=length,
                        mtime=mtime,
                        crc=crc,
                    )
                )
                stream.seek(payload_end)
                offset = payload_end
            return records, offset, True
    except OSError:
        return records, start, True


def _read_sidecar(path: Path) -> Optional[List[_SegmentRecord]]:
    """Decode one sidecar index file; any failure means "scan the segment"."""
    try:
        blob = path.read_bytes()
        if not blob.startswith(INDEX_MAGIC):
            return None
        entries = pickle.loads(zlib.decompress(blob[len(INDEX_MAGIC) :]))
        return [_SegmentRecord(*entry) for entry in entries]
    except Exception:
        return None


def _sidecar_blob(records: List[_SegmentRecord]) -> bytes:
    """Encode a segment's record list as a sidecar index blob."""
    entries = [
        (record.digest, record.offset, record.length, record.mtime, record.crc)
        for record in records
    ]
    return INDEX_MAGIC + zlib.compress(
        pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
    )


def _atomic_write(directory: Path, path: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``path`` via the temp-file + rename dance."""
    handle, temp_name = tempfile.mkstemp(dir=directory, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(blob)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _segment_paths(directory: Path) -> List[Path]:
    """Every packed segment file in the directory, sorted by name."""
    return sorted(directory.glob(f"seg-*{_SEGMENT_SUFFIX}"))


def _sidecar_for(segment: Path) -> Path:
    return segment.with_suffix(_SIDECAR_SUFFIX)


# -- directory inspection ------------------------------------------------------


@dataclass(frozen=True)
class SegmentReport:
    """Segment-level statistics of one cache directory (``cache info``)."""

    segments: int  #: packed segment files present
    sealed: int  #: segments with a sidecar index
    segment_bytes: int  #: total size of the segment files
    live_records: int  #: distinct keys served by the newest frames
    live_bytes: int  #: frame bytes of those newest records
    dead_bytes: int  #: frame bytes superseded by newer duplicates
    index_bytes: int  #: total size of the sidecar index files

    def describe(self) -> str:
        """Multi-line human-readable summary (the ``cache info`` body)."""
        lines = [
            f"segments: {self.segments} ({self.sealed} sealed, "
            f"{human_bytes(self.segment_bytes)})",
            f"live records: {self.live_records} ({human_bytes(self.live_bytes)})",
            f"dead bytes: {human_bytes(self.dead_bytes)}",
            f"index: {human_bytes(self.index_bytes)}",
        ]
        return "\n".join(lines)


def _scan_directory(directory: Path) -> Tuple[
    Dict[bytes, Tuple[_SegmentRecord, float, int]],
    List[Tuple[Path, List[_SegmentRecord], bool]],
    int,
]:
    """Inventory a cache directory for GC and statistics.

    Returns ``(live, segments, dead_bytes)`` where ``live`` maps each key
    digest to its newest frame as ``(record, mtime, bytes)``, ``segments``
    lists every segment with its parsed records and whether its tail was
    clean, and ``dead_bytes`` counts frame bytes superseded by newer
    duplicates of the same key.
    """
    live: Dict[bytes, Tuple[_SegmentRecord, float, int]] = {}
    dead_bytes = 0
    segments: List[Tuple[Path, List[_SegmentRecord], bool]] = []
    for segment in _segment_paths(directory):
        records = _read_sidecar(_sidecar_for(segment))
        clean = True
        if records is None:
            records, _, clean = _scan_segment(segment, 0)
        segments.append((segment, records, clean))
        for record in records:
            size = record.frame_bytes
            current = live.get(record.digest)
            if current is None:
                live[record.digest] = (record, record.mtime, size)
            elif record.mtime >= current[1]:
                dead_bytes += current[2]
                live[record.digest] = (record, record.mtime, size)
            else:
                dead_bytes += size
    return live, segments, dead_bytes


def segment_stats(cache_dir: Union[str, Path]) -> SegmentReport:
    """Read-only segment-level statistics of a cache directory."""
    directory = Path(cache_dir)
    live, segments, dead_bytes = _scan_directory(directory)
    segment_bytes = 0
    sealed = 0
    index_bytes = 0
    for segment, _records, _clean in segments:
        try:
            segment_bytes += segment.stat().st_size
        except OSError:
            pass
        sidecar = _sidecar_for(segment)
        try:
            index_bytes += sidecar.stat().st_size
            sealed += 1
        except OSError:
            pass
    return SegmentReport(
        segments=len(segments),
        sealed=sealed,
        segment_bytes=segment_bytes,
        live_records=len(live),
        live_bytes=sum(size for _, _, size in live.values()),
        dead_bytes=dead_bytes,
        index_bytes=index_bytes,
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
    """Append-only writer building fresh compacted segments during GC."""

    def __init__(self, directory: Path, segment_max_bytes: int):
        self._directory = directory
        self._max_bytes = segment_max_bytes
        self._stream: Optional[io.BufferedWriter] = None
        self._path: Optional[Path] = None
        self._size = 0
        self._records: List[_SegmentRecord] = []
        self.written: List[Path] = []

    def _open(self) -> None:
        token = uuid.uuid4().hex[:12]
        self._path = self._directory / f"seg-gc-{token}{_SEGMENT_SUFFIX}"
        self._stream = open(self._path, "wb")
        self._stream.write(SEGMENT_MAGIC)
        self._size = len(SEGMENT_MAGIC)
        self._records = []

    def append(self, digest: bytes, payload: bytes, mtime: float, crc: int) -> None:
        """Write one record frame, rotating segments at the size bound."""
        if self._stream is None or (
            self._records and self._size + _FRAME.size + len(payload) > self._max_bytes
        ):
            self.seal()
            self._open()
        self._stream.write(_FRAME.pack(_FRAME_MAGIC, digest, mtime, len(payload), crc))
        self._records.append(
            _SegmentRecord(
                digest=digest,
                offset=self._size + _FRAME.size,
                length=len(payload),
                mtime=mtime,
                crc=crc,
            )
        )
        self._stream.write(payload)
        self._size += _FRAME.size + len(payload)

    def seal(self) -> None:
        """Flush, close and publish the sidecar of the current segment."""
        if self._stream is None:
            return
        self._stream.close()
        self._stream = None
        _atomic_write(
            self._directory, _sidecar_for(self._path), _sidecar_blob(self._records)
        )
        self.written.append(self._path)
        self._path = None


def collect_garbage(
    cache_dir: Union[str, Path],
    max_bytes: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    protected: AbstractSet[str] = frozenset(),
    now: Optional[float] = None,
    sweep_tmp: bool = True,
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
    rewrites *every* segment — dropping superseded duplicates and
    truncating corrupt tails (the ``repro cache gc`` maintenance pass).

    GC assumes no concurrent *writers* share the directory (readers are
    fine — a compacted-away record heals as a miss).  Stale temp files
    (crashed writers) are swept as a side effect unless ``sweep_tmp`` is
    False (read-only inspection must not race a slow live writer's
    staging file).  Missing-directory and per-file ``OSError`` are
    tolerated silently.
    """
    directory = Path(cache_dir)
    now = time.time() if now is None else float(now)
    if sweep_tmp:
        for path in directory.glob("*.tmp"):
            try:
                if path.stat().st_mtime < now - PersistentResultCache._STALE_TMP_SECONDS:
                    path.unlink()
            except OSError:
                pass

    live, segments, dead_bytes = _scan_directory(directory)
    # Deterministic eviction order: oldest first, digest breaks ties.
    entries = sorted(
        (
            (mtime, digest.hex(), size, source)
            for digest, (source, mtime, size) in live.items()
        ),
    )
    scanned = len(entries)
    protected_count = sum(1 for _, name, _, _ in entries if name in protected)
    total = sum(size for _, _, size, _ in entries)
    evicted: Set[str] = set()
    removed = 0
    reclaimed = 0
    for mtime, name, size, _source in entries:
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

    # Decide which segments must be rewritten: every segment when
    # compacting, otherwise only those holding evicted or superseded
    # frames (rewriting is the only way to actually reclaim their bytes).
    segments_to_rewrite: List[Tuple[Path, List[_SegmentRecord]]] = []
    for segment, records, clean in segments:
        needs = compact or not clean
        if not needs:
            for record in records:
                name = record.digest.hex()
                source = live.get(record.digest)
                superseded = source is None or source[0] is not record
                if name in evicted or superseded:
                    needs = True
                    break
        if needs:
            segments_to_rewrite.append((segment, records))

    rewrite_set = {segment for segment, _records in segments_to_rewrite}
    writer = _SegmentWriter(directory, segment_max_bytes)
    segments_removed = 0
    for segment, records in segments_to_rewrite:
        try:
            with open(segment, "rb") as stream:
                for record in records:
                    name = record.digest.hex()
                    source = live.get(record.digest)
                    if name in evicted or source is None or source[0] is not record:
                        continue
                    stream.seek(record.offset)
                    payload = stream.read(record.length)
                    if len(payload) != record.length or zlib.crc32(payload) != record.crc:
                        continue  # corrupt frame: drop it (heals as a miss)
                    writer.append(record.digest, payload, record.mtime, record.crc)
        except OSError:
            continue
        for path in (segment, _sidecar_for(segment)):
            try:
                path.unlink()
            except OSError:
                pass
        segments_removed += 1

    writer.seal()

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
        segments_written=len(writer.written),
        dead_bytes=dead_bytes,
    )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an integrity scan over a cache directory (``cache verify``).

    ``clean`` is the verdict: True when every frame's CRC matches, every
    segment parses end to end and every sidecar index agrees with its
    segment.
    """

    segments: int  #: packed segment files scanned
    frames_ok: int  #: frames whose payload CRC validated
    frames_corrupt: int  #: frames whose payload failed its CRC
    torn_segments: int  #: segments with a torn or unparseable tail
    torn_bytes: int  #: bytes past the last well-formed frame
    sidecars: int  #: sidecar index files present
    sidecars_stale: int  #: sidecars disagreeing with their segment's frames
    repaired_segments: int = 0  #: damaged segments rewritten (``--repair``)
    dropped_frames: int = 0  #: corrupt frames dropped by the repair

    @property
    def clean(self) -> bool:
        """True when the scan found no corruption at all."""
        return not (self.frames_corrupt or self.torn_segments or self.sidecars_stale)

    def describe(self) -> str:
        """Human-readable summary (the CLI ``cache verify`` body)."""
        lines = [
            f"segments: {self.segments} ({self.frames_ok} frames ok, "
            f"{self.frames_corrupt} corrupt, {self.torn_segments} torn "
            f"tails / {human_bytes(self.torn_bytes)})",
            f"sidecar indexes: {self.sidecars} ({self.sidecars_stale} stale)",
        ]
        if self.repaired_segments or self.dropped_frames:
            lines.append(
                f"repaired: {self.repaired_segments} segments rewritten, "
                f"{self.dropped_frames} corrupt frames dropped"
            )
        lines.append("verdict: " + ("clean" if self.clean else "CORRUPT"))
        return "\n".join(lines)


def verify_cache(
    cache_dir: Union[str, Path],
    repair: bool = False,
    segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
) -> VerifyReport:
    """Validate every frame and sidecar index in a cache directory.

    Unlike the lazy read path (which drops a corrupt frame only when its
    key happens to be requested) this walks the whole directory: every
    segment is re-parsed from byte zero — deliberately ignoring sidecar
    indexes, which are themselves being audited — and every payload's
    CRC-32 is recomputed.  Without ``repair`` the scan is strictly
    read-only.  With ``repair=True`` damaged segments are rewritten
    keeping only their valid frames (corrupt frames and torn tails are
    dropped — those records heal as cache misses) and stale sidecars are
    rebuilt.

    Like GC, repair assumes no concurrent writer shares the directory.
    The counters in the returned :class:`VerifyReport` always describe
    the state *found*, not the state after repair.
    """
    directory = Path(cache_dir)
    writer = _SegmentWriter(directory, segment_max_bytes) if repair else None
    segments = 0
    frames_ok = 0
    frames_corrupt = 0
    torn_segments = 0
    torn_bytes = 0
    sidecars = 0
    sidecars_stale = 0
    repaired_segments = 0
    dropped_frames = 0
    for segment in _segment_paths(directory):
        try:
            size = segment.stat().st_size
        except OSError:
            continue
        segments += 1
        records, end, clean_tail = _scan_segment(segment, 0, size)
        torn = max(0, size - end)
        good: List[Tuple[_SegmentRecord, bytes]] = []
        bad = 0
        try:
            with open(segment, "rb") as stream:
                for record in records:
                    stream.seek(record.offset)
                    payload = stream.read(record.length)
                    if (
                        len(payload) != record.length
                        or zlib.crc32(payload) != record.crc
                    ):
                        bad += 1
                    else:
                        good.append((record, payload))
        except OSError:
            continue
        frames_ok += len(good)
        frames_corrupt += bad
        damaged = bad > 0 or not clean_tail or torn > 0
        if not clean_tail or torn > 0:
            torn_segments += 1
            torn_bytes += torn
        sidecar = _sidecar_for(segment)
        sidecar_stale = False
        if sidecar.is_file():
            sidecars += 1
            indexed = _read_sidecar(sidecar)
            expected = [
                (r.digest, r.offset, r.length, r.mtime, r.crc) for r in records
            ]
            actual = (
                None
                if indexed is None
                else [(r.digest, r.offset, r.length, r.mtime, r.crc) for r in indexed]
            )
            if actual != expected:
                sidecars_stale += 1
                sidecar_stale = True
        if writer is not None and damaged:
            for record, payload in good:
                writer.append(record.digest, payload, record.mtime, record.crc)
            for path in (segment, sidecar):
                try:
                    path.unlink()
                except OSError:
                    pass
            repaired_segments += 1
            dropped_frames += bad
        elif writer is not None and sidecar_stale:
            _atomic_write(directory, sidecar, _sidecar_blob(records))
    if writer is not None:
        writer.seal()
    return VerifyReport(
        segments=segments,
        frames_ok=frames_ok,
        frames_corrupt=frames_corrupt,
        torn_segments=torn_segments,
        torn_bytes=torn_bytes,
        sidecars=sidecars,
        sidecars_stale=sidecars_stale,
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

    #: Temp files older than this are leftovers of writers that died
    #: between ``mkstemp`` and ``os.replace``; anything younger may be a
    #: concurrent writer's live staging file and is left alone.
    _STALE_TMP_SECONDS = 3600.0

    def __init__(
        self,
        cache_dir: Union[str, Path],
        maxsize: int = 8192,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
    ):
        super().__init__(maxsize=maxsize)
        self._dir = Path(cache_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._maxsize = int(maxsize)
        self._max_bytes = max_bytes
        self._max_age_seconds = max_age_seconds
        self._segment_max_bytes = max(_FRAME.size + 1, int(segment_max_bytes))
        self._disk_hits = 0
        self._disk_misses = 0
        #: Key digests written by *this* instance — i.e. during the
        #: current run — which garbage collection must never evict.
        self._written: Set[str] = set()
        #: digest -> (segment name, payload offset, length, crc)
        self._index: Dict[bytes, Tuple[str, int, int, int]] = {}
        #: segment name -> [next scan offset, poisoned, sealed]
        self._scan_state: Dict[str, List] = {}
        self._active_path: Optional[Path] = None
        self._active_stream: Optional[io.BufferedWriter] = None
        self._active_size = 0
        self._active_records: List[_SegmentRecord] = []
        self._sweep_stale_temp_files()
        if max_bytes is not None or max_age_seconds is not None:
            self.gc()
        self._refresh_index()

    def _sweep_stale_temp_files(self) -> None:
        cutoff = time.time() - self._STALE_TMP_SECONDS
        for path in self._dir.glob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass

    @property
    def cache_dir(self) -> Path:
        """The backing directory."""
        return self._dir

    # -- segment index ---------------------------------------------------------

    def _refresh_index(self) -> None:
        """Fold newly appeared segment bytes/files into the in-memory index.

        Sealed segments load their compact sidecar once; the unsealed
        active segments of *other* processes are scanned incrementally —
        only the bytes appended since the last refresh are parsed, so a
        refresh on a warm directory costs a handful of ``stat`` calls.
        """
        try:
            names = os.listdir(self._dir)
        except OSError:
            return
        own = None if self._active_path is None else self._active_path.name
        for name in names:
            if not name.endswith(_SEGMENT_SUFFIX) or not name.startswith("seg-"):
                continue
            if name == own:
                continue  # our own appends are indexed at write time
            state = self._scan_state.setdefault(name, [0, False, False])
            if state[1] or state[2]:
                continue  # poisoned tail or sealed-and-loaded: nothing new
            path = self._dir / name
            sidecar = _sidecar_for(path)
            if sidecar.exists():
                records = _read_sidecar(sidecar)
                if records is not None:
                    for record in records:
                        self._index[record.digest] = (
                            name,
                            record.offset,
                            record.length,
                            record.crc,
                        )
                    state[2] = True
                    continue
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if size <= state[0]:
                continue
            records, end, clean = _scan_segment(path, state[0], size)
            for record in records:
                self._index[record.digest] = (
                    name,
                    record.offset,
                    record.length,
                    record.crc,
                )
            state[0] = end
            state[1] = not clean

    def _read_indexed(self, digest: bytes) -> Optional[bytes]:
        """The payload an index entry points at, or ``None`` (entry dropped)."""
        entry = self._index.get(digest)
        if entry is None:
            return None
        name, offset, length, crc = entry
        try:
            with open(self._dir / name, "rb") as stream:
                stream.seek(offset)
                payload = stream.read(length)
        except OSError:
            payload = b""
        if len(payload) != length or zlib.crc32(payload) != crc:
            # Compacted away or corrupt: drop the entry so the slot heals.
            self._index.pop(digest, None)
            return None
        return payload

    # -- disk tier -------------------------------------------------------------

    def _lookup_payload(self, digest: bytes) -> Optional[bytes]:
        """Find a key's compressed payload across segments (refreshing once)."""
        payload = self._read_indexed(digest)
        if payload is not None:
            return payload
        self._refresh_index()
        return self._read_indexed(digest)

    def _rotate_active(self) -> None:
        """Seal the active segment (sidecar + close) and start a fresh one."""
        if self._active_stream is not None:
            self._active_stream.close()
            try:
                _atomic_write(
                    self._dir,
                    _sidecar_for(self._active_path),
                    _sidecar_blob(self._active_records),
                )
            except OSError:
                pass
            self._scan_state[self._active_path.name] = [self._active_size, False, True]
        token = f"{os.getpid():x}-{uuid.uuid4().hex[:8]}"
        self._active_path = self._dir / f"seg-{token}{_SEGMENT_SUFFIX}"
        self._active_stream = open(self._active_path, "ab")
        if self._active_stream.tell() == 0:
            self._active_stream.write(SEGMENT_MAGIC)
            self._active_stream.flush()
        self._active_size = self._active_stream.tell()
        self._active_records = []

    def _append_record(self, digest_hex: str, record) -> None:
        """Append one frame to the active segment (failures degrade silently)."""
        try:
            payload = zlib.compress(
                pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            )
            digest = bytes.fromhex(digest_hex)
            if self._active_stream is None or (
                self._active_records
                and self._active_size + _FRAME.size + len(payload)
                > self._segment_max_bytes
            ):
                self._rotate_active()
            crc = zlib.crc32(payload)
            mtime = time.time()
            frame = _FRAME.pack(_FRAME_MAGIC, digest, mtime, len(payload), crc)
            self._active_stream.write(frame + payload)
            self._active_stream.flush()
            offset = self._active_size + _FRAME.size
            self._active_size += len(frame) + len(payload)
            self._index[digest] = (
                self._active_path.name,
                offset,
                len(payload),
                crc,
            )
            self._active_records.append(
                _SegmentRecord(
                    digest=digest,
                    offset=offset,
                    length=len(payload),
                    mtime=mtime,
                    crc=crc,
                )
            )
            self._written.add(digest_hex)
        except Exception:
            # Unpicklable record, read-only directory, full disk, ...: the
            # memory tier still serves this entry; persistence is best-effort.
            pass

    def close(self) -> None:
        """Seal the active segment so future opens load its sidecar.

        Optional hygiene (the cache works without it): an unsealed
        segment is still fully readable via tail scans.
        """
        if self._active_stream is None:
            return
        try:
            self._active_stream.close()
            if self._active_records:
                _atomic_write(
                    self._dir,
                    _sidecar_for(self._active_path),
                    _sidecar_blob(self._active_records),
                )
            else:
                self._active_path.unlink()
        except OSError:
            pass
        self._active_stream = None
        self._active_path = None
        self._active_records = []
        self._active_size = 0

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
        return self.probe_disk(key)

    def probe_disk(self, key: Hashable) -> Optional[object]:
        """Disk-tier-only lookup (promoting hits into the LRU).

        Counter semantics match the fall-through half of :meth:`get`, so a
        :meth:`~repro.runtime.cache.ResultCache.peek_memory` followed by a
        ``probe_disk`` counts exactly like one full ``get`` — the sequence
        the experiment runner performs around worker dispatch.
        """
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

    def put_local(self, key: Hashable, record) -> None:
        """Memory-only store for a record a *worker* already persisted.

        The worker wrote the frame, but the write belongs to the current
        run all the same — register it so :meth:`gc` cannot evict it.
        """
        super().put_local(key, record)
        self._written.add(key_digest(key))

    def clear(self) -> None:
        """Drop the memory tier and every record in the directory."""
        super().clear()
        self._disk_hits = 0
        self._disk_misses = 0
        if self._active_stream is not None:
            try:
                self._active_stream.close()
            except OSError:
                pass
            self._active_stream = None
            self._active_path = None
            self._active_records = []
            self._active_size = 0
        self._index.clear()
        self._scan_state.clear()
        for pattern in ("*.tmp", f"seg-*{_SEGMENT_SUFFIX}", f"seg-*{_SIDECAR_SUFFIX}"):
            for path in self._dir.glob(pattern):
                try:
                    path.unlink()
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

    def disk_bytes(self) -> int:
        """Total size of the segment and sidecar files on disk."""
        total = 0
        for pattern in (f"seg-*{_SEGMENT_SUFFIX}", f"seg-*{_SIDECAR_SUFFIX}"):
            for path in self._dir.glob(pattern):
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def segment_report(self) -> SegmentReport:
        """Segment-level statistics of the backing directory."""
        return segment_stats(self._dir)

    # -- garbage collection ----------------------------------------------------

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        compact: bool = False,
    ) -> GCReport:
        """Evict old records by the instance (or overriding) policy.

        Records written during the current run (by this instance) are
        always kept — a sweep must never evict its own fresh results out
        from under a rerun.  Runs automatically at construction when a
        policy was configured, so long-lived cache directories stay
        bounded without a separate maintenance step.  The active segment
        is sealed first so compaction never rewrites a file this instance
        is still appending to.
        """
        self.close()
        report = collect_garbage(
            self._dir,
            max_bytes=self._max_bytes if max_bytes is None else max_bytes,
            max_age_seconds=(
                self._max_age_seconds if max_age_seconds is None else max_age_seconds
            ),
            protected=frozenset(self._written),
            compact=compact,
            segment_max_bytes=self._segment_max_bytes,
        )
        # Compaction moved frames around: rebuild the index from scratch.
        self._index.clear()
        self._scan_state.clear()
        self._refresh_index()
        return report

    # -- worker-pool sharing ---------------------------------------------------

    def worker_spec(self) -> Dict[str, object]:
        """Constructor arguments for a worker-process twin of this cache.

        Workers share the directory but never a GC policy: eviction is the
        parent's job, and a worker evicting mid-run could drop records the
        parent just counted on.
        """
        return {
            "cache_dir": str(self._dir),
            "maxsize": self._maxsize,
            "segment_max_bytes": self._segment_max_bytes,
        }

    def note_worker_hit(self, key: Hashable, record) -> None:
        """Account a lookup a pool worker served from the shared disk tier.

        The parent deliberately probed only its memory tier before
        dispatching (see :meth:`~repro.runtime.cache.ResultCache.
        peek_memory`), so the worker's disk hit is credited here — keeping
        the ``computed == misses - disk_hits`` invariant of
        :class:`~repro.linalg.cache.CacheStats` intact — and the record is
        promoted into the parent's LRU.
        """
        self._disk_hits += 1
        self._lru.put(key, self._copy(record))


def resolve_result_cache(
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
    maxsize: int = 8192,
    max_bytes: Optional[int] = None,
) -> Optional[ResultCache]:
    """Build the result cache a runtime entry point should use.

    ``no_cache`` wins over everything; an explicit ``cache_dir`` (or the
    ``REPRO_CACHE_DIR`` environment default) selects the persistent cache;
    otherwise the plain in-process LRU is returned.  ``max_bytes`` (or the
    ``REPRO_CACHE_MAX_BYTES`` default) bounds a long-lived cache directory:
    the persistent cache garbage-collects down to the budget on startup.
    """
    if no_cache:
        return None
    directory = cache_dir if cache_dir is not None else cache_dir_from_env()
    if directory is not None:
        budget = max_bytes if max_bytes is not None else max_bytes_from_env()
        return PersistentResultCache(directory, maxsize=maxsize, max_bytes=budget)
    return ResultCache(maxsize=maxsize)
