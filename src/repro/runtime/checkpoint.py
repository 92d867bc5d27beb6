"""Sharded checkpoint/resume for long-running sweeps.

A million-point sweep that dies at point 900,001 should not restart at
point zero.  This module stores sweep progress as *shards* — contiguous
slices of the canonical point order — in a checkpoint directory:

* ``manifest.json`` pins the run identity: a digest of the full sweep
  specification, the total point count and the shard size.  A resume
  against a manifest whose spec digest differs refuses loudly instead of
  silently mixing two different sweeps' records.
* ``shard-NNNNN.rsd`` holds one shard's computed records as compressed
  pickle behind a small magic header.  Shards are written atomically
  (temp file + rename), so a crash mid-write leaves either the previous
  state or the complete shard — never a torn file.  A corrupt or
  unreadable shard reads as "not computed" and is simply recomputed.
* ``failures.json`` records the points that were quarantined/skipped
  under the runner's :class:`~repro.runtime.runner.FailurePolicy` —
  a stored shard may contain ``None`` holes at exactly those points, so
  partial shard progress survives while the failures stay on the books.
  A ``--resume`` retries precisely the recorded failed points (and any
  lost shards), clearing entries as they recover.

The sharding is deterministic: shard ``i`` covers points
``[i * shard_points, (i + 1) * shard_points)`` of the canonical sweep
order, so any two processes given the same spec agree on what every
shard contains — which is what makes crash recovery, reruns and even
concurrent shard workers correct.

:func:`repro.core.pipeline.run_sweep_sharded` is the driver built on
this, and ``repro sweep --checkpoint-dir`` (with ``--resume``) exposes
it.  The server keeps no checkpoints: its result cache is the one place
it stores records, so re-POSTing a ``/v1/sweep`` body resumes it.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

#: Shard file magic + format version.
SHARD_MAGIC = b"RPSD1\n"

#: Manifest schema version.
MANIFEST_VERSION = 1

_MANIFEST_NAME = "manifest.json"

_FAILURES_NAME = "failures.json"


class CheckpointMismatch(RuntimeError):
    """A checkpoint directory belongs to a different sweep specification."""


class SweepCheckpoint:
    """Shard-granular persistence of one sweep's progress.

    The instance is bound to a directory; :meth:`initialize` creates or
    validates the manifest, after which :meth:`completed_shards`,
    :meth:`load_shard` and :meth:`store_shard` manage the shard files.
    All shard reads tolerate corruption (a torn or garbled shard is
    recomputed), while manifest mismatches raise
    :class:`CheckpointMismatch` — silently resuming the wrong sweep would
    corrupt results, not just waste time.
    """

    def __init__(self, directory: Union[str, Path]):
        self._dir = Path(directory)
        self._manifest: Optional[Dict] = None

    @property
    def directory(self) -> Path:
        """The checkpoint directory."""
        return self._dir

    @property
    def manifest(self) -> Optional[Dict]:
        """The loaded manifest, or ``None`` before :meth:`initialize`."""
        return self._manifest

    @property
    def num_shards(self) -> int:
        """Shard count of the initialized run."""
        return int(self._manifest["num_shards"])

    def exists(self) -> bool:
        """True when the directory already holds a manifest."""
        return (self._dir / _MANIFEST_NAME).is_file()

    def _read_manifest(self) -> Optional[Dict]:
        try:
            manifest = json.loads((self._dir / _MANIFEST_NAME).read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            return None
        return manifest

    def initialize(
        self, spec_digest: str, total_points: int, shard_points: int
    ) -> "SweepCheckpoint":
        """Create the manifest, or validate an existing one against the spec.

        Raises :class:`CheckpointMismatch` when the directory already
        checkpoints a *different* sweep (other spec digest, point count or
        shard size); an unreadable manifest counts as different — guessing
        would be worse than recomputing.
        """
        shard_points = max(1, int(shard_points))
        num_shards = max(1, -(-int(total_points) // shard_points))
        manifest = {
            "version": MANIFEST_VERSION,
            "spec_digest": spec_digest,
            "total_points": int(total_points),
            "shard_points": shard_points,
            "num_shards": num_shards,
        }
        if self.exists():
            existing = self._read_manifest()
            if existing != manifest:
                raise CheckpointMismatch(
                    f"checkpoint at {self._dir} was written by a different "
                    "sweep (or is unreadable); refusing to mix records — "
                    "point at a fresh directory or delete it"
                )
        else:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._write_atomic(
                self._dir / _MANIFEST_NAME,
                json.dumps(manifest, indent=2).encode("utf-8"),
            )
        self._manifest = manifest
        return self

    def _shard_path(self, index: int) -> Path:
        return self._dir / f"shard-{index:05d}.rsd"

    def _write_atomic(self, path: Path, blob: bytes) -> None:
        handle, temp_name = tempfile.mkstemp(
            dir=self._dir, prefix=path.stem, suffix=".tmp"
        )
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

    def completed_shards(self) -> Set[int]:
        """Indices of shards with a (plausibly) complete file on disk.

        Plausibly: presence and magic only — full decode happens at
        :meth:`load_shard`, which demotes a corrupt shard back to
        "missing".
        """
        completed: Set[int] = set()
        for path in self._dir.glob("shard-*.rsd"):
            try:
                index = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            completed.add(index)
        return completed

    def load_shard(self, index: int) -> Optional[List]:
        """The records of one shard, or ``None`` (missing/corrupt/stale)."""
        path = self._shard_path(index)
        try:
            blob = path.read_bytes()
            if not blob.startswith(SHARD_MAGIC):
                return None
            records = pickle.loads(zlib.decompress(blob[len(SHARD_MAGIC) :]))
            if not isinstance(records, list):
                return None
            return records
        except Exception:
            return None

    def store_shard(self, index: int, records: List) -> None:
        """Atomically persist one shard's records."""
        blob = SHARD_MAGIC + zlib.compress(
            pickle.dumps(list(records), protocol=pickle.HIGHEST_PROTOCOL)
        )
        self._write_atomic(self._shard_path(index), blob)

    def failed_points(self) -> Dict[int, Dict]:
        """Recorded failed/quarantined points: global point index → details.

        Each detail dict carries at least ``shard`` and ``label``; an
        unreadable failures file reads as "no failures on record" (the
        shard holes themselves still force a recompute on resume).
        """
        try:
            data = json.loads((self._dir / _FAILURES_NAME).read_text("utf-8"))
            points = data.get("points", {})
            return {int(index): dict(info) for index, info in points.items()}
        except (OSError, ValueError, AttributeError, TypeError):
            return {}

    def update_failures(self, start: int, stop: int, entries: Dict[int, Dict]) -> None:
        """Replace the recorded failures in global range ``[start, stop)``.

        Called after a shard in that range is (re)computed: points that
        recovered drop off the books automatically because they are no
        longer in ``entries``.  The file is removed once nothing is left,
        so a clean checkpoint carries no failure sidecar at all.
        """
        current = self.failed_points()
        merged = {
            index: info
            for index, info in current.items()
            if not start <= index < stop
        }
        merged.update({int(index): dict(info) for index, info in entries.items()})
        path = self._dir / _FAILURES_NAME
        if not merged:
            if current:
                try:
                    path.unlink()
                except OSError:
                    pass
            return
        blob = json.dumps(
            {
                "version": 1,
                "points": {str(index): merged[index] for index in sorted(merged)},
            },
            indent=2,
        ).encode("utf-8")
        self._write_atomic(path, blob)

    def clear(self) -> None:
        """Remove the manifest and every shard (a fresh-start reset)."""
        for pattern in ("shard-*.rsd", "*.tmp", _MANIFEST_NAME, _FAILURES_NAME):
            for path in self._dir.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        self._manifest = None
