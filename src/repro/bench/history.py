"""Append-only benchmark-trajectory store with a rolling regression gate.

The store borrows the disk-cache record idioms
(:mod:`repro.runtime.disk_cache`) scaled down to human-sized data:

* **one append-only series file per benchmark**, keyed by benchmark
  name.  The filename is a readable slug plus a content digest of the
  full name (``test_bench_headline-1a2b3c4d5e.bhl``) so that two names
  sharing a slug can never collide, exactly like the cache's
  SHA-digested record keys;
* **JSON-lines records** — each ``record()`` call appends one line per
  benchmark (``{"run": N, "name": ..., "mean": ..., "rounds": ...,
  "git_sha": ..., "timestamp": ..., "host": ...}``) with a single
  ``O_APPEND`` write, so concurrent recorders interleave whole lines;
* **torn tails read as misses** — a line that does not parse (a killed
  writer, a half-synced CI cache) is skipped, never an error, matching
  the cache's CRC-frame tolerance;
* **a ``runs.jsonl`` manifest** — one line per recorded run carrying
  the run ordinal and its provenance (git SHA, timestamp passed in,
  host tag, source artifact): the cheap file that says what the series
  files contain.

:meth:`BenchHistory.check` gates the newest run against a **rolling
baseline**: the median of the up-to-``window`` preceding entries per
benchmark.  A median over several runs on the same host is what makes a
tolerance band defensible where a single-point diff is noise — the
series, not the snapshot, carries the performance claim.
"""

from __future__ import annotations

import json
import os
import re
import statistics
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.bench.artifact import Artifact, RunMeta, read_artifact
from repro.bench.compare import Comparison, compare

#: Series files: one JSON-lines file per benchmark.
SERIES_SUFFIX = ".bhl"

#: Per-history manifest: one JSON line per recorded run.
RUNS_FILE = "runs.jsonl"

#: Environment variable selecting a default history directory.
HISTORY_DIR_ENV = "REPRO_BENCH_HISTORY"

#: Default history directory (relative to the working directory).
DEFAULT_HISTORY_DIR = ".repro-bench-history"


def history_dir_from_env() -> Optional[str]:
    """The ``REPRO_BENCH_HISTORY`` directory, or ``None`` when unset."""
    value = os.environ.get(HISTORY_DIR_ENV, "").strip()
    return value or None


def series_filename(name: str) -> str:
    """Slug + content digest, so distinct names never share a file."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-")[:80] or "bench"
    digest = sha256(name.encode("utf-8")).hexdigest()[:10]
    return f"{slug}-{digest}{SERIES_SUFFIX}"


@dataclass(frozen=True)
class HistoryEntry:
    """One recorded observation of one benchmark."""

    name: str
    run: int
    mean: float
    rounds: Optional[int] = None
    git_sha: Optional[str] = None
    timestamp: Optional[str] = None
    host: Optional[str] = None


@dataclass
class BenchCheck:
    """Outcome of gating the newest run against the rolling baseline."""

    comparison: Optional[Comparison]
    latest_run: Optional[dict]
    window: int
    #: Benchmarks seen for the first time in the newest run (no prior
    #: series to compare against — informational, never a failure).
    insufficient: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """True when the gate should exit non-zero."""
        return bool(self.violations)

    @property
    def violations(self) -> List[str]:
        """Human-readable gate violations (empty when the check passes)."""
        if self.comparison is None:
            return []
        return self.comparison.violations()


def _read_jsonl(path: Path) -> List[dict]:
    """Parse a JSON-lines file, skipping torn/corrupt lines."""
    if not path.is_file():
        return []
    records: List[dict] = []
    try:
        raw = path.read_text("utf-8")
    except OSError:
        return []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn write — a miss, not an error
        if isinstance(record, dict):
            records.append(record)
    return records


def _append_jsonl(path: Path, record: dict) -> None:
    line = json.dumps(record, sort_keys=True) + "\n"
    with open(path, "a+b") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() > 0:
            # A killed writer may have left a torn, newline-less tail;
            # terminate it so the new record starts on its own line (the
            # torn line then reads as a skip, costing one record at most).
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        handle.write(line.encode("utf-8"))


class BenchHistory:
    """Append-only per-benchmark series under one history directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root).expanduser()

    # -- writing ---------------------------------------------------------

    def record(
        self,
        artifact: Union[str, Path, Artifact],
        *,
        git_sha: Optional[str] = None,
        timestamp: Optional[str] = None,
        host: Optional[str] = None,
    ) -> dict:
        """Append one run (one entry per benchmark) to the history.

        Explicit ``git_sha`` / ``timestamp`` / ``host`` arguments win
        over the artifact's own provenance.  Returns the manifest line
        written to ``runs.jsonl``.
        """
        if not isinstance(artifact, Artifact):
            artifact = read_artifact(artifact)
        meta = RunMeta(git_sha=git_sha, timestamp=timestamp, host=host).merged_over(
            artifact.meta
        )
        self.root.mkdir(parents=True, exist_ok=True)
        runs = self.runs()
        run_id = runs[-1]["run"] + 1 if runs else 1
        manifest = {
            "run": run_id,
            "git_sha": meta.git_sha,
            "timestamp": meta.timestamp,
            "host": meta.host,
            "source": meta.source,
            "benchmarks": len(artifact.means),
        }
        _append_jsonl(self.root / RUNS_FILE, manifest)
        for name, mean in sorted(artifact.means.items()):
            _append_jsonl(
                self.root / series_filename(name),
                {
                    "run": run_id,
                    "name": name,
                    "mean": mean,
                    "rounds": artifact.rounds.get(name),
                    "git_sha": meta.git_sha,
                    "timestamp": meta.timestamp,
                    "host": meta.host,
                },
            )
        return manifest

    # -- reading ---------------------------------------------------------

    def runs(self) -> List[dict]:
        """The ``runs.jsonl`` manifest lines, oldest first."""
        records = [
            record
            for record in _read_jsonl(self.root / RUNS_FILE)
            if isinstance(record.get("run"), int)
        ]
        records.sort(key=lambda record: record["run"])
        return records

    def names(self) -> List[str]:
        """All benchmark names with a series file, sorted."""
        names = set()
        if self.root.is_dir():
            for path in self.root.glob(f"*{SERIES_SUFFIX}"):
                for record in _read_jsonl(path):
                    name = record.get("name")
                    if isinstance(name, str) and name:
                        names.add(name)
                        break
        return sorted(names)

    def series(self, name: str) -> List[HistoryEntry]:
        """The recorded trajectory of one benchmark, oldest first."""
        entries: List[HistoryEntry] = []
        for record in _read_jsonl(self.root / series_filename(name)):
            if record.get("name") != name:
                continue
            run, mean = record.get("run"), record.get("mean")
            if not isinstance(run, int) or not isinstance(mean, (int, float)):
                continue
            rounds = record.get("rounds")
            entries.append(
                HistoryEntry(
                    name=name,
                    run=run,
                    mean=float(mean),
                    rounds=int(rounds) if isinstance(rounds, int) else None,
                    git_sha=record.get("git_sha"),
                    timestamp=record.get("timestamp"),
                    host=record.get("host"),
                )
            )
        entries.sort(key=lambda entry: entry.run)
        return entries

    def all_series(self) -> Dict[str, List[HistoryEntry]]:
        """``{benchmark name: trajectory}`` for every recorded benchmark."""
        return {name: self.series(name) for name in self.names()}

    def rolling_baseline(
        self, *, window: int = 5, before_run: Optional[int] = None
    ) -> Dict[str, float]:
        """Median of the up-to-``window`` entries per benchmark.

        With ``before_run`` set, only entries from earlier runs count —
        that is the baseline the newest run is gated against.
        """
        baseline: Dict[str, float] = {}
        for name, entries in self.all_series().items():
            if before_run is not None:
                entries = [entry for entry in entries if entry.run < before_run]
            if entries:
                baseline[name] = statistics.median(
                    [entry.mean for entry in entries[-window:]]
                )
        return baseline

    # -- gating ----------------------------------------------------------

    def check(self, *, tolerance: float = 0.25, window: int = 5) -> BenchCheck:
        """Gate the newest recorded run against the rolling baseline.

        Regressions beyond ``tolerance`` and benchmarks that *vanished*
        from the newest run (present in prior runs' series but absent
        now — coverage holes) are violations; benchmarks appearing for
        the first time are listed as ``insufficient`` and pass.
        """
        runs = self.runs()
        if not runs:
            return BenchCheck(
                comparison=None,
                latest_run=None,
                window=window,
                notes=["no recorded runs — nothing to check"],
            )
        latest = runs[-1]
        if len(runs) == 1:
            return BenchCheck(
                comparison=None,
                latest_run=latest,
                window=window,
                notes=[
                    "only one recorded run — a rolling baseline needs at "
                    "least two (record more runs)"
                ],
            )
        latest_id = latest["run"]
        current = {
            name: entries[-1].mean
            for name, entries in self.all_series().items()
            if entries and entries[-1].run == latest_id
        }
        baseline = self.rolling_baseline(window=window, before_run=latest_id)
        comparison = compare(current, baseline, tolerance)
        return BenchCheck(
            comparison=comparison,
            latest_run=latest,
            window=window,
            insufficient=comparison.new,
        )
