"""Hardened loading of pytest-benchmark JSON artifacts.

A ``BENCH_*.json`` artifact is whatever ``pytest --benchmark-json``
wrote — possibly truncated by a killed CI step, possibly produced by a
different pytest-benchmark version, possibly hand-edited.  The loader
here therefore never surfaces a bare ``KeyError``: a malformed benchmark
entry raises :class:`MalformedArtifactError` naming the file and the
offending entry, so a CI log says *which* benchmark broke the artifact
instead of ``KeyError: 'mean'``.

Provenance travels with the numbers.  :func:`read_artifact` resolves a
:class:`RunMeta` (git SHA, timestamp, host tag) from, in precedence
order, the ``repro_run_meta`` block that ``benchmarks/conftest.py``
injects via the ``pytest_benchmark_update_json`` hook, then
pytest-benchmark's own ``commit_info`` / ``machine_info`` /
``datetime`` fields.  Timestamps are always *read from the artifact* or
passed in explicitly — nothing here invents a wall-clock time, so
recording the same artifact twice yields identical metadata.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Union


class MalformedArtifactError(ValueError):
    """A benchmark artifact entry is structurally invalid.

    The message always identifies the source file and, for per-entry
    problems, the entry index and benchmark name, so the failing record
    can be found without re-parsing the JSON by hand.
    """


@dataclass(frozen=True)
class RunMeta:
    """Provenance of one benchmark run: where, when and at which commit."""

    git_sha: Optional[str] = None
    timestamp: Optional[str] = None
    host: Optional[str] = None
    source: Optional[str] = None

    def merged_over(self, fallback: "RunMeta") -> "RunMeta":
        """This meta, with ``None`` fields filled from ``fallback``."""
        return replace(
            fallback,
            **{
                field: value
                for field, value in vars(self).items()
                if value is not None
            },
        )


@dataclass(frozen=True)
class Artifact:
    """Parsed artifact: per-benchmark means/rounds plus run provenance."""

    means: Dict[str, float]
    rounds: Dict[str, int]
    meta: RunMeta

    def __len__(self) -> int:
        return len(self.means)


def _entry_label(index: int, entry) -> str:
    name = entry.get("name") if isinstance(entry, dict) else None
    if isinstance(name, str) and name:
        return f"benchmark entry #{index} ({name!r})"
    return f"benchmark entry #{index}"


def _parse_entries(data: dict, source: str) -> "tuple[Dict[str, float], Dict[str, int]]":
    entries = data.get("benchmarks", [])
    if not isinstance(entries, list):
        raise MalformedArtifactError(
            f"{source}: 'benchmarks' must be a list, got {type(entries).__name__}"
        )
    means: Dict[str, float] = {}
    rounds: Dict[str, int] = {}
    for index, entry in enumerate(entries):
        label = _entry_label(index, entry)
        if not isinstance(entry, dict):
            raise MalformedArtifactError(
                f"{source}: {label}: expected an object, got {type(entry).__name__}"
            )
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise MalformedArtifactError(
                f"{source}: {label}: missing or non-string 'name'"
            )
        stats = entry.get("stats")
        if not isinstance(stats, dict):
            raise MalformedArtifactError(f"{source}: {label}: missing 'stats' object")
        if "mean" not in stats:
            raise MalformedArtifactError(f"{source}: {label}: missing 'stats.mean'")
        try:
            mean = float(stats["mean"])
        except (TypeError, ValueError):
            raise MalformedArtifactError(
                f"{source}: {label}: non-numeric 'stats.mean' "
                f"({stats['mean']!r})"
            ) from None
        if not math.isfinite(mean) or mean < 0.0:
            raise MalformedArtifactError(
                f"{source}: {label}: 'stats.mean' must be a finite non-negative "
                f"number, got {mean!r}"
            )
        means[name] = mean
        entry_rounds = stats.get("rounds")
        if isinstance(entry_rounds, (int, float)) and not isinstance(entry_rounds, bool):
            rounds[name] = int(entry_rounds)
    return means, rounds


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text("utf-8"))
    except OSError as error:
        raise MalformedArtifactError(f"{path}: unreadable ({error})") from error
    except json.JSONDecodeError as error:
        raise MalformedArtifactError(f"{path}: invalid JSON ({error})") from error
    if not isinstance(data, dict):
        raise MalformedArtifactError(
            f"{path}: top level must be an object, got {type(data).__name__}"
        )
    return data


def _artifact_meta(data: dict, source: str) -> RunMeta:
    """Provenance from the artifact: injected block first, then stock fields."""
    injected = data.get("repro_run_meta")
    injected = injected if isinstance(injected, dict) else {}
    commit_info = data.get("commit_info")
    commit_info = commit_info if isinstance(commit_info, dict) else {}
    machine_info = data.get("machine_info")
    machine_info = machine_info if isinstance(machine_info, dict) else {}

    def _str(value) -> Optional[str]:
        return value if isinstance(value, str) and value else None

    return RunMeta(
        git_sha=_str(injected.get("git_sha")) or _str(commit_info.get("id")),
        timestamp=_str(injected.get("timestamp")) or _str(data.get("datetime")),
        host=_str(injected.get("host")) or _str(machine_info.get("node")),
        source=source,
    )


def read_artifact(path: Union[str, Path]) -> Artifact:
    """Parse a pytest-benchmark JSON artifact into an :class:`Artifact`.

    Raises :class:`MalformedArtifactError` (never a bare ``KeyError``)
    identifying the offending entry when the file is structurally bad.
    """
    path = Path(path)
    data = _read_json(path)
    means, rounds = _parse_entries(data, path.name)
    return Artifact(means=means, rounds=rounds, meta=_artifact_meta(data, path.name))


def current_git_sha(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """Best-effort SHA of the checked-out commit, or ``None``.

    Preference order: the ``GITHUB_SHA`` environment variable (present
    on CI runners even for shallow or detached checkouts), then ``git
    rev-parse HEAD``.  Never raises — benchmark recording must work in
    exported tarballs too.
    """
    env_sha = os.environ.get("GITHUB_SHA", "").strip()
    if env_sha:
        return env_sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if cwd is None else str(cwd),
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None
