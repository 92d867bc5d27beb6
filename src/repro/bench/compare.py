"""The single benchmark-comparison core shared by the CLI and CI.

The ``repro bench compare`` / ``repro bench check`` verbs and the CI gate
all funnel through :func:`compare` + :func:`format_comparison` +
:func:`run_compare` so that the tolerance-band bucketing and the
strict-mode rules cannot drift apart between surfaces.

Strict-mode rules (all pinned by ``tests/bench/``):

* **regressions** — a compared benchmark slower than ``1 + tolerance``
  times its baseline mean;
* **gone benchmarks** — a baseline entry absent from the current
  artifact.  A deleted or renamed benchmark silently leaves regression
  coverage forever if this only warns, so strict mode fails on it;
* **empty overlap** — a non-empty baseline sharing *no* names with the
  current artifact.  An artifact whose benchmarks were all renamed used
  to print "no regressions beyond tolerance" and exit 0 — vacuous truth
  as a green check.

Baselines written by :func:`write_baseline` carry provenance (git SHA,
date, host, per-benchmark round counts) in a ``meta`` block;
:func:`format_comparison` prints it in the header so "the baseline says
0.8 s" always comes with *whose* 0.8 s that was.  Baselines that
predate the meta block still load and report ``provenance: unknown``.

Zero-mean baselines are a trap: ``current / max(baseline, 1e-12)``
turns any genuinely-zero (or denormal-tiny) baseline entry into a
guaranteed astronomic "regression" on every later run.  Entries whose
baseline mean is below :data:`ZERO_BASELINE_FLOOR` are skipped with an
explicit warning instead of being compared.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.artifact import (
    Artifact,
    MalformedArtifactError,
    RunMeta,
    _parse_entries,
    _read_json,
    current_git_sha,
    read_artifact,
)

#: Baseline means below this are unusable as a ratio denominator: a
#: benchmark that measured ~0 s (or a hand-written zero) would flag every
#: subsequent non-zero run as an unbounded regression.  One nanosecond is
#: far below anything pytest-benchmark can resolve for these workloads.
ZERO_BASELINE_FLOOR = 1e-9

#: One comparison row: ``(name, baseline mean, current mean, ratio)``.
Row = Tuple[str, float, float, float]


@dataclass
class Comparison:
    """Tolerance-band bucketing of one run against one baseline."""

    tolerance: float
    regressions: List[Row] = field(default_factory=list)
    improvements: List[Row] = field(default_factory=list)
    steady: List[Row] = field(default_factory=list)
    new: List[str] = field(default_factory=list)
    gone: List[str] = field(default_factory=list)
    #: Names skipped because the baseline mean was below the zero floor.
    skipped_zero_baseline: List[str] = field(default_factory=list)

    @property
    def overlap(self) -> int:
        """Number of benchmarks present in both current and baseline."""
        return (
            len(self.regressions)
            + len(self.improvements)
            + len(self.steady)
            + len(self.skipped_zero_baseline)
        )

    @property
    def empty_overlap(self) -> bool:
        """True when a non-empty baseline shares no names with the run."""
        return self.overlap == 0 and bool(self.gone)

    def violations(self, *, ignore_gone: bool = False) -> List[str]:
        """Human-readable gate violations (empty list = gate passes)."""
        problems: List[str] = []
        if self.regressions:
            problems.append(
                f"{len(self.regressions)} benchmark(s) regressed beyond "
                f"{self.tolerance:.0%}"
            )
        if self.gone and not ignore_gone:
            problems.append(
                f"{len(self.gone)} baseline benchmark(s) missing from the "
                f"current run (deleted or renamed): {', '.join(self.gone)}"
            )
        if self.empty_overlap:
            problems.append(
                "current and baseline share no benchmark names — the "
                "comparison is vacuous"
            )
        return problems


def compare(
    current: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float,
) -> Comparison:
    """Bucket ``current`` against ``baseline`` within a tolerance band.

    Baseline entries with a mean below :data:`ZERO_BASELINE_FLOOR` are
    collected into ``skipped_zero_baseline`` (and a ``RuntimeWarning``
    is emitted) instead of producing a division-driven fake regression.
    """
    result = Comparison(tolerance=tolerance)
    for name in sorted(current):
        if name not in baseline:
            continue
        base = baseline[name]
        if base < ZERO_BASELINE_FLOOR:
            result.skipped_zero_baseline.append(name)
            continue
        ratio = current[name] / base
        row = (name, base, current[name], ratio)
        if ratio > 1.0 + tolerance:
            result.regressions.append(row)
        elif ratio < 1.0 - tolerance:
            result.improvements.append(row)
        else:
            result.steady.append(row)
    result.new = sorted(set(current) - set(baseline))
    result.gone = sorted(set(baseline) - set(current))
    if result.skipped_zero_baseline:
        warnings.warn(
            "zero/near-zero baseline mean(s) skipped (unusable as a ratio "
            "denominator): " + ", ".join(result.skipped_zero_baseline),
            RuntimeWarning,
            stacklevel=2,
        )
    return result


# --------------------------------------------------------------------------
# Baseline IO (provenance-carrying)


def write_baseline(
    path: Union[str, Path],
    artifact: Artifact,
    *,
    git_sha: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> RunMeta:
    """Write ``artifact``'s means as a baseline, with provenance.

    The ``meta`` block records the git SHA (explicit argument, else the
    artifact's own provenance, else the current checkout), the date (the
    artifact's run timestamp unless overridden), the host tag, the
    source artifact name and the total round count; each benchmark entry
    keeps its per-benchmark ``stats.rounds``.  Returns the meta written.
    """
    meta = RunMeta(git_sha=git_sha, timestamp=timestamp).merged_over(artifact.meta)
    if meta.git_sha is None:
        meta = RunMeta(git_sha=current_git_sha()).merged_over(meta)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "meta": {
            "git_sha": meta.git_sha,
            "written": meta.timestamp,
            "host": meta.host,
            "source": meta.source,
            "total_rounds": sum(artifact.rounds.values()) or None,
        },
        "benchmarks": [
            {
                "name": name,
                "stats": (
                    {"mean": mean, "rounds": artifact.rounds[name]}
                    if name in artifact.rounds
                    else {"mean": mean}
                ),
            }
            for name, mean in sorted(artifact.means.items())
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", "utf-8")
    return meta


def read_baseline(path: Union[str, Path]) -> Tuple[Dict[str, float], RunMeta]:
    """Load a baseline file: ``(means, provenance)``.

    Accepts both provenance-carrying baselines and the legacy
    ``{"benchmarks": [{name, stats.mean}]}`` shape (meta fields all
    ``None``).  Malformed entries raise :class:`MalformedArtifactError`.
    """
    path = Path(path)
    data = _read_json(path)
    means, _rounds = _parse_entries(data, path.name)
    raw_meta = data.get("meta")
    raw_meta = raw_meta if isinstance(raw_meta, dict) else {}

    def _str(value) -> Optional[str]:
        return value if isinstance(value, str) and value else None

    meta = RunMeta(
        git_sha=_str(raw_meta.get("git_sha")),
        timestamp=_str(raw_meta.get("written")),
        host=_str(raw_meta.get("host")),
        source=_str(raw_meta.get("source")) or path.name,
    )
    return means, meta


# --------------------------------------------------------------------------
# Rendering + the shared compare flow


def _format_rows(label: str, rows: Sequence[Row]) -> List[str]:
    if not rows:
        return []
    lines = [f"{label}:"]
    for name, base, mean, ratio in rows:
        lines.append(f"  {name}: {base:.4f}s -> {mean:.4f}s ({ratio:.2f}x)")
    return lines


def format_comparison(
    result: Comparison,
    *,
    current_label: str,
    baseline_label: str,
    baseline_meta: Optional[RunMeta] = None,
    ignore_gone: bool = False,
) -> str:
    """The comparison report shared by the script and the CLI verbs."""
    lines = [
        f"benchmark comparison: {current_label} vs {baseline_label} "
        f"(tolerance ±{result.tolerance:.0%})"
    ]
    if baseline_meta is not None:
        if any((baseline_meta.git_sha, baseline_meta.timestamp, baseline_meta.host)):
            lines.append(f"baseline provenance: {baseline_meta.describe()}")
        elif baseline_meta.source and baseline_meta.source != baseline_label:
            lines.append(f"baseline provenance: unknown ({baseline_meta.source})")
        else:
            lines.append("baseline provenance: unknown (no meta block recorded)")
    lines += _format_rows("REGRESSIONS (slower than tolerance)", result.regressions)
    lines += _format_rows("improvements", result.improvements)
    lines += _format_rows("within tolerance", result.steady)
    if result.skipped_zero_baseline:
        lines.append(
            "WARNING: zero/near-zero baseline mean(s) skipped: "
            + ", ".join(result.skipped_zero_baseline)
        )
    if result.new:
        lines.append("new benchmarks (no baseline entry): " + ", ".join(result.new))
    if result.gone:
        lines.append(
            "missing benchmarks (in baseline only): " + ", ".join(result.gone)
        )
    violations = result.violations(ignore_gone=ignore_gone)
    if violations:
        for problem in violations:
            lines.append(f"WARNING: {problem}")
    else:
        lines.append("no regressions beyond tolerance")
    return "\n".join(lines)


def run_compare(
    artifact_path: Union[str, Path],
    baseline_path: Union[str, Path],
    *,
    tolerance: float = 0.5,
    strict: bool = False,
    write_baseline_instead: bool = False,
    ignore_gone: bool = False,
    emit=print,
) -> int:
    """The full artifact-vs-baseline flow; returns a process exit code.

    This is the one implementation behind ``repro bench compare``.  Exit
    codes: ``0`` clean (or non-strict warnings), ``1`` strict-mode gate
    violation, ``2`` malformed input.
    """
    artifact_path, baseline_path = Path(artifact_path), Path(baseline_path)
    try:
        artifact = read_artifact(artifact_path)
    except MalformedArtifactError as error:
        emit(f"error: {error}")
        return 2

    if write_baseline_instead:
        meta = write_baseline(baseline_path, artifact)
        emit(
            f"baseline written: {baseline_path} ({len(artifact)} benchmarks, "
            f"{meta.describe()})"
        )
        return 0

    if not baseline_path.is_file():
        emit(f"no baseline at {baseline_path} — nothing to compare")
        return 0
    try:
        baseline, baseline_meta = read_baseline(baseline_path)
    except MalformedArtifactError as error:
        emit(f"error: {error}")
        return 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rendered in the report
        result = compare(artifact.means, baseline, tolerance)
    emit(
        format_comparison(
            result,
            current_label=artifact_path.name,
            baseline_label=baseline_path.name,
            baseline_meta=baseline_meta,
            ignore_gone=ignore_gone,
        )
    )
    if result.violations(ignore_gone=ignore_gone):
        return 1 if strict else 0
    return 0
