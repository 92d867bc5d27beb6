"""The benchmark-comparison core behind ``repro bench check``.

:func:`compare` buckets one run against one baseline within a tolerance
band, and :func:`format_comparison` renders the verdict, so the gate and
its report cannot drift apart.

Gate rules (all pinned by ``tests/bench/``):

* **regressions** — a compared benchmark slower than ``1 + tolerance``
  times its baseline mean;
* **gone benchmarks** — a baseline entry absent from the current run.
  A deleted or renamed benchmark silently leaves regression coverage
  forever if this only warns, so the gate fails on it;
* **empty overlap** — a non-empty baseline sharing *no* names with the
  current run.  A run whose benchmarks were all renamed used to print
  "no regressions beyond tolerance" and exit 0 — vacuous truth as a
  green check.

Zero-mean baselines are a trap: ``current / max(baseline, 1e-12)``
turns any genuinely-zero (or denormal-tiny) baseline entry into a
guaranteed astronomic "regression" on every later run.  Entries whose
baseline mean is below :data:`ZERO_BASELINE_FLOOR` are skipped, and named
on one ``WARNING:`` line of the report, instead of being compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

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

    def violations(self) -> List[str]:
        """Human-readable gate violations (empty list = gate passes)."""
        problems: List[str] = []
        if self.regressions:
            problems.append(
                f"{len(self.regressions)} benchmark(s) regressed beyond "
                f"{self.tolerance:.0%}"
            )
        if self.gone:
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

    ``tolerance`` must be a finite number >= 0: a NaN or infinite band
    would pass any slowdown, and a negative one would fail every
    benchmark, so both raise :class:`ValueError`.

    Baseline entries with a mean below :data:`ZERO_BASELINE_FLOOR` are
    collected into ``skipped_zero_baseline`` (which
    :func:`format_comparison` reports) instead of producing a
    division-driven fake regression.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
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
    return result


def _format_rows(label: str, rows: Sequence[Row]) -> List[str]:
    if not rows:
        return []
    lines = [f"{label}:"]
    for name, base, mean, ratio in rows:
        lines.append(f"  {name}: {base:.4f}s -> {mean:.4f}s ({ratio:.2f}x)")
    return lines


def format_comparison(
    result: Comparison, *, current_label: str, baseline_label: str
) -> str:
    """The comparison report that ``repro bench check`` prints."""
    lines = [
        f"benchmark comparison: {current_label} vs {baseline_label} "
        f"(tolerance ±{result.tolerance:.0%})"
    ]
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
    violations = result.violations()
    if violations:
        for problem in violations:
            lines.append(f"WARNING: {problem}")
    else:
        lines.append("no regressions beyond tolerance")
    return "\n".join(lines)
