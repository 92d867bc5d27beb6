"""Trajectory rendering: terminal and markdown tables with sparklines.

One row per benchmark: how many runs the series holds, a sparkline of
the recorded means (oldest → newest), the first and latest values, and
the newest run's delta against :meth:`BenchHistory.rolling_baseline` —
the baseline ``repro bench check`` gates on, so the report and the gate
can never tell different stories.  A benchmark absent from the newest
run, or one whose baseline is below :data:`ZERO_BASELINE_FLOOR`, shows
``n/a`` (the gate reports the first as gone and skips the second).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.compare import ZERO_BASELINE_FLOOR
from repro.bench.history import BenchHistory

#: Eight-level block characters, lowest to highest.
SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of a numeric series (flat series render mid-level)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high - low <= 0:
        return SPARK_LEVELS[3] * len(values)
    scale = (len(SPARK_LEVELS) - 1) / (high - low)
    return "".join(
        SPARK_LEVELS[int(round((value - low) * scale))] for value in values
    )


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{1e3 * value:.2f}ms"
    return f"{1e6 * value:.1f}us"


def format_report(
    history: BenchHistory, *, markdown: bool = False, window: int = 5
) -> str:
    """Render the full per-benchmark trajectory table."""
    runs = history.runs()
    all_series = history.all_series()
    header_bits = [f"bench history [{history.root}]: {len(runs)} run(s), "
                   f"{len(all_series)} benchmark(s)"]
    if runs:
        latest = runs[-1]
        sha = (latest.get("git_sha") or "unknown")[:12]
        header_bits.append(
            f"latest run #{latest['run']}: sha={sha} "
            f"date={latest.get('timestamp') or 'unknown'} "
            f"host={latest.get('host') or 'unknown'}"
        )
    if not all_series:
        return "\n".join(header_bits + ["(empty history — run `repro bench record`)"])

    latest_id = runs[-1]["run"] if runs else None
    baseline = history.rolling_baseline(window=window, before_run=latest_id)
    rows = []
    for name, entries in sorted(all_series.items()):
        means = [entry.mean for entry in entries]
        base = baseline.get(name)
        delta: Optional[float] = None
        if entries[-1].run == latest_id and base is not None and base >= ZERO_BASELINE_FLOOR:
            delta = means[-1] / base - 1.0
        rows.append(
            (
                name,
                str(len(entries)),
                sparkline(means[-16:]),
                _format_seconds(means[0]),
                _format_seconds(means[-1]),
                "n/a" if delta is None else f"{delta:+.1%}",
            )
        )

    columns = ("benchmark", "runs", "trend", "first", "latest",
               f"Δ vs median[{window}]")
    if markdown:
        lines = ["# Benchmark trajectory", ""]
        lines += list(header_bits)
        lines += ["", "| " + " | ".join(columns) + " |",
                  "|" + "|".join("---" for _ in columns) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    widths = [
        max(len(columns[index]), *(len(row[index]) for row in rows))
        for index in range(len(columns))
    ]
    lines = header_bits + [""]
    lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
