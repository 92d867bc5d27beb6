"""Seed-sweep statistics for the transpilation heuristics.

The paper notes (Section 6.2) that placement and routing heuristics are
noisy: gate counts are not always monotone in problem size and a single
seed can flatter one topology.  This module provides the machinery to make
any comparison seed-robust:

* :func:`seed_sweep` — run the same (workload, size, backend) point over
  many seeds and collect each metric's distribution,
* :class:`MetricSummary` — mean / standard deviation / extremes of one
  metric,
* :func:`compare_backends` — per-backend summaries for a fixed workload,
* :func:`ordering_stability` — how often one backend beats another across
  seeds, which is the statistic the ablation benchmarks assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import run_point
from repro.transpiler.target import Target

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runner import ExperimentRunner


@dataclass(frozen=True)
class MetricSummary:
    """Distribution summary of one metric over a seed sweep."""

    metric: str
    mean: float
    std: float
    minimum: float
    maximum: float
    samples: int

    @classmethod
    def from_values(cls, metric: str, values: Sequence[float]) -> "MetricSummary":
        """Summarise a non-empty sequence of measurements."""
        if not values:
            raise ValueError("cannot summarise an empty sample")
        array = np.asarray(values, dtype=float)
        return cls(
            metric=metric,
            mean=float(array.mean()),
            std=float(array.std(ddof=1)) if len(array) > 1 else 0.0,
            minimum=float(array.min()),
            maximum=float(array.max()),
            samples=len(array),
        )

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.mean:.1f} +/- {self.std:.1f} "
            f"(min {self.minimum:.0f}, max {self.maximum:.0f}, n={self.samples})"
        )


def seed_sweep(
    workload: str,
    num_qubits: int,
    backend: Target,
    seeds: Sequence[int],
    metrics: Sequence[str] = ("total_swaps", "critical_swaps", "total_2q", "critical_2q"),
    layout_method: str = "dense",
    routing_method: str = "sabre",
    runner: Optional["ExperimentRunner"] = None,
) -> Dict[str, MetricSummary]:
    """Run one design point over many seeds and summarise each metric.

    Seeds are independent trials, so ``runner`` fans them out over worker
    processes with identical summaries.
    """
    if not seeds:
        raise ValueError("seed_sweep needs at least one seed")
    tasks = [
        (workload, num_qubits, backend, int(seed), layout_method, routing_method)
        for seed in seeds
    ]
    if runner is None:
        from repro.runtime.runner import serial_runner

        runner = serial_runner()
    records = runner.map(run_point, tasks, labels=[f"seed {seed}" for seed in seeds])
    values: Dict[str, List[float]] = {metric: [] for metric in metrics}
    for record in records:
        data = record.as_dict()
        for metric in metrics:
            values[metric].append(float(data[metric]))
    return {
        metric: MetricSummary.from_values(metric, samples)
        for metric, samples in values.items()
    }


def compare_backends(
    backends: Sequence[Target],
    workload: str,
    num_qubits: int,
    seeds: Sequence[int],
    metric: str = "total_2q",
    **sweep_options,
) -> Dict[str, MetricSummary]:
    """Seed-sweep summary of one metric for every backend."""
    return {
        backend.name: seed_sweep(
            workload, num_qubits, backend, seeds, metrics=(metric,), **sweep_options
        )[metric]
        for backend in backends
    }


def ordering_stability(
    better: Target,
    worse: Target,
    workload: str,
    num_qubits: int,
    seeds: Sequence[int],
    metric: str = "total_2q",
    **sweep_options,
) -> float:
    """Fraction of seeds for which ``better`` really beats ``worse`` on ``metric``.

    1.0 means the comparison is seed-independent; 0.5 means it is a coin
    flip (pure heuristic noise).
    """
    if not seeds:
        raise ValueError("ordering_stability needs at least one seed")
    wins = 0
    for seed in seeds:
        better_value = run_point(workload, num_qubits, better, seed=int(seed), **sweep_options)
        worse_value = run_point(workload, num_qubits, worse, seed=int(seed), **sweep_options)
        if better_value.as_dict()[metric] < worse_value.as_dict()[metric]:
            wins += 1
    return wins / len(seeds)


def format_comparison(summaries: Dict[str, MetricSummary]) -> str:
    """Text table of per-backend metric summaries, best mean first."""
    lines = ["Seed-sweep comparison"]
    width = max(len(name) for name in summaries) if summaries else 10
    for name, summary in sorted(summaries.items(), key=lambda item: item[1].mean):
        lines.append(f"  {name:<{width}}  {summary}")
    return "\n".join(lines)
