"""Experiment: the paper's headline aggregate ratios.

The abstract and Section 6.1 summarise the evaluation with a handful of
ratios averaged over Quantum Volume circuits from 16 to 80 qubits:

* Hypercube needs 2.57x fewer total SWAPs and 5.63x fewer critical-path
  SWAPs than Heavy-Hex (topology-only comparison);
* Hypercube + sqrt(iSWAP) needs 3.16x fewer total 2Q gates and 6.11x fewer
  duration-dependent (critical-path) 2Q gates than Heavy-Hex + CNOT (the
  full co-design comparison).

This module recomputes those aggregates from the reproduction's own sweep
data so they can be placed next to the paper's numbers (``repro headline``
prints both; see the README's "Experiments" section).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runner import ExperimentRunner

from repro.core.pipeline import SweepResult, run_sweep
from repro.transpiler.target import make_target
from repro.experiments.paper_values import HEADLINE_RATIOS
from repro.experiments.swap_study import LARGE_SIZES_FULL, LARGE_SIZES_QUICK, full_runs_enabled
from repro.topology.registry import HEAVY_HEX, HYPERCUBE, large_topologies
from repro.workloads.registry import QUANTUM_VOLUME


#: The record field behind each ratio.  The paper's 6.11 is the
#: *duration-dependent* critical-path 2Q ratio, so it is compared with
#: ``weighted_duration`` (a sqrt(iSWAP) counts half a CNOT pulse), not with
#: the unweighted ``critical_2q``.
_RATIO_FIELDS = {
    "total_swaps_ratio": "total_swaps",
    "critical_swaps_ratio": "critical_swaps",
    "total_2q_ratio": "total_2q",
    "critical_2q_ratio": "weighted_duration",
}


@dataclass(frozen=True)
class HeadlineRatios:
    """Measured aggregate ratios with the paper's values alongside.

    ``critical_2q_ratio`` is the duration-weighted critical-path ratio
    (from ``weighted_duration``; see :data:`_RATIO_FIELDS`).
    """

    total_swaps_ratio: float
    critical_swaps_ratio: float
    total_2q_ratio: float
    critical_2q_ratio: float
    sizes: tuple

    def as_dict(self) -> Dict[str, float]:
        return {
            "hypercube_vs_heavyhex_total_swaps": self.total_swaps_ratio,
            "hypercube_vs_heavyhex_critical_swaps": self.critical_swaps_ratio,
            "hypercube_siswap_vs_heavyhex_cx_total_2q": self.total_2q_ratio,
            "hypercube_siswap_vs_heavyhex_cx_critical_2q": self.critical_2q_ratio,
        }

    def compared_to_paper(self) -> Dict[str, Dict[str, float]]:
        """Measured vs. paper values for every headline ratio."""
        measured = self.as_dict()
        return {
            key: {"measured": measured[key], "paper": HEADLINE_RATIOS[key]}
            for key in measured
        }


def _mean_ratio(
    result: SweepResult, metric: str, numerator_backend: str, denominator_backend: str
) -> float:
    """Geometric-mean-free average of per-size ratios numerator/denominator."""
    numerator = {
        record.circuit_qubits: record.as_dict()[metric]
        for record in result
        if record.extra.get("backend") == numerator_backend
    }
    denominator = {
        record.circuit_qubits: record.as_dict()[metric]
        for record in result
        if record.extra.get("backend") == denominator_backend
    }
    ratios = [
        numerator[size] / denominator[size]
        for size in numerator
        if size in denominator and denominator[size] > 0
    ]
    if not ratios:
        raise ValueError(f"no overlapping sizes for metric {metric}")
    return float(np.mean(ratios))


def headline_study(
    sizes: Optional[Sequence[int]] = None,
    seed: int = 11,
    runner: Optional["ExperimentRunner"] = None,
) -> HeadlineRatios:
    """Recompute the paper's headline QV ratios (Heavy-Hex vs Hypercube)."""
    if sizes is None:
        sizes = LARGE_SIZES_FULL if full_runs_enabled() else LARGE_SIZES_QUICK
    registry = large_topologies()
    targets = [
        make_target(registry[HEAVY_HEX], "cx", name="Heavy-Hex-CX"),
        make_target(registry[HYPERCUBE], "siswap", name="Hypercube-siswap"),
    ]
    result = run_sweep([QUANTUM_VOLUME], sizes, targets, seed=seed, runner=runner)
    return HeadlineRatios(
        **{
            name: _mean_ratio(result, metric, "Heavy-Hex-CX", "Hypercube-siswap")
            for name, metric in _RATIO_FIELDS.items()
        },
        sizes=tuple(sizes),
    )


def format_headline_report(ratios: HeadlineRatios) -> str:
    """Render the measured-vs-paper headline comparison."""
    lines = [
        "Headline ratios (Heavy-Hex+CX relative to Hypercube+sqrt(iSWAP)),",
        f"averaged over Quantum Volume circuits of sizes {list(ratios.sizes)}:",
        "",
        f"{'metric':<46}{'measured':>10}{'paper':>8}",
    ]
    for key, values in ratios.compared_to_paper().items():
        lines.append(f"{key:<46}{values['measured']:>10.2f}{values['paper']:>8.2f}")
    return "\n".join(lines)
