"""Core co-design layer: design points, fidelity models, sweeps."""

from repro.core.codesign import (
    LARGE_DESIGN_POINTS,
    SMALL_DESIGN_POINTS,
    CodesignPoint,
    design_points,
    design_targets,
)
from repro.core.fidelity import (
    FidelityModel,
    best_total_fidelity,
    compare_designs,
    decomposition_total_fidelity,
    nth_root_pulse_fidelity,
)
from repro.core.noise import NoiseModel
from repro.core.pipeline import SweepResult, run_point, run_sweep
from repro.core.reliability import (
    ReliabilityEstimate,
    ReliabilityModel,
    format_reliability_report,
    reliability_ranking,
    simulated_reliability_check,
)
from repro.core.sensitivity import (
    RootStudyResult,
    SensitivityStudyResult,
    format_sensitivity_report,
    pulse_duration_sensitivity_study,
)
from repro.core.statistics import (
    MetricSummary,
    compare_backends,
    format_comparison,
    ordering_stability,
    seed_sweep,
)

__all__ = [
    "LARGE_DESIGN_POINTS",
    "SMALL_DESIGN_POINTS",
    "CodesignPoint",
    "design_points",
    "design_targets",
    "FidelityModel",
    "best_total_fidelity",
    "compare_designs",
    "decomposition_total_fidelity",
    "nth_root_pulse_fidelity",
    "NoiseModel",
    "ReliabilityEstimate",
    "ReliabilityModel",
    "format_reliability_report",
    "reliability_ranking",
    "simulated_reliability_check",
    "SweepResult",
    "run_point",
    "run_sweep",
    "RootStudyResult",
    "SensitivityStudyResult",
    "format_sensitivity_report",
    "pulse_duration_sensitivity_study",
    "MetricSummary",
    "compare_backends",
    "format_comparison",
    "ordering_stability",
    "seed_sweep",
]
