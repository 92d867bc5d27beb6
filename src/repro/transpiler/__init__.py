"""Transpiler: layout, routing, basis translation and metric collection."""

from repro.transpiler.layout import Layout
from repro.transpiler.metrics import TranspileMetrics, format_metrics_table
from repro.transpiler.passmanager import (
    STAGES,
    PassManager,
    PropertySet,
    StagedPassManager,
    TranspilerPass,
)
from repro.transpiler.target import Target, make_target
from repro.transpiler.passes.basis_translation import (
    BasisTranslation,
    BasisTranslationError,
)
from repro.transpiler.passes.cancellation import CancelAdjacentInverses
from repro.transpiler.passes.commutation import CommutativeCancellation
from repro.transpiler.passes.decompose_multi import DecomposeMultiQubit
from repro.transpiler.passes.layout_passes import (
    DenseLayout,
    InteractionGraphLayout,
    TrivialLayout,
)
from repro.transpiler.passes.optimize import Optimize1qGates, RemoveBarriers
from repro.transpiler.passes.routing import (
    RoutingError,
    SabreRouting,
    StochasticRouting,
)
from repro.transpiler.passes.noise_aware_routing import NoiseAwareLayout, NoiseAwareRouting
from repro.transpiler.passes.routing_extra import BasicRouting
from repro.transpiler.passes.vf2_layout import VF2Layout
from repro.transpiler.scheduling import (
    GateDurations,
    Schedule,
    TimedInstruction,
    critical_path_duration,
    schedule_alap,
    schedule_asap,
)
from repro.transpiler.passes.schedule_analysis import ScheduleAnalysis
from repro.transpiler.registry import available_passes, make_pass, register_pass
from repro.transpiler.compile import (
    TranspileResult,
    available_levels,
    build_staged_pass_manager,
    transpile,
)
from repro.transpiler.batch import circuit_fingerprint, transpile_batch

__all__ = [
    "Layout",
    "TranspileMetrics",
    "format_metrics_table",
    "STAGES",
    "PassManager",
    "PropertySet",
    "StagedPassManager",
    "TranspilerPass",
    "Target",
    "make_target",
    "available_passes",
    "make_pass",
    "register_pass",
    "ScheduleAnalysis",
    "BasisTranslation",
    "BasisTranslationError",
    "CancelAdjacentInverses",
    "CommutativeCancellation",
    "DecomposeMultiQubit",
    "DenseLayout",
    "InteractionGraphLayout",
    "TrivialLayout",
    "Optimize1qGates",
    "RemoveBarriers",
    "RoutingError",
    "SabreRouting",
    "StochasticRouting",
    "BasicRouting",
    "NoiseAwareLayout",
    "NoiseAwareRouting",
    "VF2Layout",
    "GateDurations",
    "Schedule",
    "TimedInstruction",
    "critical_path_duration",
    "schedule_alap",
    "schedule_asap",
    "TranspileResult",
    "available_levels",
    "build_staged_pass_manager",
    "transpile",
    "transpile_batch",
    "circuit_fingerprint",
]
