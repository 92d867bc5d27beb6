"""Name-based pass registry feeding the staged pipeline.

Every pass that can appear in a compilation schedule is registered under a
``(stage, name)`` pair with a factory that builds it for a concrete
:class:`~repro.transpiler.target.Target`::

    @register_pass("routing", "sabre")
    def _sabre(target, seed=0):
        return SabreRouting(target.coupling_map, seed=seed)

Preset schedules (``optimization_level`` 0..3), the CLI's ``--layout`` /
``--routing`` options and user-assembled pipelines all resolve passes
through this registry.  Registering a new pass makes it addressable
everywhere at once; unknown names fail with the list of registered
options.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.transpiler.passmanager import STAGES, TranspilerPass
from repro.transpiler.passes.basis_translation import BasisTranslation
from repro.transpiler.passes.cancellation import CancelAdjacentInverses
from repro.transpiler.passes.commutation import CommutativeCancellation
from repro.transpiler.passes.decompose_multi import DecomposeMultiQubit
from repro.transpiler.passes.layout_passes import (
    DenseLayout,
    InteractionGraphLayout,
    TrivialLayout,
)
from repro.transpiler.passes.noise_aware_routing import NoiseAwareLayout, NoiseAwareRouting
from repro.transpiler.passes.optimize import Optimize1qGates, RemoveBarriers
from repro.transpiler.passes.routing import SabreRouting, StochasticRouting
from repro.transpiler.passes.routing_extra import BasicRouting
from repro.transpiler.passes.schedule_analysis import ScheduleAnalysis
from repro.transpiler.passes.vf2_layout import VF2Layout
from repro.transpiler.target import Target

#: A factory builds a pass for one target; ``seed`` is the only threaded
#: option so that every registered pass stays constructible uniformly.
PassFactory = Callable[..., TranspilerPass]

_REGISTRY: Dict[str, Dict[str, PassFactory]] = {stage: {} for stage in STAGES}


def register_pass(stage: str, name: str) -> Callable[[PassFactory], PassFactory]:
    """Decorator: register ``factory(target, seed=0)`` under (stage, name).

    Re-registering a name overwrites the previous factory, so downstream
    projects can swap a built-in implementation for their own.
    """
    if stage not in _REGISTRY:
        raise ValueError(f"unknown stage {stage!r}; stages are {list(STAGES)}")

    def decorator(factory: PassFactory) -> PassFactory:
        _REGISTRY[stage][name] = factory
        return factory

    return decorator


def available_passes(stage: Optional[str] = None):
    """Registered pass names: a sorted list for one stage, else a dict."""
    if stage is None:
        return {s: sorted(names) for s, names in _REGISTRY.items()}
    if stage not in _REGISTRY:
        raise ValueError(f"unknown stage {stage!r}; stages are {list(STAGES)}")
    return sorted(_REGISTRY[stage])


def make_pass(stage: str, name: str, target: Target, seed: int = 0) -> TranspilerPass:
    """Build the registered pass ``name`` of ``stage`` for ``target``.

    Raises ``ValueError`` naming the registered options when ``name`` is
    unknown — the error surfaced by the CLI on a bad ``--layout`` /
    ``--routing`` value.
    """
    if stage not in _REGISTRY:
        raise ValueError(f"unknown stage {stage!r}; stages are {list(STAGES)}")
    factory = _REGISTRY[stage].get(name)
    if factory is None:
        raise ValueError(
            f"unknown {stage} pass {name!r}; registered options: "
            f"{available_passes(stage)}"
        )
    return factory(target, seed=seed)


# -- built-in registrations ---------------------------------------------------
# init


@register_pass("init", "decompose_multi")
def _decompose_multi(target: Target, seed: int = 0) -> TranspilerPass:
    return DecomposeMultiQubit()


@register_pass("init", "remove_barriers")
def _remove_barriers_init(target: Target, seed: int = 0) -> TranspilerPass:
    return RemoveBarriers()


# layout


@register_pass("layout", "trivial")
def _trivial_layout(target: Target, seed: int = 0) -> TranspilerPass:
    return TrivialLayout(target.coupling_map)


@register_pass("layout", "dense")
def _dense_layout(target: Target, seed: int = 0) -> TranspilerPass:
    return DenseLayout(target.coupling_map)


@register_pass("layout", "interaction")
def _interaction_layout(target: Target, seed: int = 0) -> TranspilerPass:
    return InteractionGraphLayout(target.coupling_map, seed=seed)


@register_pass("layout", "vf2")
def _vf2_layout(target: Target, seed: int = 0) -> TranspilerPass:
    return VF2Layout(target.coupling_map, fallback=DenseLayout(target.coupling_map))


@register_pass("layout", "noise_aware")
def _noise_aware_layout(target: Target, seed: int = 0) -> TranspilerPass:
    return NoiseAwareLayout(target.coupling_map, noise_model=target.noise_model)


# routing


@register_pass("routing", "sabre")
def _sabre_routing(target: Target, seed: int = 0) -> TranspilerPass:
    return SabreRouting(target.coupling_map, seed=seed)


@register_pass("routing", "stochastic")
def _stochastic_routing(target: Target, seed: int = 0) -> TranspilerPass:
    return StochasticRouting(target.coupling_map, seed=seed)


@register_pass("routing", "basic")
def _basic_routing(target: Target, seed: int = 0) -> TranspilerPass:
    return BasicRouting(target.coupling_map)


@register_pass("routing", "noise_aware")
def _noise_aware_routing(target: Target, seed: int = 0) -> TranspilerPass:
    return NoiseAwareRouting(
        target.coupling_map, noise_model=target.noise_model, seed=seed
    )


# translation


@register_pass("translation", "count")
def _count_translation(target: Target, seed: int = 0) -> TranspilerPass:
    return BasisTranslation(target.basis, mode="count")


@register_pass("translation", "synthesis")
def _synthesis_translation(target: Target, seed: int = 0) -> TranspilerPass:
    return BasisTranslation(target.basis, mode="synthesis")


# optimization


@register_pass("optimization", "cancel_inverses")
def _cancel_inverses(target: Target, seed: int = 0) -> TranspilerPass:
    return CancelAdjacentInverses()


@register_pass("optimization", "commutative_cancellation")
def _commutative_cancellation(target: Target, seed: int = 0) -> TranspilerPass:
    return CommutativeCancellation()


@register_pass("optimization", "merge_1q")
def _merge_1q(target: Target, seed: int = 0) -> TranspilerPass:
    return Optimize1qGates()


@register_pass("optimization", "remove_barriers")
def _remove_barriers_opt(target: Target, seed: int = 0) -> TranspilerPass:
    return RemoveBarriers()


# scheduling


@register_pass("scheduling", "asap")
def _asap_schedule(target: Target, seed: int = 0) -> TranspilerPass:
    return ScheduleAnalysis(target.gate_durations(), discipline="asap")


@register_pass("scheduling", "alap")
def _alap_schedule(target: Target, seed: int = 0) -> TranspilerPass:
    return ScheduleAnalysis(target.gate_durations(), discipline="alap")


def _registered_stage_names() -> List[str]:
    """All (stage, name) pairs, for reporting and tests."""
    return [f"{stage}:{name}" for stage in STAGES for name in sorted(_REGISTRY[stage])]
