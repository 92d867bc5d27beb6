"""Staged transpilation entry point (paper Fig. 10, generalised).

``transpile`` compiles a circuit onto a :class:`~repro.transpiler.target.
Target` through the staged pipeline ``init -> layout -> routing ->
translation -> optimization -> scheduling``, with ``optimization_level``
selecting a preset stage schedule:

* **0** — fastest: dense layout, basic shortest-path routing, basis
  translation.  No optimization.
* **1** — the paper's evaluation flow (the default): dense layout, SABRE
  routing, counting translation.  Reproduces Fig. 10 exactly.
* **2** — level 1 plus gate optimization on the routed circuit:
  adjacent-inverse and commutation-aware cancellation (removing
  back-to-back routing SWAPs before translation multiplies them into
  basis pulses), plus post-translation cancellation and 1Q-gate merging
  in ``synthesis`` mode.  Never increases any 2Q metric relative to
  level 1.
* **3** — level 2 with a SWAP-free VF2 embedding attempt (dense
  fallback), noise-aware routing whenever the target carries a noise
  model, and duration-aware ASAP scheduling whose makespan is reported in
  ``metrics.extra["duration_ns"]``.

Every stage is fed from the name-based pass registry
(:mod:`repro.transpiler.registry`), so ``layout_method="vf2"`` or a newly
``@register_pass``-ed router are equally addressable.  The collected
metrics are the paper's four counter sets (SWAPs and 2Q gates, total and
critical-path) plus scheduling aggregates when a scheduling stage ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import SHARED_DAG_PROPERTY
from repro.decomposition.basis import BasisGateSpec, get_basis
from repro.topology.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.metrics import TranspileMetrics
from repro.transpiler.passmanager import PropertySet, StagedPassManager
from repro.transpiler.registry import make_pass
from repro.transpiler.target import Target

#: Preset stage schedules, one per optimization level.  ``None`` routing at
#: level 3 resolves to "noise_aware" when the target carries a noise model
#: (the paper's uniform-fidelity assumption makes it pure overhead
#: otherwise, so it falls back to SABRE).
#:
#: The routing-stage cleanup operates on the *routed* circuit — original
#: gates plus induced SWAPs, a semantically faithful circuit — so inverse
#: cancellation there is always sound and every downstream 2Q metric can
#: only shrink.  The post-translation optimization stage, in contrast, only
#: runs in ``synthesis`` mode: "count" mode stands each 2Q gate in for
#: ``k`` bare basis-gate copies without the interleaved 1Q gates, where
#: adjacent-inverse cancellation would be a counting artifact, not an
#: optimization.
_CLEANUP = ("cancel_inverses", "commutative_cancellation")
_SYNTHESIS_OPTIMIZATION = ("cancel_inverses", "commutative_cancellation", "merge_1q")

_LEVEL_PRESETS: Dict[int, Dict[str, object]] = {
    0: {
        "layout": "dense",
        "routing": "basic",
        "routing_cleanup": (),
        "optimize": False,
        "scheduling": None,
    },
    1: {
        "layout": "dense",
        "routing": "sabre",
        "routing_cleanup": (),
        "optimize": False,
        "scheduling": None,
    },
    2: {
        "layout": "dense",
        "routing": "sabre",
        "routing_cleanup": _CLEANUP,
        "optimize": True,
        "scheduling": None,
    },
    3: {
        "layout": "vf2",
        "routing": None,
        "routing_cleanup": _CLEANUP,
        "optimize": True,
        "scheduling": "asap",
    },
}


@dataclass
class TranspileResult:
    """Everything produced by one transpilation run."""

    circuit: QuantumCircuit
    routed_circuit: QuantumCircuit
    metrics: TranspileMetrics
    initial_layout: Layout
    final_layout: Layout
    properties: PropertySet

    @property
    def schedule(self):
        """The duration-aware schedule, when a scheduling stage ran."""
        return self.properties.get("schedule")


def _resolve_target(
    target: Union[Target, CouplingMap],
    basis: Optional[BasisGateSpec],
    basis_name: Optional[str],
) -> Target:
    """Accept a Target directly or a bare CouplingMap plus basis spec/name."""
    if isinstance(target, Target):
        if basis is not None or basis_name is not None:
            raise ValueError("pass the basis inside the Target, not alongside it")
        return target
    if isinstance(target, CouplingMap):
        return Target(coupling_map=target, basis=basis or get_basis(basis_name or "cx"))
    raise TypeError(
        f"expected a Target or CouplingMap, got {type(target).__name__}"
    )


def available_levels() -> List[int]:
    """The optimization levels the preset table defines (0..3 today)."""
    return sorted(_LEVEL_PRESETS)


def resolve_level(
    target: Target,
    optimization_level: int,
    layout_method: Optional[str] = None,
    routing_method: Optional[str] = None,
    translation_mode: Optional[str] = None,
    scheduling_method: Optional[str] = None,
) -> Dict[str, object]:
    """The effective stage schedule for a level, with explicit overrides."""
    if optimization_level not in _LEVEL_PRESETS:
        raise ValueError(
            f"unknown optimization level {optimization_level!r}; "
            f"levels are {sorted(_LEVEL_PRESETS)}"
        )
    preset = dict(_LEVEL_PRESETS[optimization_level])
    if preset["routing"] is None:
        preset["routing"] = "noise_aware" if target.noise_model is not None else "sabre"
    if layout_method is not None:
        preset["layout"] = layout_method
    if routing_method is not None:
        preset["routing"] = routing_method
    preset["translation"] = translation_mode or "count"
    # Post-translation optimization only makes sense on explicit circuits.
    preset["optimization"] = (
        _SYNTHESIS_OPTIMIZATION
        if preset["optimize"] and preset["translation"] == "synthesis"
        else ()
    )
    if scheduling_method is not None:
        preset["scheduling"] = scheduling_method
    return preset


def _manager_from_schedule(
    target: Target, schedule: Dict[str, object], seed: int
) -> StagedPassManager:
    """Build the staged manager for an already-resolved stage schedule."""
    stages: Dict[str, List] = {
        "init": [make_pass("init", "decompose_multi", target, seed=seed)],
        "layout": [make_pass("layout", schedule["layout"], target, seed=seed)],
        "routing": [make_pass("routing", schedule["routing"], target, seed=seed)]
        + [
            make_pass("optimization", name, target, seed=seed)
            for name in schedule["routing_cleanup"]
        ],
        "translation": [
            make_pass("translation", schedule["translation"], target, seed=seed)
        ],
        "optimization": [
            make_pass("optimization", name, target, seed=seed)
            for name in schedule["optimization"]
        ],
        "scheduling": (
            [make_pass("scheduling", schedule["scheduling"], target, seed=seed)]
            if schedule["scheduling"]
            else []
        ),
    }
    return StagedPassManager(stages)


def build_staged_pass_manager(
    target: Target,
    optimization_level: int = 1,
    layout_method: Optional[str] = None,
    routing_method: Optional[str] = None,
    translation_mode: Optional[str] = None,
    scheduling_method: Optional[str] = None,
    seed: int = 0,
) -> StagedPassManager:
    """Assemble the staged schedule for one level from the pass registry."""
    schedule = resolve_level(
        target,
        optimization_level,
        layout_method=layout_method,
        routing_method=routing_method,
        translation_mode=translation_mode,
        scheduling_method=scheduling_method,
    )
    return _manager_from_schedule(target, schedule, seed)


def transpile(
    circuit: QuantumCircuit,
    target: Union[Target, CouplingMap],
    basis: Optional[BasisGateSpec] = None,
    basis_name: Optional[str] = None,
    layout_method: Optional[str] = None,
    routing_method: Optional[str] = None,
    translation_mode: Optional[str] = None,
    seed: int = 0,
    optimization_level: int = 1,
    scheduling_method: Optional[str] = None,
) -> TranspileResult:
    """Transpile ``circuit`` onto a target and collect the paper's metrics.

    Args:
        circuit: the algorithm circuit (virtual qubits ``0..n-1``).
        target: the design point — a :class:`Target`, or a bare
            :class:`CouplingMap` (then ``basis`` / ``basis_name`` supply
            the native gate, as in the legacy API).
        basis: the native two-qubit basis when ``target`` is a coupling
            map; if omitted, looked up from ``basis_name``.
        basis_name: convenience name when ``basis`` is not given
            (defaults to "cx"); like ``basis``, rejected alongside a
            Target, whose own basis always wins.
        layout_method / routing_method: registry pass names overriding the
            level preset (see ``available_passes("layout")`` /
            ``available_passes("routing")``).
        translation_mode: "count" (paper default) or "synthesis".
        seed: routing / layout RNG seed.
        optimization_level: preset schedule 0..3 (see module docstring);
            level 1 is the paper's evaluation flow.
        scheduling_method: "asap" / "alap" to force a scheduling stage at
            any level (level 3 schedules by default).

    Returns:
        A :class:`TranspileResult` with the final circuit, the routed
        (post-cleanup, pre-translation) circuit, both layouts and a
        :class:`~repro.transpiler.metrics.TranspileMetrics` record.
    """
    resolved = _resolve_target(target, basis, basis_name)
    if circuit.num_qubits > resolved.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but topology "
            f"{resolved.coupling_map.name!r} has only {resolved.num_qubits}"
        )
    schedule = resolve_level(
        resolved,
        optimization_level,
        layout_method=layout_method,
        routing_method=routing_method,
        translation_mode=translation_mode,
        scheduling_method=scheduling_method,
    )
    # The metrics' provenance (layout/routing names) and the executed
    # passes come from the same resolved schedule, so they cannot drift.
    manager = _manager_from_schedule(resolved, schedule, seed)
    properties = PropertySet()
    if resolved.noise_model is not None:
        properties["noise_model"] = resolved.noise_model
    final_circuit = manager.run(circuit, properties)
    # The shared DAG only serves passes *within* this compilation; dropping
    # it keeps TranspileResult lean for pickling (worker IPC, disk cache).
    properties.pop(SHARED_DAG_PROPERTY, None)
    # The routing *stage* output includes post-routing cleanup (levels 2+),
    # so SWAP metrics reflect what translation actually consumes.  Custom
    # registered routers may not set the "routed_circuit" property, so it
    # is only required when the stage record is missing.
    routed = properties["stage_circuits"].get("routing")
    if routed is None:
        routed = properties.require("routed_circuit")
    extra: Dict[str, object] = {}
    for source_key, extra_key in (
        ("cancelled_gates", "cancelled_gates"),
        ("commutative_cancelled", "commutative_cancelled"),
        ("scheduled_duration_ns", "duration_ns"),
        ("scheduled_idle_ns", "idle_ns"),
        ("scheduled_parallelism", "parallelism"),
    ):
        if source_key in properties:
            extra[extra_key] = float(properties[source_key])
    if properties.get("stage_times"):
        # Wall-time per compilation stage, surfaced by the CLI's --timing
        # report and the routing benchmarks.
        extra["stage_times"] = {
            stage: float(elapsed)
            for stage, elapsed in properties["stage_times"].items()
        }
    metrics = TranspileMetrics(
        circuit_name=circuit.name,
        circuit_qubits=circuit.num_qubits,
        topology=resolved.coupling_map.name,
        basis=resolved.basis.name,
        total_swaps=routed.swap_count(induced_only=True),
        critical_swaps=routed.critical_path_swaps(induced_only=True),
        total_2q=final_circuit.two_qubit_gate_count(),
        critical_2q=final_circuit.critical_path_two_qubit(),
        weighted_duration=final_circuit.weighted_duration(),
        total_gates=final_circuit.size(),
        depth=int(final_circuit.depth()),
        routing_method=str(schedule["routing"]),
        layout_method=str(schedule["layout"]),
        seed=seed,
        optimization_level=optimization_level,
        extra=extra,
    )
    return TranspileResult(
        circuit=final_circuit,
        routed_circuit=routed,
        metrics=metrics,
        initial_layout=properties.require("layout"),
        final_layout=properties.require("final_layout"),
        properties=properties,
    )
