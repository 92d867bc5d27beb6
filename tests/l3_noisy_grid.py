"""The ``l3-noisy`` benchmark grid, rebuilt for suites that check all of it.

``perfbench/run.py::l3_job`` draws one noise seed per design point (five
large, then six small) and then the circuit seed from
``random.Random(f"l3-noisy:{seed}")``.  It compiles QFT and QAOA at 16
and 24 qubits on the large points and the six paper workloads at 6 and 10
qubits on the small ones, all at ``optimization_level=3``.  The helpers
below repeat that derivation, so a suite can cover exactly the VF2
searches, noisy targets and pass inputs that one benchmark run exercises.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import networkx as nx
from oracles import reference_interaction_graph

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.core.codesign import LARGE_DESIGN_POINTS, SMALL_DESIGN_POINTS
from repro.core.noise import NoiseModel
from repro.core.pipeline import sweep_grid
from repro.topology.coupling import CouplingMap
from repro.transpiler import Target
from repro.transpiler.compile import build_staged_pass_manager
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.passes import DecomposeMultiQubit
from repro.transpiler.passes.vf2_layout import embedding_impossible, interaction_graph
from repro.workloads import PAPER_WORKLOADS, build_workload

#: ``(workloads, sizes, scale, design points)`` of the two sub-grids.
GRIDS = (
    (("QFT", "QAOAVanilla"), (16, 24), "large", LARGE_DESIGN_POINTS),
    (tuple(PAPER_WORKLOADS), (6, 10), "small", SMALL_DESIGN_POINTS),
)


def _seeds(seed: int) -> Tuple[List[int], int]:
    """Per-design-point noise seeds and the circuit seed of benchmark seed ``seed``."""
    rng = random.Random(f"l3-noisy:{seed}")
    noise_seeds = [
        rng.randrange(2**31) for _ in range(len(LARGE_DESIGN_POINTS) + len(SMALL_DESIGN_POINTS))
    ]
    return noise_seeds, rng.randrange(2**31)


def noisy_targets(seed: int) -> List[Target]:
    """The 11 noisy targets of benchmark seed ``seed``, large points first."""
    noise_seeds = iter(_seeds(seed)[0])
    targets = []
    for _, _, scale, points in GRIDS:
        for point in points:
            target = point.target(scale)
            model = NoiseModel.random(target.coupling_map, seed=next(noise_seeds))
            targets.append(target.with_noise(model))
    return targets


def vf2_searches(
    seed: int,
) -> List[Tuple[str, CouplingMap, Dict[int, Dict[int, int]], nx.Graph]]:
    """``(label, device, pattern, reference pattern)`` of every search the pre-check lets through.

    The pattern is the interaction graph ``VF2Layout`` builds after the
    level-3 init stage, and the reference pattern the same graph as the
    networkx graph the oracle searches; searches that
    ``embedding_impossible`` rejects, and gate-free patterns, never reach
    the search and are left out.
    """
    circuit_seed = _seeds(seed)[1]
    searches = []
    for workloads, sizes, scale, points in GRIDS:
        devices = [point.target(scale).coupling_map for point in points]
        for workload in workloads:
            for size in sizes:
                circuit = DecomposeMultiQubit().run(
                    build_workload(workload, size, seed=circuit_seed), PropertySet()
                )
                interactions = DAGCircuit(circuit).two_qubit_interactions()
                pattern = interaction_graph(circuit, interactions)
                reference = reference_interaction_graph(circuit, interactions)
                for device in devices:
                    if (
                        size <= device.num_qubits
                        and interactions
                        and not embedding_impossible(pattern, device.adjacency())
                    ):
                        label = f"{workload}-{size}@{device.name}"
                        searches.append((label, device, pattern, reference))
    return searches


def pass_inputs(seed: int, pass_name: str) -> List[Tuple[str, Target, QuantumCircuit]]:
    """``(label, target, circuit)`` per point: the circuit the pass ``pass_name`` receives.

    Every point of benchmark seed ``seed`` is compiled at
    ``optimization_level=3`` pass by pass, with the property set seeded as
    :func:`repro.transpiler.transpile` seeds it, and the input of the pass
    named ``pass_name`` is kept (``"commutative_cancellation"`` for the
    routed circuits after inverse cancellation, ``"schedule_analysis"`` for
    the final circuits).
    """
    targets = iter(noisy_targets(seed))
    circuit_seed = _seeds(seed)[1]
    inputs = []
    for workloads, sizes, _, points in GRIDS:
        grid_targets = [next(targets) for _ in points]
        for workload, size, target in sweep_grid(workloads, sizes, grid_targets):
            circuit = build_workload(workload, size, seed=circuit_seed)
            properties = PropertySet()
            if target.noise_model is not None:
                properties["noise_model"] = target.noise_model
            manager = build_staged_pass_manager(target, 3, seed=circuit_seed)
            for passes in manager.stages.values():
                for transpiler_pass in passes:
                    if transpiler_pass.name == pass_name:
                        inputs.append((f"{workload}-{size}@{target.name}", target, circuit))
                    circuit = transpiler_pass.run(circuit, properties)
    return inputs
