"""Property-based validity suite for *every* registered layout pass.

The silent-invalid-layout class of bug — a pass emitting a partial or
non-injective layout, or one the router then cannot legalise — is pinned
here for all current **and future** passes: the suite enumerates the
``layout`` stage of the pass registry at run time, so registering a new
pass automatically subjects it to the same contract:

* the recorded layout is **complete** (every circuit qubit mapped) and
  **injective** (distinct physical seats, all on the device);
* routing the circuit from that layout yields a physical circuit in which
  every coupling-needing gate (the shared DAG's ``coupling_mask``) acts on
  adjacent physical qubits.

Inputs are seeded random circuits crossed with the paper's coupling-map
families, driven by hypothesis.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.gates import Barrier, CCXGate, CXGate, CZGate, HGate, RZGate, SwapGate, XGate
from repro.topology import CouplingMap, corral_topology, square_lattice
from repro.transpiler import PropertySet
from repro.transpiler.registry import available_passes, make_pass
from repro.transpiler.target import make_target

DEVICES = [
    make_target(CouplingMap.line(9), "siswap", name="line-9"),
    make_target(CouplingMap.ring(10), "siswap", name="ring-10"),
    make_target(square_lattice(3, 3), "siswap", name="lattice-3x3"),
    make_target(corral_topology(6, (1, 1)), "siswap", name="corral-12"),
    make_target(CouplingMap.full(8), "siswap", name="full-8"),
]


def random_circuit(num_qubits: int, seed: int, with_three_qubit: bool) -> QuantumCircuit:
    """A seeded random circuit mixing 1Q/2Q gates, barriers and idle qubits."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"random-{num_qubits}-{seed}")
    for _ in range(int(rng.integers(1, 4 * num_qubits + 2))):
        roll = rng.random()
        if roll < 0.35:
            gate = HGate() if rng.random() < 0.5 else XGate()
            circuit.append(gate, (int(rng.integers(num_qubits)),))
        elif roll < 0.45:
            circuit.append(RZGate(float(rng.random())), (int(rng.integers(num_qubits)),))
        elif roll < 0.55 and num_qubits >= 2:
            circuit.append(Barrier(num_qubits), tuple(range(num_qubits)))
        elif roll < 0.92 and num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            gate = [CXGate(), CZGate(), SwapGate()][int(rng.integers(3))]
            circuit.append(gate, (int(a), int(b)))
        elif with_three_qubit and num_qubits >= 3:
            a, b, c = rng.choice(num_qubits, size=3, replace=False)
            circuit.append(CCXGate(), (int(a), int(b), int(c)))
    return circuit


def assert_complete_injective(layout, num_virtual: int, num_physical: int) -> None:
    mapping = layout.to_dict()
    assert sorted(mapping) == list(range(num_virtual)), "layout must be complete"
    seats = list(mapping.values())
    assert len(set(seats)) == len(seats), "layout must be injective"
    assert all(0 <= seat < num_physical for seat in seats), "seats must exist"


def assert_routed_respects_coupling(routed, coupling_map) -> None:
    """Every coupling-needing gate must act on adjacent physical qubits."""
    dag = DAGCircuit(routed)
    pairs = dag.qubit_pairs[dag.coupling_mask]
    adjacency = coupling_map.adjacency_matrix()
    assert bool(np.all(adjacency[pairs[:, 0], pairs[:, 1]])) if len(pairs) else True


@settings(max_examples=40, deadline=None)
@given(
    device_index=st.integers(min_value=0, max_value=len(DEVICES) - 1),
    num_qubits=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    with_three_qubit=st.booleans(),
)
def test_every_registered_layout_pass_emits_a_routable_layout(
    device_index, num_qubits, seed, with_three_qubit
):
    target = DEVICES[device_index]
    device = target.coupling_map
    num_qubits = min(num_qubits, device.num_qubits)
    circuit = random_circuit(num_qubits, seed, with_three_qubit)
    for name in available_passes("layout"):
        properties = PropertySet()
        layout_pass = make_pass("layout", name, target, seed=seed % 97)
        layout_pass.run(circuit, properties)
        layout = properties["layout"]
        assert_complete_injective(layout, num_qubits, device.num_qubits)
        router = make_pass("routing", "sabre", target, seed=seed % 89)
        routed = router.run(circuit, properties)
        assert_routed_respects_coupling(routed, device)
        # The routed circuit preserves every original gate (same name
        # multiset among non-induced instructions) and only ever *adds*
        # induced SWAPs.
        assert sorted(inst.name for inst in routed if not inst.induced) == sorted(
            inst.name for inst in circuit
        )
        assert all(inst.name == "swap" for inst in routed if inst.induced)


@settings(max_examples=15, deadline=None)
@given(
    num_qubits=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_vectorized_and_reference_layouts_agree_on_random_circuits(num_qubits, seed):
    """Oracle parity as a property, not only at hand-picked seeds."""
    from oracles import ReferenceDenseLayout, ReferenceInteractionGraphLayout
    from repro.transpiler import DenseLayout, InteractionGraphLayout

    circuit = random_circuit(num_qubits, seed, with_three_qubit=False)
    for device in (square_lattice(3, 3), corral_topology(5, (1, 1))):
        for pass_cls, oracle_cls, options in (
            (DenseLayout, ReferenceDenseLayout, {}),
            (InteractionGraphLayout, ReferenceInteractionGraphLayout, {"seed": seed % 101}),
        ):
            vector_props, reference_props = PropertySet(), PropertySet()
            pass_cls(device, **options).run(circuit, vector_props)
            oracle_cls(device, **options).run(circuit, reference_props)
            assert vector_props["layout"] == reference_props["layout"]
