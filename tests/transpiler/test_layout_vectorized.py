"""Equivalence of the vectorized layout scorers and the legacy reference.

Mirror of ``test_routing_vectorized.py`` for the layout stage: the
vectorized scorers of :class:`DenseLayout`, :class:`InteractionGraphLayout`
and :class:`NoiseAwareLayout` (and the vectorized
``CouplingMap.densest_subset`` they build on) must select *bit-identical*
layouts to the pre-vectorization Python-loop scorers of the test-only
oracles (``tests/oracles.py``), pinned at fixed seeds across the paper's
topology families and at the ``fig14-l1`` benchmark's own design points —
including the downstream routing result, which consumes the layout.
"""

import pytest

from oracles import (
    ReferenceDenseLayout,
    ReferenceInteractionGraphLayout,
    ReferenceNoiseAwareLayout,
    reference_densest_subset,
)
from repro.circuits.dag import SHARED_DAG_PROPERTY, DAGCircuit
from repro.topology import CouplingMap, corral_topology, square_lattice
from repro.transpiler import (
    DenseLayout,
    InteractionGraphLayout,
    PropertySet,
    SabreRouting,
    Target,
)
from repro.transpiler.passes.decompose_multi import DecomposeMultiQubit
from repro.transpiler.passes.vf2_layout import VF2Layout
from repro.workloads import (
    build_workload,
    ghz_circuit,
    qaoa_vanilla_circuit,
    quantum_volume_circuit,
)

TOPOLOGIES = {
    "corral": corral_topology(8, (1, 1)),
    "lattice": square_lattice(4, 4),
    "line": CouplingMap.line(12),
    "ring": CouplingMap.ring(14),
}


#: The ``fig14-l1`` benchmark grid: the paper's large (84-qubit) design
#: points, Fig. 14, under the six paper workloads at four sizes.
LARGE_TOPOLOGIES = ("Heavy-Hex", "Square-Lattice", "Tree", "Tree-RR", "Hypercube")
PAPER_WORKLOADS = ("QuantumVolume", "QFT", "QAOAVanilla", "TIMHamiltonian", "Adder", "GHZ")


def _layout(pass_cls, coupling_map, circuit, **options):
    properties = PropertySet()
    pass_cls(coupling_map, **options).run(circuit, properties)
    return properties["layout"], properties


class TestDenseLayoutEngineParity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_identical_layout_qv(self, topology, seed):
        coupling_map = TOPOLOGIES[topology]
        circuit = quantum_volume_circuit(min(10, coupling_map.num_qubits), seed=seed)
        vector, _ = _layout(DenseLayout, coupling_map, circuit)
        reference, _ = _layout(ReferenceDenseLayout, coupling_map, circuit)
        assert vector == reference

    @pytest.mark.parametrize("seed", [1, 7])
    def test_identical_layout_qaoa(self, seed):
        coupling_map = TOPOLOGIES["lattice"]
        circuit = qaoa_vanilla_circuit(12, seed=seed)
        vector, _ = _layout(DenseLayout, coupling_map, circuit)
        reference, _ = _layout(ReferenceDenseLayout, coupling_map, circuit)
        assert vector == reference

    def test_identical_layout_without_two_qubit_gates(self):
        from repro.circuits import QuantumCircuit
        from repro.gates import HGate

        circuit = QuantumCircuit(5)
        for qubit in range(5):
            circuit.append(HGate(), (qubit,))
        coupling_map = TOPOLOGIES["corral"]
        vector, _ = _layout(DenseLayout, coupling_map, circuit)
        reference, _ = _layout(ReferenceDenseLayout, coupling_map, circuit)
        assert vector == reference

    @pytest.mark.parametrize("topology", ["corral", "lattice"])
    def test_downstream_routing_identical(self, topology):
        """The engines must agree all the way through the routed circuit."""
        coupling_map = TOPOLOGIES[topology]
        circuit = quantum_volume_circuit(10, seed=5)
        outputs = {}
        for pass_cls in (DenseLayout, ReferenceDenseLayout):
            _, properties = _layout(pass_cls, coupling_map, circuit)
            routed = SabreRouting(coupling_map, seed=5).run(circuit, properties)
            outputs[pass_cls] = (
                [(inst.name, inst.qubits, inst.induced) for inst in routed],
                properties["routing_swaps"],
            )
        assert outputs[DenseLayout] == outputs[ReferenceDenseLayout]


class TestDenseLayoutOracleParityLargeDesignPoints:
    """Every (design point, workload, size) layout of the ``fig14-l1`` grid."""

    @pytest.fixture(scope="class")
    def devices(self):
        return {
            name: Target.from_names(name, "cx", scale="large").coupling_map
            for name in LARGE_TOPOLOGIES
        }

    @pytest.mark.parametrize("topology", LARGE_TOPOLOGIES)
    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    def test_identical_layouts(self, devices, topology, workload):
        coupling_map = devices[topology]
        for size in (16, 24, 32, 40):
            circuit = DecomposeMultiQubit().run(
                build_workload(workload, size, seed=1), PropertySet()
            )
            vector, _ = _layout(DenseLayout, coupling_map, circuit)
            reference, _ = _layout(ReferenceDenseLayout, coupling_map, circuit)
            assert vector == reference, f"{workload}-{size} on {topology}"


class TestInteractionLayoutEngineParity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_identical_layout_qv(self, topology, seed):
        coupling_map = TOPOLOGIES[topology]
        circuit = quantum_volume_circuit(min(10, coupling_map.num_qubits), seed=seed)
        vector, _ = _layout(InteractionGraphLayout, coupling_map, circuit, seed=seed)
        reference, _ = _layout(
            ReferenceInteractionGraphLayout, coupling_map, circuit, seed=seed
        )
        assert vector == reference

    @pytest.mark.parametrize("seed", [1, 7])
    def test_identical_layout_sparse_interactions(self, seed):
        """GHZ interacts only along a chain: exercises the centre branch."""
        coupling_map = TOPOLOGIES["lattice"]
        circuit = ghz_circuit(9)
        vector, _ = _layout(InteractionGraphLayout, coupling_map, circuit, seed=seed)
        reference, _ = _layout(
            ReferenceInteractionGraphLayout, coupling_map, circuit, seed=seed
        )
        assert vector == reference

    def test_idle_qubits_placed_identically(self):
        """Qubits with no interactions at all take the centre branch."""
        from repro.circuits import QuantumCircuit
        from repro.gates import CXGate

        circuit = QuantumCircuit(6)
        circuit.append(CXGate(), (0, 1))  # qubits 2..5 stay idle
        coupling_map = TOPOLOGIES["lattice"]
        vector, _ = _layout(InteractionGraphLayout, coupling_map, circuit)
        reference, _ = _layout(ReferenceInteractionGraphLayout, coupling_map, circuit)
        assert vector == reference


class TestNoiseAwareLayoutEngineParity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_identical_layout_random_noise(self, topology, seed):
        from repro.core.noise import NoiseModel
        from repro.transpiler import NoiseAwareLayout

        coupling_map = TOPOLOGIES[topology]
        noise = NoiseModel.random(coupling_map, seed=seed)
        circuit = quantum_volume_circuit(min(10, coupling_map.num_qubits), seed=seed)
        vector, _ = _layout(NoiseAwareLayout, coupling_map, circuit, noise_model=noise)
        reference, _ = _layout(
            ReferenceNoiseAwareLayout, coupling_map, circuit, noise_model=noise
        )
        assert vector == reference

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_identical_layout_uniform_noise(self, topology):
        """Uniform fidelity makes every score tie: tie-breaks must agree."""
        from repro.core.noise import NoiseModel
        from repro.transpiler import NoiseAwareLayout

        coupling_map = TOPOLOGIES[topology]
        noise = NoiseModel.uniform()
        circuit = quantum_volume_circuit(min(9, coupling_map.num_qubits), seed=2)
        vector, _ = _layout(NoiseAwareLayout, coupling_map, circuit, noise_model=noise)
        reference, _ = _layout(
            ReferenceNoiseAwareLayout, coupling_map, circuit, noise_model=noise
        )
        assert vector == reference

    @pytest.mark.parametrize("size", [1, 4, 9, 14])
    def test_best_subset_engines_agree(self, size):
        from repro.core.noise import NoiseModel
        from repro.transpiler import NoiseAwareLayout

        coupling_map = TOPOLOGIES["ring"]
        noise = NoiseModel.random(coupling_map, seed=7)
        weights = noise.fidelity_matrix(coupling_map)
        assert NoiseAwareLayout._best_subset_vector(size, coupling_map, weights) == (
            ReferenceNoiseAwareLayout._best_subset(size, coupling_map, noise)
        )

    def test_downstream_routing_identical(self):
        """The engines must agree all the way through the routed circuit."""
        from repro.core.noise import NoiseModel
        from repro.transpiler import NoiseAwareLayout, NoiseAwareRouting

        coupling_map = TOPOLOGIES["lattice"]
        noise = NoiseModel.random(coupling_map, seed=9)
        circuit = quantum_volume_circuit(10, seed=9)
        outputs = {}
        for pass_cls in (NoiseAwareLayout, ReferenceNoiseAwareLayout):
            _, properties = _layout(pass_cls, coupling_map, circuit, noise_model=noise)
            routed = NoiseAwareRouting(coupling_map, seed=9).run(circuit, properties)
            outputs[pass_cls] = (
                [(inst.name, inst.qubits, inst.induced) for inst in routed],
                properties["routing_swaps"],
            )
        assert outputs[NoiseAwareLayout] == outputs[ReferenceNoiseAwareLayout]


class TestDensestSubsetEngines:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_engines_agree_for_every_size(self, topology):
        coupling_map = TOPOLOGIES[topology]
        for size in range(1, coupling_map.num_qubits + 1):
            assert coupling_map.densest_subset(size) == (
                reference_densest_subset(coupling_map, size)
            )

    def test_memoized_subset_is_copied(self):
        coupling_map = CouplingMap.line(8)
        first = coupling_map.densest_subset(4)
        first.append(99)  # mutating the returned list must not poison the cache
        assert 99 not in coupling_map.densest_subset(4)

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            CouplingMap.line(4).densest_subset(5)

    def test_disconnected_graph_backfills(self):
        """Two components: the greedy growth falls back to unplaced qubits."""
        coupling_map = CouplingMap([(0, 1), (2, 3)], num_qubits=4)
        for size in (2, 3):
            assert coupling_map.densest_subset(size) == (
                reference_densest_subset(coupling_map, size)
            )


class TestSharedDagReuse:
    def _count_dag_builds(self, monkeypatch):
        builds = []
        original = DAGCircuit.__init__

        def counting_init(self, circuit):
            builds.append(circuit)
            original(self, circuit)

        monkeypatch.setattr(DAGCircuit, "__init__", counting_init)
        return builds

    def test_vectorized_dense_layout_and_routing_share_one_dag(self, monkeypatch):
        builds = self._count_dag_builds(monkeypatch)
        coupling_map = TOPOLOGIES["corral"]
        circuit = quantum_volume_circuit(10, seed=6)
        properties = PropertySet()
        DenseLayout(coupling_map).run(circuit, properties)
        SabreRouting(coupling_map, seed=6).run(circuit, properties)
        assert len(builds) == 1

    def test_vf2_layout_and_routing_share_one_dag(self, monkeypatch):
        builds = self._count_dag_builds(monkeypatch)
        coupling_map = TOPOLOGIES["corral"]
        circuit = quantum_volume_circuit(6, seed=2)
        properties = PropertySet()
        VF2Layout(coupling_map).run(circuit, properties)
        SabreRouting(coupling_map, seed=2).run(circuit, properties)
        assert len(builds) == 1
        assert SHARED_DAG_PROPERTY in properties

    def test_dag_interaction_arrays_match_counter(self):
        circuit = quantum_volume_circuit(8, seed=4)
        dag = DAGCircuit(circuit)
        counter = dag.two_qubit_interactions()
        activity = dag.qubit_activity()
        matrix = dag.interaction_matrix()
        for qubit in range(8):
            expected = sum(
                count for pair, count in counter.items() if qubit in pair
            )
            assert activity[qubit] == expected
        for (a, b), count in counter.items():
            assert matrix[a, b] == count
            assert matrix[b, a] == count
        assert matrix.sum() == 2 * sum(counter.values())
