"""Parity of the production SABRE router with the pre-rewrite oracle.

The step-loop router must be *bit-identical* to the router it replaced
(``tests/oracles.py``), whose per-candidate Python-loop scorer draws from
the RNG on every decision: same scores, same tie sets, same RNG draws,
hence the same SWAP sequence gate for gate, the same ``routing_swaps`` and
the same final layout.  These tests pin that contract at fixed seeds on
small topologies and on the paper's five large design points, including
the stall escape that no ordinary input reaches.  The noise-aware router,
which runs the same step loop with its own scorer, is pinned the same way
to its oracle, the router's pre-merge loop with the per-candidate
Python-loop scorer: on small topologies, at the ``l3-noisy`` benchmark's
large QFT/QAOA design points and through the stall escape.
"""

import numpy as np
import pytest

from oracles import ReferenceNoiseAwareRouting, ReferenceSabreRouting
from repro.circuits import QuantumCircuit
from repro.circuits.dag import SHARED_DAG_PROPERTY, DAGCircuit
from repro.core.noise import NoiseModel
from repro.topology import CouplingMap, corral_topology, square_lattice
from repro.transpiler import DenseLayout, PropertySet, SabreRouting, StochasticRouting, Target
from repro.transpiler.passes import routing
from repro.transpiler.passes.decompose_multi import DecomposeMultiQubit
from repro.transpiler.passes.noise_aware_routing import NoiseAwareRouting
from repro.workloads import build_workload, qaoa_vanilla_circuit, quantum_volume_circuit

TOPOLOGIES = {
    "corral": corral_topology(8, (1, 1)),
    "lattice": square_lattice(4, 4),
    "line": CouplingMap.line(12),
}

#: The paper's large (84-qubit) design points, Fig. 14.
LARGE_TOPOLOGIES = ("Heavy-Hex", "Square-Lattice", "Tree", "Tree-RR", "Hypercube")
PAPER_WORKLOADS = ("QuantumVolume", "QFT", "QAOAVanilla", "TIMHamiltonian", "Adder", "GHZ")


def _route(circuit, coupling_map, router=SabreRouting, **router_options):
    properties = PropertySet()
    DenseLayout(coupling_map).run(circuit, properties)
    routed = router(coupling_map, **router_options).run(circuit, properties)
    return routed, properties


def _signature(circuit):
    return [(inst.name, inst.qubits, inst.induced) for inst in circuit]


def _assert_matches_oracle(circuit, coupling_map, seed):
    routed, properties = _route(circuit, coupling_map, seed=seed)
    expected, expected_props = _route(
        circuit, coupling_map, router=ReferenceSabreRouting, seed=seed
    )
    assert _signature(routed) == _signature(expected)
    assert properties["routing_swaps"] == expected_props["routing_swaps"]
    assert properties["final_layout"] == expected_props["final_layout"]
    return properties


def _assert_noise_aware_matches_oracle(circuit, coupling_map, noise_model, seed):
    options = {"noise_model": noise_model, "seed": seed}
    routed, properties = _route(circuit, coupling_map, router=NoiseAwareRouting, **options)
    expected, expected_props = _route(
        circuit, coupling_map, router=ReferenceNoiseAwareRouting, **options
    )
    assert _signature(routed) == _signature(expected)
    assert properties["routing_swaps"] == expected_props["routing_swaps"]
    assert properties["final_layout"] == expected_props["final_layout"]
    return properties


@pytest.fixture(scope="module")
def large_devices():
    return {
        name: Target.from_names(name, "cx", scale="large").coupling_map
        for name in LARGE_TOPOLOGIES
    }


class TestSabreEngineParity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_identical_swap_sequence_qv(self, topology, seed):
        coupling_map = TOPOLOGIES[topology]
        circuit = quantum_volume_circuit(min(10, coupling_map.num_qubits), seed=seed)
        _assert_matches_oracle(circuit, coupling_map, seed)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_identical_swap_sequence_qaoa(self, seed):
        _assert_matches_oracle(qaoa_vanilla_circuit(12, seed=seed), TOPOLOGIES["lattice"], seed)

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_identical_swap_sequence_with_three_qubit_gates(self, topology):
        """Undecomposed Toffolis need coupling in the front layer but stay
        out of the two-qubit lookahead window, in both routers."""
        circuit = build_workload("Adder", 10, seed=0)
        assert any(inst.num_qubits == 3 for inst in circuit)
        _assert_matches_oracle(circuit, TOPOLOGIES[topology], seed=5)

    def test_oracle_engines_agree(self):
        """The oracle's broadcast scorer is the per-candidate loop's twin."""
        coupling_map = TOPOLOGIES["corral"]
        circuit = quantum_volume_circuit(10, seed=4)
        loop, _ = _route(circuit, coupling_map, router=ReferenceSabreRouting, seed=4)
        vector, _ = _route(
            circuit, coupling_map, router=ReferenceSabreRouting, seed=4, engine="vector"
        )
        assert _signature(loop) == _signature(vector)

    def test_deterministic_across_calls(self):
        coupling_map = TOPOLOGIES["corral"]
        circuit = quantum_volume_circuit(10, seed=5)
        first, _ = _route(circuit, coupling_map, seed=9)
        second, _ = _route(circuit, coupling_map, seed=9)
        assert _signature(first) == _signature(second)

    def test_three_qubit_gates_are_routed_not_passed_through(self):
        """Direct router use (no decompose stage): a ccx on distant qubits
        must still come out with its first two operands on a coupling."""
        from repro.gates import CCXGate

        coupling_map = TOPOLOGIES["line"]
        circuit = QuantumCircuit(12)
        circuit.append(CCXGate(), (0, 11, 5))
        routed, properties = _route(circuit, coupling_map, seed=0)
        assert properties["routing_swaps"] > 0
        (ccx,) = [inst for inst in routed if inst.name == "ccx"]
        assert coupling_map.has_edge(ccx.qubits[0], ccx.qubits[1])


class TestSabreOracleParityLargeDesignPoints:
    """All six paper workloads at 16 qubits on the five 84-qubit devices."""

    @pytest.mark.parametrize("topology", LARGE_TOPOLOGIES)
    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_identical_routing(self, large_devices, topology, workload, seed):
        circuit = DecomposeMultiQubit().run(build_workload(workload, 16, seed=seed), PropertySet())
        _assert_matches_oracle(circuit, large_devices[topology], seed)


class TestSabreStallEscape:
    """The shortest-path escape after ``10 * max(4, n)`` fruitless SWAPs."""

    @pytest.mark.parametrize("topology", ["lattice", "line"])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_escape_matches_oracle(self, monkeypatch, topology, seed):
        # Until the first escape both routers always take their first
        # candidate SWAP (the same one: ascending edge order), which
        # oscillates on one edge, so only the escape makes progress.  After
        # it they score normally, from the state the escape left behind.
        escapes = []
        shortest_path = CouplingMap.shortest_path

        def counting_shortest_path(self, qubit_a, qubit_b):
            escapes.append((qubit_a, qubit_b))
            return shortest_path(self, qubit_a, qubit_b)

        tie_break = routing._sequential_tie_break
        select = ReferenceSabreRouting._select_swap_reference
        monkeypatch.setattr(CouplingMap, "shortest_path", counting_shortest_path)
        monkeypatch.setattr(
            routing,
            "_sequential_tie_break",
            lambda scores, rng: tie_break(scores, rng) if escapes else 0,
        )
        monkeypatch.setattr(
            ReferenceSabreRouting,
            "_select_swap_reference",
            lambda self, *args: select(self, *args) if escapes else 0,
        )
        coupling_map = TOPOLOGIES[topology]
        circuit = quantum_volume_circuit(6, seed=seed)
        runs = []
        for router in (SabreRouting, ReferenceSabreRouting):
            escapes.clear()
            routed, properties = _route(circuit, coupling_map, router=router, seed=seed)
            runs.append(
                (
                    _signature(routed),
                    properties["routing_swaps"],
                    properties["final_layout"],
                    list(escapes),
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][3], "the stall escape was never reached"
        assert all(
            coupling_map.has_edge(*qubits) for _, qubits, _ in runs[0][0] if len(qubits) == 2
        )


class TestNoiseAwareStallEscape:
    """The same escape in the noise-aware router, held to its pre-merge loop."""

    @pytest.mark.parametrize("topology", ["lattice", "line"])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_escape_matches_oracle(self, monkeypatch, topology, seed):
        # As in TestSabreStallEscape, both routers take their first
        # candidate until the first escape.  The step loop checks the stall
        # limit right after the SWAP that crosses it, the oracle at the top
        # of the next blocked step; on an oscillation that SWAP unblocks
        # nothing, so both escape from the same state.
        escapes = []
        shortest_path = CouplingMap.shortest_path

        def counting_shortest_path(self, qubit_a, qubit_b):
            escapes.append((qubit_a, qubit_b))
            return shortest_path(self, qubit_a, qubit_b)

        tie_break = routing._sequential_tie_break
        select = ReferenceNoiseAwareRouting._select_swap
        monkeypatch.setattr(CouplingMap, "shortest_path", counting_shortest_path)
        monkeypatch.setattr(
            routing,
            "_sequential_tie_break",
            lambda scores, rng: tie_break(scores, rng) if escapes else 0,
        )
        monkeypatch.setattr(
            ReferenceNoiseAwareRouting,
            "_select_swap",
            lambda self, *args: select(self, *args) if escapes else 0,
        )
        coupling_map = TOPOLOGIES[topology]
        circuit = quantum_volume_circuit(6, seed=seed)
        noise_model = NoiseModel.random(coupling_map, spread=0.02, seed=seed)
        runs = []
        for router in (NoiseAwareRouting, ReferenceNoiseAwareRouting):
            escapes.clear()
            routed, properties = _route(
                circuit, coupling_map, router=router, noise_model=noise_model, seed=seed
            )
            runs.append(
                (
                    _signature(routed),
                    properties["routing_swaps"],
                    properties["final_layout"],
                    list(escapes),
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][3], "the stall escape was never reached"
        assert all(
            coupling_map.has_edge(*qubits) for _, qubits, _ in runs[0][0] if len(qubits) == 2
        )


class TestTieBreak:
    def test_unique_minimum_draws_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert routing._sequential_tie_break(np.array([2.0, 1.0, 3.0]), rng) == 1
        assert rng.bit_generator.state == state

    def test_single_candidate_draw_is_a_no_op(self):
        """Why the unique-minimum path may skip the draw the walk makes."""
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == state

    def test_near_ties_draw_like_the_walk(self):
        scores = np.array([1.0, 1.0 + 5e-13, 2.0, 1.0])
        walk = np.random.default_rng(8)
        expected = [0, 1, 3][int(walk.integers(3))]
        assert routing._sequential_tie_break(scores, np.random.default_rng(8)) == expected


class TestNoiseAwareEngineParity:
    def _noise_model(self, coupling_map, spread=0.099):
        edges = coupling_map.edges()
        fidelity = {
            edge: 0.90 + spread * ((7 * index) % 10) / 10
            for index, edge in enumerate(edges)
        }
        return NoiseModel(edge_fidelity=fidelity, default_fidelity=0.99)

    @pytest.mark.parametrize("topology", ["corral", "lattice"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_identical_swap_sequence(self, topology, seed):
        coupling_map = TOPOLOGIES[topology]
        circuit = quantum_volume_circuit(10, seed=seed)
        _assert_noise_aware_matches_oracle(
            circuit, coupling_map, self._noise_model(coupling_map), seed
        )


class TestNoiseAwareOracleParityLargeDesignPoints:
    """QFT and QAOA at 16 qubits on the five 84-qubit devices, random noise."""

    @pytest.mark.parametrize("topology", LARGE_TOPOLOGIES)
    @pytest.mark.parametrize("workload", ["QFT", "QAOAVanilla"])
    def test_identical_routing(self, large_devices, topology, workload):
        coupling_map = large_devices[topology]
        circuit = DecomposeMultiQubit().run(build_workload(workload, 16, seed=1), PropertySet())
        properties = _assert_noise_aware_matches_oracle(
            circuit, coupling_map, NoiseModel.random(coupling_map, seed=3), seed=1
        )
        assert properties["routing_swaps"] > 0


class TestSharedDag:
    def test_router_records_shared_dag(self):
        coupling_map = TOPOLOGIES["lattice"]
        circuit = quantum_volume_circuit(8, seed=2)
        _, properties = _route(circuit, coupling_map, seed=2)
        recorded_circuit, dag = properties[SHARED_DAG_PROPERTY]
        assert recorded_circuit is circuit
        assert isinstance(dag, DAGCircuit)

    def test_shared_dag_reused_for_same_circuit(self):
        circuit = quantum_volume_circuit(6, seed=1)
        properties = PropertySet()
        first = DAGCircuit.shared(circuit, properties)
        second = DAGCircuit.shared(circuit, properties)
        assert first is second

    def test_shared_dag_rebuilt_for_new_circuit(self):
        properties = PropertySet()
        first = DAGCircuit.shared(quantum_volume_circuit(6, seed=1), properties)
        second = DAGCircuit.shared(quantum_volume_circuit(6, seed=2), properties)
        assert first is not second

    def _count_dag_builds(self, monkeypatch):
        builds = []
        original = DAGCircuit.__init__

        def counting_init(self, circuit):
            builds.append(circuit)
            original(self, circuit)

        monkeypatch.setattr(DAGCircuit, "__init__", counting_init)
        return builds

    def test_stochastic_trials_share_one_dag(self, monkeypatch):
        """All stochastic trials must reuse the DAG built on entry."""
        builds = self._count_dag_builds(monkeypatch)
        coupling_map = TOPOLOGIES["lattice"]
        circuit = quantum_volume_circuit(8, seed=4)
        properties = PropertySet()
        DenseLayout(coupling_map).run(circuit, properties)
        StochasticRouting(coupling_map, seed=0, trials=5).run(circuit, properties)
        assert len(builds) == 1

    def test_layout_and_routing_share_one_dag(self, monkeypatch):
        """The DAG built by the layout pass is the one routing consumes."""
        builds = self._count_dag_builds(monkeypatch)
        coupling_map = TOPOLOGIES["corral"]
        circuit = quantum_volume_circuit(10, seed=6)
        properties = PropertySet()
        DenseLayout(coupling_map).run(circuit, properties)
        SabreRouting(coupling_map, seed=6).run(circuit, properties)
        assert len(builds) == 1

    def test_sabre_results_unchanged_with_prebuilt_dag(self):
        """A DAG left in the property set by an earlier pass is picked up."""
        coupling_map = TOPOLOGIES["corral"]
        circuit = quantum_volume_circuit(10, seed=3)
        cold, cold_props = _route(circuit, coupling_map, seed=3)

        properties = PropertySet()
        DenseLayout(coupling_map).run(circuit, properties)
        DAGCircuit.shared(circuit, properties)  # prebuild
        warm = SabreRouting(coupling_map, seed=3).run(circuit, properties)
        assert _signature(warm) == _signature(cold)
        assert properties["routing_swaps"] == cold_props["routing_swaps"]
