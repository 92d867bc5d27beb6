"""Tests for the heterogeneous noise model extension."""

import pytest

from repro.circuits import QuantumCircuit
from repro.core.noise import NoiseModel
from repro.topology import CouplingMap, square_lattice
from repro.transpiler import make_target


class TestConstruction:
    def test_uniform(self):
        model = NoiseModel.uniform(0.99)
        assert model.fidelity(0, 1) == 0.99
        assert model.average_fidelity() == 0.99
        assert model.worst_edge() is None

    def test_random_covers_all_edges(self):
        lattice = square_lattice(3, 3)
        model = NoiseModel.random(lattice, mean_fidelity=0.99, spread=0.002, seed=1)
        assert len(model.edge_fidelity) == lattice.num_edges()
        assert all(0.5 <= f <= 1.0 for f in model.edge_fidelity.values())

    def test_random_is_seeded(self):
        lattice = square_lattice(3, 3)
        a = NoiseModel.random(lattice, seed=5)
        b = NoiseModel.random(lattice, seed=5)
        assert a.edge_fidelity == b.edge_fidelity

    def test_worst_edge(self):
        model = NoiseModel(edge_fidelity={(0, 1): 0.99, (1, 2): 0.97})
        assert model.worst_edge() == (1, 2)

    def test_edge_lookup_is_orientation_free(self):
        model = NoiseModel(edge_fidelity={(0, 1): 0.98})
        assert model.fidelity(1, 0) == 0.98


class TestEdgeKeys:
    """An edge written as ``(b, a)`` is the edge ``(a, b)``."""

    def test_reversed_key_is_read(self):
        model = NoiseModel(edge_fidelity={(1, 0): 0.5})
        assert model.fidelity(0, 1) == model.fidelity(1, 0) == 0.5
        matrix = model.fidelity_matrix(CouplingMap.line(3))
        assert matrix[0, 1] == matrix[1, 0] == 0.5
        assert matrix[1, 2] == model.default_fidelity
        assert model.worst_edge() == (0, 1)

    def test_reversed_keys_give_one_cache_key(self):
        device = CouplingMap.line(4)
        forward = NoiseModel(edge_fidelity={(0, 1): 0.97, (2, 3): 0.99})
        backward = NoiseModel(edge_fidelity={(3, 2): 0.99, (1, 0): 0.97})
        assert forward.edge_fidelity == backward.edge_fidelity
        assert (
            make_target(device, "cx", noise_model=forward).cache_key()
            == make_target(device, "cx", noise_model=backward).cache_key()
        )

    def test_both_orientations_with_one_value_are_one_edge(self):
        model = NoiseModel(edge_fidelity={(0, 1): 0.9, (1, 0): 0.9})
        assert model.edge_fidelity == {(0, 1): 0.9}


class TestValidation:
    @pytest.mark.parametrize(
        "options",
        [
            {"edge_fidelity": {(0, 1): 1.7}},
            {"edge_fidelity": {(1, 0): 0.0}},
            {"edge_fidelity": {(0, 1): -0.2}},
            {"edge_fidelity": {(0, 1): float("nan")}},
            {"edge_fidelity": {(0, 1): 0.9, (1, 0): 0.8}},
            {"default_fidelity": 1.01},
            {"default_fidelity": 0.0},
            {"idle_fidelity_per_pulse": 1.5},
            {"idle_fidelity_per_pulse": 0.0},
        ],
    )
    def test_bad_values_raise_at_construction(self, options):
        with pytest.raises(ValueError):
            NoiseModel(**options)


class TestCircuitEstimate:
    def test_empty_circuit_is_perfect(self):
        model = NoiseModel.uniform(0.99, idle_fidelity_per_pulse=1.0)
        assert model.circuit_success_probability(QuantumCircuit(2)) == pytest.approx(1.0)

    def test_two_qubit_gates_multiply(self):
        model = NoiseModel.uniform(0.9, idle_fidelity_per_pulse=1.0)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(0, 1)
        assert model.circuit_success_probability(circuit) == pytest.approx(0.81)

    def test_single_qubit_gates_are_free(self):
        model = NoiseModel.uniform(0.9, idle_fidelity_per_pulse=1.0)
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).rz(0.3, 0)
        assert model.circuit_success_probability(circuit) == pytest.approx(1.0)

    def test_idle_decoherence_uses_weighted_duration(self):
        model = NoiseModel.uniform(1.0, idle_fidelity_per_pulse=0.99)
        circuit = QuantumCircuit(2)
        circuit.siswap(0, 1)
        circuit.siswap(0, 1)
        # weighted duration = 1.0 iSWAP unit
        assert model.circuit_success_probability(circuit) == pytest.approx(0.99)

    def test_bad_edge_penalises_circuits_using_it(self):
        model = NoiseModel(
            edge_fidelity={(0, 1): 0.999, (1, 2): 0.9},
            default_fidelity=0.999,
            idle_fidelity_per_pulse=1.0,
        )
        good = QuantumCircuit(3)
        good.cx(0, 1)
        bad = QuantumCircuit(3)
        bad.cx(1, 2)
        assert model.circuit_success_probability(good) > model.circuit_success_probability(bad)

    def test_gate_error_budget(self):
        model = NoiseModel(edge_fidelity={(0, 1): 0.99}, default_fidelity=0.999)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(0, 1).cx(1, 2)
        budget = model.gate_error_budget(circuit)
        assert budget[(0, 1)] == pytest.approx(0.02)
        assert budget[(1, 2)] == pytest.approx(0.001)
