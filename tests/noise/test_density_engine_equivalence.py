"""Equivalence suite: vectorized density engine vs legacy full expansion.

The local-contraction simulator must reproduce the legacy full-register
embedding of the test-only oracle (``tests/oracles.py``) to float
tolerance on randomized circuits and channel insertions; these tests pin
that contract at 1e-10 so any convention slip in the axis gymnastics fails
loudly.
"""

import numpy as np
import pytest

from oracles import (
    ReferenceDensityMatrixSimulator,
    _evolve_channel_expand,
    _evolve_unitary_expand,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import UnitaryGate
from repro.linalg.random import random_unitary
from repro.noise.channels import (
    amplitude_damping_channel,
    depolarizing_channel,
    thermal_relaxation_channel,
)
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.density_matrix import DensityMatrix, DensityMatrixSimulator

TOLERANCE = 1e-10


def random_circuit(num_qubits: int, depth: int, rng: np.random.Generator) -> QuantumCircuit:
    """Random mix of parametrised 1Q gates, CX/iSWAP and random SU(4) blocks."""
    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        kind = int(rng.integers(5))
        if kind == 0:
            circuit.rx(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(num_qubits)))
        elif kind == 1:
            circuit.rz(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(num_qubits)))
        elif kind == 2:
            circuit.h(int(rng.integers(num_qubits)))
        elif kind == 3 and num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
        elif num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(
                UnitaryGate(random_unitary(4, seed=int(rng.integers(10_000)))),
                (int(a), int(b)),
            )
    return circuit


def random_mixed_state(num_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """A full-rank random density matrix (Wishart construction)."""
    dim = 2 ** num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = raw @ raw.conj().T
    return DensityMatrix(matrix / np.trace(matrix))


class TestRandomizedEngineEquivalence:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_noisy_run_matches_legacy_engine(self, num_qubits):
        rng = np.random.default_rng(17 + num_qubits)
        circuit = random_circuit(num_qubits, depth=10, rng=rng)
        model = CircuitNoiseModel(
            one_qubit_error=0.01, two_qubit_error=0.04, t1=40.0, t2=35.0
        )
        fast = DensityMatrixSimulator().run(circuit, noise_model=model)
        slow = ReferenceDensityMatrixSimulator().run(circuit, noise_model=model)
        assert np.max(np.abs(fast.matrix - slow.matrix)) < TOLERANCE

    @pytest.mark.parametrize("num_qubits", [3, 5])
    def test_two_qubit_error_only_noise_matches_legacy_engine(self, num_qubits):
        # With no 1Q error, single-qubit runs are fused even while a noise
        # model is active — this pins the flush-before-channel ordering.
        rng = np.random.default_rng(61 + num_qubits)
        circuit = random_circuit(num_qubits, depth=12, rng=rng)
        model = CircuitNoiseModel(
            one_qubit_error=0.0, two_qubit_error=0.05, t1=50.0, t2=45.0
        )
        fast = DensityMatrixSimulator().run(circuit, noise_model=model)
        slow = ReferenceDensityMatrixSimulator().run(circuit, noise_model=model)
        assert np.max(np.abs(fast.matrix - slow.matrix)) < TOLERANCE

    def test_three_qubit_gate_and_channel_match_legacy_engine(self):
        # Arity >= 3 exercises the widest superoperator contraction (a
        # 64x64 matrix over six tensor axes) and the k-qubit depolarising
        # channel CircuitNoiseModel attaches to multi-qubit instructions.
        circuit = QuantumCircuit(5)
        circuit.h(0)
        circuit.append(UnitaryGate(random_unitary(8, seed=42)), (3, 0, 2))
        circuit.cx(1, 4)
        circuit.append(UnitaryGate(random_unitary(8, seed=43)), (4, 2, 1))
        model = CircuitNoiseModel(
            one_qubit_error=0.01, two_qubit_error=0.04, t1=40.0, t2=35.0
        )
        fast = DensityMatrixSimulator().run(circuit, noise_model=model)
        slow = ReferenceDensityMatrixSimulator().run(circuit, noise_model=model)
        assert np.max(np.abs(fast.matrix - slow.matrix)) < TOLERANCE

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_ideal_run_matches_legacy_engine(self, num_qubits):
        rng = np.random.default_rng(113 + num_qubits)
        circuit = random_circuit(num_qubits, depth=14, rng=rng)
        fast = DensityMatrixSimulator().run(circuit)
        slow = ReferenceDensityMatrixSimulator().run(circuit)
        assert np.max(np.abs(fast.matrix - slow.matrix)) < TOLERANCE

    @pytest.mark.parametrize("seed", range(6))
    def test_evolve_unitary_delegates_to_local_contraction(self, seed):
        rng = np.random.default_rng(500 + seed)
        num_qubits = int(rng.integers(2, 5))
        state = random_mixed_state(num_qubits, rng)
        arity = int(rng.integers(1, min(num_qubits, 2) + 1))
        qubits = tuple(int(q) for q in rng.choice(num_qubits, size=arity, replace=False))
        unitary = random_unitary(2 ** arity, seed=seed)
        fast = state.evolve_unitary(unitary, qubits).matrix
        slow = _evolve_unitary_expand(state.matrix, unitary, qubits, num_qubits)
        assert np.max(np.abs(fast - slow)) < TOLERANCE

    @pytest.mark.parametrize(
        "channel",
        [
            depolarizing_channel(0.1, num_qubits=1),
            depolarizing_channel(0.2, num_qubits=2),
            amplitude_damping_channel(0.15),
            thermal_relaxation_channel(0.8, t1=30.0, t2=25.0),
        ],
        ids=lambda channel: channel.name,
    )
    def test_evolve_channel_matches_kraus_expansion(self, channel):
        rng = np.random.default_rng(hash(channel.name) % 2 ** 31)
        num_qubits = 4
        state = random_mixed_state(num_qubits, rng)
        qubits = tuple(
            int(q)
            for q in rng.choice(num_qubits, size=channel.num_qubits, replace=False)
        )
        fast = state.evolve_channel(channel, qubits).matrix
        slow = _evolve_channel_expand(state.matrix, channel, qubits, num_qubits)
        assert np.max(np.abs(fast - slow)) < TOLERANCE

    def test_superoperator_matches_kraus_application(self):
        rng = np.random.default_rng(7)
        channel = thermal_relaxation_channel(1.2, t1=50.0, t2=40.0)
        rho = random_mixed_state(1, rng).matrix
        via_superop = (channel.superoperator() @ rho.reshape(-1)).reshape(2, 2)
        assert np.max(np.abs(via_superop - channel.apply(rho))) < TOLERANCE

    def test_superoperator_is_cached_per_channel(self):
        channel = depolarizing_channel(0.05, num_qubits=2)
        assert channel.superoperator() is channel.superoperator()
        assert not channel.superoperator().flags.writeable


class TestPartialTraceEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_trace_reference(self, seed):
        rng = np.random.default_rng(900 + seed)
        num_qubits = int(rng.integers(2, 6))
        keep_size = int(rng.integers(1, num_qubits))
        keep = [int(q) for q in rng.choice(num_qubits, size=keep_size, replace=False)]
        state = random_mixed_state(num_qubits, rng)
        fast = state.partial_trace(keep).matrix
        slow = _reference_partial_trace(state.matrix, keep, num_qubits)
        assert np.max(np.abs(fast - slow)) < TOLERANCE


def _reference_partial_trace(matrix, keep, num_qubits):
    """The pre-vectorization algorithm: per-axis np.trace then reorder."""
    n = num_qubits
    tensor = matrix.reshape([2] * (2 * n))
    keep_axes_row = [n - 1 - q for q in keep]
    traced_axes = [axis for axis in range(n) if axis not in keep_axes_row]
    for offset, axis in enumerate(sorted(traced_axes)):
        tensor = np.trace(tensor, axis1=axis - offset, axis2=axis - offset + n - offset)
    dim = 2 ** len(keep)
    result = tensor.reshape(dim, dim)
    current_order = sorted(keep, reverse=True)
    desired_order = list(reversed(keep))
    if current_order != desired_order:
        k = len(keep)
        tensor = result.reshape([2] * (2 * k))
        permutation = [current_order.index(q) for q in desired_order]
        tensor = np.transpose(tensor, permutation + [p + k for p in permutation])
        result = tensor.reshape(dim, dim)
    return result


class TestEvolutionValidation:
    def test_out_of_range_qubit_raises_instead_of_wrapping(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError, match="out of range"):
            DensityMatrix.ground_state(2).evolve_unitary(x, (2,))
        with pytest.raises(ValueError, match="out of range"):
            DensityMatrix.ground_state(2).evolve_channel(
                depolarizing_channel(0.1), (-3,)
            )

    def test_duplicate_qubits_raise(self):
        with pytest.raises(ValueError, match="distinct"):
            DensityMatrix.ground_state(2).evolve_unitary(np.eye(4), (0, 0))


class TestSampleCountsGuard:
    def test_all_zero_probabilities_raise_value_error(self):
        simulator = DensityMatrixSimulator()
        circuit = QuantumCircuit(1)
        zero = DensityMatrix(np.zeros((2, 2), dtype=complex), num_qubits=1)

        class _ZeroProbabilities(DensityMatrixSimulator):
            def run(self, circuit, initial_state=None, noise_model=None):
                return zero

        with pytest.raises(ValueError, match="all-zero probability"):
            _ZeroProbabilities().sample_counts(circuit, shots=16, seed=3)
        # The normal path still works.
        counts = simulator.sample_counts(circuit, shots=16, seed=3)
        assert counts == {"0": 16}

    def test_counts_are_vectorised_and_complete(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        counts = DensityMatrixSimulator().sample_counts(circuit, shots=512, seed=5)
        assert sum(counts.values()) == 512
        assert set(counts) <= {"00", "11"}


class TestScaledUpCeilings:
    def test_default_ceiling_raised_to_fourteen(self):
        assert DensityMatrixSimulator()._max_qubits >= 14

    def test_rejects_widths_above_hard_limit(self):
        with pytest.raises(ValueError, match="density-matrix limit"):
            DensityMatrixSimulator(max_qubits=20)

    @pytest.mark.slow
    def test_twelve_qubit_noisy_run_completes(self):
        # The legacy engine was capped at 10 qubits; the vectorized engine
        # handles a 12-qubit GHZ circuit with gate + idle noise.
        circuit = QuantumCircuit(12)
        circuit.h(0)
        for qubit in range(11):
            circuit.cx(qubit, qubit + 1)
        model = CircuitNoiseModel(two_qubit_error=0.01, t1=200.0, t2=150.0)
        state = DensityMatrixSimulator().run(circuit, noise_model=model)
        probabilities = state.probabilities()
        assert abs(float(np.sum(probabilities)) - 1.0) < 1e-7
        # Noise leaks population but the GHZ poles still dominate.
        assert probabilities[0] + probabilities[-1] > 0.5
