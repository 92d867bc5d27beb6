"""Fused single-qubit fast path and width-validation tests."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import reference_statevector
from repro.circuits import QuantumCircuit
from repro.circuits.gate import UnitaryGate
from repro.linalg.random import random_su2, random_unitary
from repro.simulator import HARD_QUBIT_LIMIT, StatevectorSimulator

SINGLE_QUBIT_OPS = ("h", "x", "y", "z", "s", "t")


def _random_circuit(num_qubits: int, depth: int, rng: np.random.Generator):
    """Random mix of named 1Q gates, raw SU(2)/SU(4) blocks and CX/SWAP."""
    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        choice = rng.integers(0, 4)
        if choice == 0:
            getattr(circuit, str(rng.choice(SINGLE_QUBIT_OPS)))(
                int(rng.integers(num_qubits))
            )
        elif choice == 1:
            circuit.append(
                UnitaryGate(random_su2(rng)), (int(rng.integers(num_qubits)),)
            )
        elif choice == 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(UnitaryGate(random_unitary(4, rng)), (int(a), int(b)))
    return circuit


class TestFusedFastPath:
    @pytest.mark.parametrize("seed", range(5))
    def test_fused_matches_unfused_on_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(4, depth=30, rng=rng)
        fused = StatevectorSimulator().run(circuit)
        assert np.allclose(fused, reference_statevector(circuit), atol=1e-10)

    def test_long_single_qubit_chain(self):
        circuit = QuantumCircuit(2)
        for _ in range(12):
            circuit.h(0)
            circuit.t(0)
            circuit.s(1)
        circuit.cx(0, 1)
        circuit.h(1)
        fused = StatevectorSimulator().run(circuit)
        assert np.allclose(fused, reference_statevector(circuit), atol=1e-10)

    def test_barriers_are_ignored(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.cx(0, 1)
        state = StatevectorSimulator().run(circuit)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert np.allclose(state, bell)


class TestWidthValidation:
    def test_default_width_accepted(self):
        assert StatevectorSimulator() is not None

    @pytest.mark.parametrize("width", (0, -3))
    def test_non_positive_width_rejected(self, width):
        with pytest.raises(ValueError, match="at least 1"):
            StatevectorSimulator(max_qubits=width)

    @pytest.mark.parametrize("width", (HARD_QUBIT_LIMIT + 1, 200))
    def test_absurd_width_rejected_up_front(self, width):
        with pytest.raises(ValueError, match="dense-simulation limit"):
            StatevectorSimulator(max_qubits=width)

    def test_oversized_circuit_still_rejected_at_run(self):
        simulator = StatevectorSimulator(max_qubits=3)
        with pytest.raises(ValueError, match="exceeds the simulator"):
            simulator.run(QuantumCircuit(4))
