"""Dense state-vector simulator.

The simulator uses the little-endian register convention (qubit 0 is the
least-significant bit of the computational-basis index), while gate matrices
use the argument-order convention of :mod:`repro.circuits.gate` (first
argument = most-significant bit of the gate matrix).  The translation
between the two is handled here so that callers never need to think about
it.

The simulator is used to *validate* circuit constructions and
decompositions (GHZ states, adders on basis states, QFT against the DFT
matrix, transpiled-circuit equivalence); it is not meant to scale past
~20 qubits, and :data:`HARD_QUBIT_LIMIT` enforces an absolute ceiling so a
mistyped width fails with a clear error instead of a multi-gigabyte numpy
allocation attempt.

Two performance features keep validation runs fast:

* gate matrices are fetched through the process-global unitary cache
  (:meth:`~repro.circuits.gate.Gate.cached_matrix`);
* runs of single-qubit gates acting on the same qubit are *fused* into a
  single 2x2 matrix product before the tensor contraction, so a chain of
  ``k`` one-qubit gates costs one contraction instead of ``k``.  Fusion
  only reorders operations that commute (single-qubit gates on distinct
  qubits), so the result is identical up to floating-point rounding.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.simulator.fusion import SingleQubitFusion, apply_matrix_to_axes

#: Absolute ceiling on the simulator width: a 2^28 complex state vector is
#: already 4 GiB, far beyond the validation-scale use-case documented above.
HARD_QUBIT_LIMIT = 26


class StatevectorSimulator:
    """Applies circuits to dense state vectors."""

    def __init__(self, max_qubits: int = 24):
        max_qubits = int(max_qubits)
        if max_qubits < 1:
            raise ValueError("max_qubits must be at least 1")
        if max_qubits > HARD_QUBIT_LIMIT:
            raise ValueError(
                f"max_qubits={max_qubits} exceeds the dense-simulation limit of "
                f"{HARD_QUBIT_LIMIT} qubits (a 2**{max_qubits} state vector "
                "cannot be allocated); use a smaller width"
            )
        self._max_qubits = max_qubits

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Simulate ``circuit`` and return the final state vector."""
        num_qubits = circuit.num_qubits
        if num_qubits > self._max_qubits:
            raise ValueError(
                f"circuit has {num_qubits} qubits which exceeds the simulator "
                f"limit of {self._max_qubits}"
            )
        if initial_state is None:
            state = np.zeros(2 ** num_qubits, dtype=complex)
            state[0] = 1.0
        else:
            state = np.asarray(initial_state, dtype=complex).copy()
            if state.shape != (2 ** num_qubits,):
                raise ValueError("initial state has the wrong dimension")
        tensor = _run_fused(state.reshape([2] * num_qubits), circuit, num_qubits)
        return tensor.reshape(2 ** num_qubits)

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Measurement probabilities in the computational basis."""
        amplitudes = self.run(circuit)
        return np.abs(amplitudes) ** 2

    def sample_counts(
        self, circuit: QuantumCircuit, shots: int, seed: Optional[int] = None
    ) -> Dict[str, int]:
        """Sample measurement outcomes; keys are little-endian bitstrings."""
        return sample_probability_counts(
            self.probabilities(circuit), circuit.num_qubits, shots, seed=seed
        )

    def expectation_z(self, circuit: QuantumCircuit, qubits: Sequence[int]) -> float:
        """Expectation value of the Z-string on ``qubits``."""
        probabilities = self.probabilities(circuit)
        total = 0.0
        for index, probability in enumerate(probabilities):
            parity = 1.0
            for qubit in qubits:
                if (index >> qubit) & 1:
                    parity = -parity
            total += parity * probability
        return float(total)


def _run_fused(
    tensor: np.ndarray, circuit: QuantumCircuit, num_qubits: int
) -> np.ndarray:
    """Apply a circuit, fusing runs of single-qubit gates per qubit.

    Pending 2x2 matrices are accumulated per qubit and only contracted into
    the state when a multi-qubit gate touches that qubit (or at the end of
    the circuit).  Only commuting operations are reordered, so this matches
    the unfused evaluation exactly up to floating-point associativity.
    """
    fusion = SingleQubitFusion()
    for instruction in circuit:
        if instruction.name == "barrier":
            continue
        if instruction.num_qubits == 1:
            fusion.push(instruction.qubits[0], instruction.gate.cached_matrix())
        else:
            for qubit, matrix in fusion.drain(instruction.qubits):
                tensor = _apply_matrix(tensor, matrix, (qubit,), num_qubits)
            tensor = _apply_instruction(tensor, instruction, num_qubits)
    for qubit, matrix in fusion.drain():
        tensor = _apply_matrix(tensor, matrix, (qubit,), num_qubits)
    return tensor


def _apply_matrix(
    tensor: np.ndarray,
    matrix: np.ndarray,
    gate_qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Contract a gate matrix into a state tensor of shape ``(2,) * n``."""
    # Axis of the state tensor that carries qubit ``q``.
    axes = [num_qubits - 1 - q for q in gate_qubits]
    return apply_matrix_to_axes(tensor, matrix, axes)


def sample_probability_counts(
    probabilities: np.ndarray, width: int, shots: int, seed: Optional[int] = None
) -> Dict[str, int]:
    """Sample shots from a probability vector into a bitstring-count dict.

    Guards against an all-zero (or negative-sum) probability vector, which
    would otherwise turn into ``NaN`` probabilities inside ``rng.choice``;
    outcome counting is vectorised through :func:`numpy.unique`.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    total = probabilities.sum()
    if not total > 0.0:
        raise ValueError(
            "cannot sample from an all-zero probability vector (the state "
            "has no population; check the circuit and noise model)"
        )
    probabilities = probabilities / total
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
    values, frequencies = np.unique(outcomes, return_counts=True)
    return {
        format(int(value), f"0{width}b"): int(count)
        for value, count in zip(values, frequencies)
    }


def _apply_instruction(
    tensor: np.ndarray, instruction: Instruction, num_qubits: int
) -> np.ndarray:
    """Apply one instruction to a state tensor of shape ``(2,) * n``."""
    return _apply_matrix(
        tensor, instruction.gate.cached_matrix(), instruction.qubits, num_qubits
    )


def statevector(circuit: QuantumCircuit) -> np.ndarray:
    """Convenience function: final state of ``circuit`` from ``|0...0>``."""
    return StatevectorSimulator().run(circuit)
