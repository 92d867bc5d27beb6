"""Gate-cancellation pass.

Routing occasionally produces adjacent pairs of identical self-inverse
two-qubit gates on the same qubit pair (e.g. back-to-back SWAPs or CNOTs
with nothing in between), which inflate every counting metric without
changing the computation.  This pass removes such pairs.  It is not part
of the default paper pipeline (Qiskit 0.20's flow did not run 2Q
cancellation either) but is provided for the ablation benchmarks and for
users who want tighter circuits.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.transpiler.passmanager import PropertySet, TranspilerPass

#: Gates that are their own inverse (by name) and safe to cancel pairwise.
_SELF_INVERSE = {"cx", "cz", "swap", "x", "y", "z", "h", "ccx"}


class CancelAdjacentInverses(TranspilerPass):
    """Remove adjacent gate pairs that multiply to the identity."""

    name = "cancel_adjacent_inverses"

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        kept: List[Optional[Instruction]] = []
        # For every qubit, the index (into ``kept``) of the last instruction
        # touching it; a pair can only cancel when the earlier instruction is
        # still the most recent one on *all* of its qubits.
        last_on_qubit: Dict[int, int] = {}
        cancelled = 0
        for instruction in circuit:
            if instruction.name == "barrier":
                kept.append(instruction)
                continue
            candidate_index = self._cancellable_predecessor(
                instruction, kept, last_on_qubit
            )
            if candidate_index is not None:
                kept[candidate_index] = None
                cancelled += 2
                for qubit in instruction.qubits:
                    last_on_qubit.pop(qubit, None)
                continue
            kept.append(instruction)
            index = len(kept) - 1
            for qubit in instruction.qubits:
                last_on_qubit[qubit] = index
        result = QuantumCircuit(circuit.num_qubits, name=circuit.name)
        for instruction in kept:
            if instruction is not None:
                result._append_trusted(instruction)
        properties["cancelled_gates"] = properties.get("cancelled_gates", 0) + cancelled
        return result

    @staticmethod
    def _cancellable_predecessor(
        instruction: Instruction,
        kept: List[Optional[Instruction]],
        last_on_qubit: Dict[int, int],
    ) -> Optional[int]:
        """Index of a directly preceding instruction that cancels this one."""
        indices = {last_on_qubit.get(qubit) for qubit in instruction.qubits}
        if len(indices) != 1:
            return None
        (index,) = indices
        if index is None:
            return None
        previous = kept[index]
        if previous is None or previous.qubits != instruction.qubits:
            return None
        if previous.name != instruction.name:
            return None
        if instruction.name in _SELF_INVERSE:
            return index
        # Parameterised same-name gates cancel when their matrices are inverse.
        try:
            product = previous.gate.matrix() @ instruction.gate.matrix()
        except NotImplementedError:  # pragma: no cover - all gates define matrices
            return None
        dim = product.shape[0]
        phase = product[0, 0]
        if abs(abs(phase) - 1.0) > 1e-9:
            return None
        if np.allclose(product, phase * np.eye(dim), atol=1e-9):
            return index
        return None
