"""Pre-routing pass: expand gates on three or more qubits into 1Q + 2Q gates.

Routing and basis translation operate on one- and two-qubit gates only
(the paper's machines expose two-qubit native gates).  Workloads such as
the CDKM ripple-carry adder contain Toffoli gates, which this pass expands
using the exact rules in :mod:`repro.decomposition.exact`.
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.decomposition.exact import expand_named_gate
from repro.transpiler.passmanager import PropertySet, TranspilerPass


class DecomposeMultiQubit(TranspilerPass):
    """Expand >=3-qubit gates into single- and two-qubit gates."""

    name = "decompose_multi_qubit"

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        if all(inst.num_qubits <= 2 or inst.name == "barrier" for inst in circuit):
            return circuit
        expanded = QuantumCircuit(circuit.num_qubits, name=circuit.name)
        for instruction in circuit:
            if instruction.num_qubits <= 2 or instruction.name == "barrier":
                expanded._append_trusted(instruction)
                continue
            # Each rule instruction names operand positions of the expanded
            # gate, so its mapped qubits stay in range.
            rule = expand_named_gate(instruction.gate)
            for sub in rule:
                mapped = tuple([instruction.qubits[q] for q in sub.qubits])
                expanded._append_trusted(
                    Instruction(sub.gate, mapped, induced=instruction.induced)
                )
        return expanded
