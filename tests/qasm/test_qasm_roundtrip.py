"""Tests for OpenQASM 2 export and import."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.gates import FSimGate, NthRootISwapGate, SycamoreGate, ZXGate
from repro.linalg.fidelity import hilbert_schmidt_fidelity
from repro.qasm import QasmExportError, QasmParseError, circuit_from_qasm, circuit_to_qasm
from repro.topology import get_topology
from repro.transpiler import transpile
from repro.workloads import build_workload


def roundtrip(circuit: QuantumCircuit) -> QuantumCircuit:
    return circuit_from_qasm(circuit_to_qasm(circuit))


#: gate name -> (parameters, qubits) it takes; ``None`` means any number.
_GATE_SHAPES = {
    "h": (0, 1),
    "rx": (1, 1),
    "u3": (3, 1),
    "cx": (0, 2),
    "cp": (1, 2),
    "niswap": (1, 2),
    "fsim": (2, 2),
    "ccx": (0, 3),
    "barrier": (0, None),
    "frob": (0, 1),
}
#: Integers below 1000 and at most one ``**`` keep every expression cheap,
#: even for an evaluator that computes powers.
_ATOMS = st.integers(min_value=0, max_value=999).map(str) | st.sampled_from(
    ["pi", "0.5", "2.5e-3", "1e308", "1e400", "x", "pi.real", "__import__", ""]
)
_TERMS = st.tuples(st.sampled_from(["", "-", "+"]), _ATOMS).map("".join)


@st.composite
def _expressions(draw):
    """Terms joined by ``+ - * /``, with at most one ``**``."""
    terms = draw(st.lists(_TERMS, min_size=1, max_size=4))
    operators = [draw(st.sampled_from("+-*/")) for _ in terms[1:]]
    if operators and draw(st.booleans()):
        operators[draw(st.integers(0, len(operators) - 1))] = "**"
    return terms[0] + "".join(op + term for op, term in zip(operators, terms[1:]))


@st.composite
def _qasm_programs(draw):
    """OpenQASM text on a 1-8 qubit register; counts and operands mostly fit."""
    width = draw(st.integers(min_value=1, max_value=8))
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{width}];"]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        name = draw(st.sampled_from(sorted(_GATE_SHAPES)))
        num_params, num_qubits = _GATE_SHAPES[name]
        num_params = draw(st.sampled_from([num_params] * 3 + [num_params + 1]))
        if num_qubits is None:
            num_qubits = draw(st.integers(min_value=0, max_value=width))
        params = [draw(_expressions()) for _ in range(num_params)]
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=width),
                min_size=num_qubits,
                max_size=num_qubits,
            )
        )
        head = f"{name}({','.join(params)})" if params else name
        lines.append(f"{head} {','.join(f'q[{q}]' for q in qubits)};")
    return "\n".join(lines)


class TestExporter:
    def test_header_and_register(self):
        circuit = QuantumCircuit(3, name="demo")
        circuit.h(0)
        text = circuit_to_qasm(circuit)
        assert "OPENQASM 2.0;" in text
        assert "qreg q[3];" in text
        assert "h q[0];" in text
        assert text.startswith("// demo")

    def test_parameterised_gates_serialised_with_values(self):
        circuit = QuantumCircuit(2)
        circuit.rz(np.pi / 4, 0)
        circuit.cp(0.25, 0, 1)
        text = circuit_to_qasm(circuit)
        assert "rz(0.785398163397) q[0];" in text
        assert "cp(0.25) q[0],q[1];" in text

    def test_extension_gates_declared_opaque(self):
        circuit = QuantumCircuit(2)
        circuit.siswap(0, 1)
        circuit.append(SycamoreGate(), (0, 1))
        text = circuit_to_qasm(circuit)
        assert "opaque siswap a,b;" in text
        assert "opaque syc a,b;" in text
        assert "siswap q[0],q[1];" in text

    def test_nth_root_iswap_exported_with_root(self):
        circuit = QuantumCircuit(2)
        circuit.append(NthRootISwapGate(4), (0, 1))
        text = circuit_to_qasm(circuit)
        assert "opaque niswap(n) a,b;" in text
        assert "niswap(4) q[0],q[1];" in text

    def test_unitary_gate_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.unitary(np.eye(4), (0, 1))
        with pytest.raises(QasmExportError):
            circuit_to_qasm(circuit)

    def test_header_comment_can_be_suppressed(self):
        circuit = QuantumCircuit(1)
        text = circuit_to_qasm(circuit, include_header_comment=False)
        assert text.startswith("OPENQASM")

    def test_barrier_serialised(self):
        circuit = QuantumCircuit(2)
        circuit.barrier()
        assert "barrier q[0],q[1];" in circuit_to_qasm(circuit)


class TestParser:
    def test_minimal_program(self):
        circuit = circuit_from_qasm(
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; h q[0]; cx q[0],q[1];'
        )
        assert circuit.num_qubits == 2
        assert circuit.count_ops() == {"h": 1, "cx": 1}

    def test_parameters_with_pi_expressions(self):
        circuit = circuit_from_qasm(
            "OPENQASM 2.0; qreg q[1]; rz(pi/2) q[0]; rx(-pi/4) q[0];"
        )
        assert circuit.instructions[0].gate.params[0] == pytest.approx(np.pi / 2)
        assert circuit.instructions[1].gate.params[0] == pytest.approx(-np.pi / 4)

    def test_measure_and_creg_ignored(self):
        circuit = circuit_from_qasm(
            "OPENQASM 2.0; qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];"
        )
        assert circuit.count_ops() == {"h": 1}

    def test_missing_header_rejected(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm("qreg q[2]; h q[0];")

    def test_missing_register_rejected(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm("OPENQASM 2.0; h q[0];")

    def test_unknown_gate_rejected(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm("OPENQASM 2.0; qreg q[1]; frobnicate q[0];")

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm("OPENQASM 2.0; qreg q[2]; h q[5];")

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm("OPENQASM 2.0; qreg q[1]; rz q[0];")

    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm("OPENQASM 2.0; qreg q[2]; cx q[0];")

    @pytest.mark.parametrize("parameter", ["__import__", "2**2000", "1e400", "pi.real", "2**10"])
    def test_malicious_parameter_rejected(self, parameter):
        with pytest.raises(QasmParseError):
            circuit_from_qasm(f"OPENQASM 2.0; qreg q[1]; rz({parameter}) q[0];")

    @pytest.mark.parametrize(
        "statement", ["cx q[0],q[0]", "barrier q[1],q[1]", "niswap(0) q[0],q[1]"]
    )
    def test_invalid_gate_arguments_rejected(self, statement):
        with pytest.raises(QasmParseError):
            circuit_from_qasm(f"OPENQASM 2.0; qreg q[2]; {statement};")

    @given(program=_qasm_programs())
    @settings(max_examples=200, deadline=None)
    def test_any_program_parses_to_finite_parameters_or_is_refused(self, program):
        try:
            circuit = circuit_from_qasm(program)
        except QasmParseError:
            return
        params = [param for instruction in circuit for param in instruction.gate.params]
        assert all(math.isfinite(param) for param in params)

    def test_two_registers_rejected(self):
        with pytest.raises(QasmParseError):
            circuit_from_qasm("OPENQASM 2.0; qreg q[1]; qreg r[1]; h q[0];")

    def test_comments_are_stripped(self):
        circuit = circuit_from_qasm(
            "OPENQASM 2.0; // header\nqreg q[1];\nh q[0]; // flip\n"
        )
        assert circuit.count_ops() == {"h": 1}


class TestRoundtrip:
    def unitaries_match(self, circuit: QuantumCircuit) -> bool:
        rebuilt = roundtrip(circuit)
        fidelity = hilbert_schmidt_fidelity(circuit.to_unitary(), rebuilt.to_unitary())
        return abs(fidelity - 1.0) < 1e-9

    def test_ghz_roundtrip(self):
        assert self.unitaries_match(build_workload("GHZ", 4))

    def test_qft_roundtrip(self):
        assert self.unitaries_match(build_workload("QFT", 4))

    def test_adder_roundtrip_gate_counts(self):
        circuit = build_workload("Adder", 6)
        rebuilt = roundtrip(circuit)
        assert rebuilt.count_ops() == circuit.count_ops()

    def test_siswap_heavy_circuit_roundtrip(self):
        circuit = QuantumCircuit(3)
        circuit.siswap(0, 1)
        circuit.append(NthRootISwapGate(3), (1, 2))
        circuit.append(FSimGate(0.3, 0.1), (0, 2))
        circuit.append(ZXGate(0.5), (0, 1))
        assert self.unitaries_match(circuit)

    def test_transpiled_circuit_roundtrip(self):
        device = get_topology("Tree", scale="small")
        circuit = build_workload("GHZ", 6)
        result = transpile(circuit, device, basis_name="siswap", translation_mode="synthesis")
        rebuilt = roundtrip(result.circuit)
        assert rebuilt.two_qubit_gate_count() == result.circuit.two_qubit_gate_count()

    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_random_circuit_roundtrip_preserves_unitary(self, seed):
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(3)
        for _ in range(10):
            kind = rng.integers(5)
            if kind == 0:
                circuit.rz(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(3)))
            elif kind == 1:
                circuit.u3(*[float(rng.uniform(-np.pi, np.pi)) for _ in range(3)], int(rng.integers(3)))
            elif kind == 2:
                a, b = rng.choice(3, size=2, replace=False)
                circuit.cx(int(a), int(b))
            elif kind == 3:
                a, b = rng.choice(3, size=2, replace=False)
                circuit.siswap(int(a), int(b))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                circuit.rzz(float(rng.uniform(-np.pi, np.pi)), int(a), int(b))
        assert self.unitaries_match(circuit)
