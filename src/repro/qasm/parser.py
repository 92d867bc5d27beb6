"""Parse (a subset of) OpenQASM 2 into :class:`~repro.circuits.circuit.QuantumCircuit`.

The parser accepts the dialect produced by :mod:`repro.qasm.exporter`:

* one ``qreg`` declaration (classical registers are accepted and ignored),
* the standard qelib1 gates this library implements,
* the opaque extension gates ``iswap``, ``siswap``, ``niswap(n)``,
  ``fsim(theta, phi)``, ``syc`` and ``zx(theta)``,
* ``barrier`` statements,
* ``measure`` statements (accepted and ignored — the IR has no classical bits).

Parameter expressions may use numbers, ``pi``, unary ``+``/``-`` and the
four arithmetic operators (no parentheses: a parameter list ends at the
first ``)``).  They are evaluated by walking their syntax tree, never by
``eval``, and a value that is not finite is refused.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Callable, Dict, List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.gates import (
    CCXGate,
    CPhaseGate,
    CXGate,
    CZGate,
    FSimGate,
    HGate,
    IGate,
    ISwapGate,
    NthRootISwapGate,
    PhaseGate,
    RXGate,
    RXXGate,
    RYGate,
    RZGate,
    RZZGate,
    SdgGate,
    SGate,
    SqrtISwapGate,
    SwapGate,
    SXGate,
    SycamoreGate,
    TdgGate,
    TGate,
    U3Gate,
    XGate,
    YGate,
    ZGate,
    ZXGate,
)


class QasmParseError(ValueError):
    """Raised on malformed or unsupported OpenQASM input."""


#: gate name -> (number of parameters, number of qubits, factory)
_GATE_TABLE: Dict[str, Tuple[int, int, Callable[..., Gate]]] = {
    "id": (0, 1, IGate),
    "x": (0, 1, XGate),
    "y": (0, 1, YGate),
    "z": (0, 1, ZGate),
    "h": (0, 1, HGate),
    "s": (0, 1, SGate),
    "sdg": (0, 1, SdgGate),
    "t": (0, 1, TGate),
    "tdg": (0, 1, TdgGate),
    "sx": (0, 1, SXGate),
    "rx": (1, 1, RXGate),
    "ry": (1, 1, RYGate),
    "rz": (1, 1, RZGate),
    "p": (1, 1, PhaseGate),
    "u1": (1, 1, PhaseGate),
    "u3": (3, 1, U3Gate),
    "u": (3, 1, U3Gate),
    "cx": (0, 2, CXGate),
    "CX": (0, 2, CXGate),
    "cz": (0, 2, CZGate),
    "cp": (1, 2, CPhaseGate),
    "cu1": (1, 2, CPhaseGate),
    "rzz": (1, 2, RZZGate),
    "rxx": (1, 2, RXXGate),
    "swap": (0, 2, SwapGate),
    "iswap": (0, 2, ISwapGate),
    "siswap": (0, 2, SqrtISwapGate),
    "niswap": (1, 2, lambda n: NthRootISwapGate(int(round(n)))),
    "fsim": (2, 2, FSimGate),
    "syc": (0, 2, SycamoreGate),
    "zx": (1, 2, ZXGate),
    "ccx": (0, 3, CCXGate),
}

_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}

_STATEMENT_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*(?:\((?P<params>[^)]*)\))?\s*(?P<args>[^;]*)$"
)
_QREG_RE = re.compile(r"^qreg\s+(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*\[\s*(?P<size>\d+)\s*\]$")
_QUBIT_RE = re.compile(r"^(?P<register>[A-Za-z_][A-Za-z_0-9]*)\s*\[\s*(?P<index>\d+)\s*\]$")


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if "//" in line:
            line = line[: line.index("//")]
        lines.append(line)
    return "\n".join(lines)


def _evaluate_node(node: ast.AST) -> float:
    """The value of a parameter's syntax tree: numbers and ``pi`` under ``+ - * /``."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_evaluate_node(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_evaluate_node(node.left), _evaluate_node(node.right))
    refused = type(getattr(node, "op", node)).__name__  # e.g. Pow, Call, Attribute
    raise ValueError(f"{refused} is not allowed in a gate parameter")


def _evaluate_parameter(expression: str) -> float:
    expression = expression.strip()
    if not expression:
        raise QasmParseError("empty gate parameter")
    try:
        value = _evaluate_node(ast.parse(expression, mode="eval").body)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        # The parser reports a too deeply nested expression as MemoryError.
        raise QasmParseError(f"cannot evaluate parameter {expression!r}") from exc
    if not math.isfinite(value):
        raise QasmParseError(f"parameter {expression!r} is not finite")
    return value


def _parse_qubits(args: str, register: str, size: int, statement: str) -> List[int]:
    qubits: List[int] = []
    for token in (part.strip() for part in args.split(",") if part.strip()):
        match = _QUBIT_RE.match(token)
        if not match:
            raise QasmParseError(f"cannot parse qubit operand {token!r} in {statement!r}")
        if match.group("register") != register:
            raise QasmParseError(
                f"unknown register {match.group('register')!r} in {statement!r}"
            )
        index = int(match.group("index"))
        if index >= size:
            raise QasmParseError(f"qubit index {index} exceeds register size {size}")
        if index in qubits:
            raise QasmParseError(f"qubit operand {token!r} repeats in {statement!r}")
        qubits.append(index)
    return qubits


def circuit_from_qasm(text: str, name: str = "from_qasm") -> QuantumCircuit:
    """Parse OpenQASM 2 text into a :class:`QuantumCircuit`."""
    stripped = _strip_comments(text)
    statements = [s.strip() for s in stripped.replace("\n", " ").split(";") if s.strip()]
    if not statements or not statements[0].startswith("OPENQASM"):
        raise QasmParseError("input does not start with an OPENQASM version statement")
    register_name = ""
    register_size = 0
    circuit: QuantumCircuit = QuantumCircuit(1, name=name)
    have_register = False
    for statement in statements[1:]:
        if statement.startswith("include") or statement.startswith("creg"):
            continue
        if statement.startswith("opaque") or statement.startswith("gate "):
            continue
        if statement.startswith("qreg"):
            if have_register:
                raise QasmParseError("only a single quantum register is supported")
            match = _QREG_RE.match(statement)
            if not match:
                raise QasmParseError(f"cannot parse register declaration {statement!r}")
            register_name = match.group("name")
            register_size = int(match.group("size"))
            if register_size < 1:
                raise QasmParseError("quantum register must have at least one qubit")
            circuit = QuantumCircuit(register_size, name=name)
            have_register = True
            continue
        if statement.startswith("measure") or statement.startswith("reset"):
            continue
        if not have_register:
            raise QasmParseError(f"gate statement {statement!r} before any qreg declaration")
        match = _STATEMENT_RE.match(statement)
        if not match:
            raise QasmParseError(f"cannot parse statement {statement!r}")
        gate_name = match.group("name")
        params_text = match.group("params")
        args_text = match.group("args")
        qubits = _parse_qubits(args_text, register_name, register_size, statement)
        if gate_name == "barrier":
            circuit.barrier(qubits if qubits else None)
            continue
        if gate_name not in _GATE_TABLE:
            raise QasmParseError(f"unsupported gate {gate_name!r}")
        num_params, num_qubits, factory = _GATE_TABLE[gate_name]
        params = (
            [_evaluate_parameter(p) for p in params_text.split(",")] if params_text else []
        )
        if len(params) != num_params:
            raise QasmParseError(
                f"gate {gate_name!r} expects {num_params} parameters, got {len(params)}"
            )
        if len(qubits) != num_qubits:
            raise QasmParseError(
                f"gate {gate_name!r} expects {num_qubits} qubits, got {len(qubits)}"
            )
        try:
            circuit.append(factory(*params), tuple(qubits))
        except ValueError as exc:  # e.g. niswap(0)
            raise QasmParseError(f"invalid gate statement {statement!r}: {exc}") from exc
    if not have_register:
        raise QasmParseError("no qreg declaration found")
    return circuit
