"""Output checks that do not trust the compiler.

Everything here reads the compiled circuits as plain data (gate matrices,
qubit indices, layouts) and judges them with code of its own:

* :func:`coupling_violations` — every two-qubit gate sits on an edge of
  the target's coupling map;
* :func:`routing_equivalence_error` — a small tensor-contraction
  statevector interpreter replays the input circuit and the routed circuit
  from the same random product state and compares the results, up to the
  initial and final layout permutation;

(Record-by-record comparison lives in :func:`harness.record_mismatches`.)

The module needs only NumPy, so the benchmark's own tests can plant bad
outputs without building the program.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Points up to this many algorithm qubits get the statevector check.
SIMULATE_MAX_QUBITS = 10

#: Routed circuits touching more physical qubits than this are refused as
#: too large to simulate (reported as a failed check, never skipped).
SIMULATE_MAX_ACTIVE = 20

#: Tolerated infidelity between the reference and the routed state.
STATE_TOLERANCE = 1e-8


def _apply(state: np.ndarray, matrix: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply a ``k``-qubit matrix (argument order, most significant first)."""
    k = len(axes)
    gate = matrix.reshape((2,) * (2 * k))
    state = np.tensordot(gate, state, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(state, list(range(k)), list(axes))


def simulate(
    gates: Iterable[Tuple[np.ndarray, Sequence[int]]], initial: Sequence[np.ndarray]
) -> np.ndarray:
    """Statevector after ``gates`` from the product state ``initial``
    (one 2-vector per qubit); axis ``i`` of the result is qubit ``i``."""
    state = np.ones((), dtype=complex)
    for qubit_state in initial:
        state = np.multiply.outer(state, qubit_state)
    for matrix, qubits in gates:
        state = _apply(state, matrix, qubits)
    return state


def circuit_gates(
    circuit, relabel: Optional[Mapping[int, int]] = None
) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
    """``(matrix, qubits)`` pairs of a circuit, barriers dropped."""
    gates = []
    for instruction in circuit:
        if instruction.gate.name == "barrier":
            continue
        qubits = tuple(instruction.qubits)
        if relabel is not None:
            qubits = tuple(relabel[q] for q in qubits)
        gates.append((np.asarray(instruction.gate.matrix(), dtype=complex), qubits))
    return gates


def routing_equivalence_error(
    original,
    routed,
    initial_layout: Mapping[int, int],
    final_layout: Mapping[int, int],
    seed: int = 0,
) -> float:
    """Infidelity ``1 - |<expected|routed>|`` of a routed circuit.

    ``initial_layout`` / ``final_layout`` map each virtual qubit to the
    physical qubit holding it before / after the routed circuit.  Each
    virtual qubit starts in a seeded random pure state (so a misplaced
    qubit shows even where ``|0...0>`` would hide it); every other physical
    qubit starts in ``|0>``.  Only the physical qubits the routed circuit
    touches, plus the layouts' images, are simulated.
    """
    num_virtual = original.num_qubits
    active = set(initial_layout[v] for v in range(num_virtual))
    active |= set(final_layout[v] for v in range(num_virtual))
    for instruction in routed:
        active.update(instruction.qubits)
    if len(active) > SIMULATE_MAX_ACTIVE:
        raise ValueError(f"routed circuit touches {len(active)} qubits; too many to simulate")
    index = {physical: axis for axis, physical in enumerate(sorted(active))}
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(num_virtual, 2)) + 1j * rng.normal(size=(num_virtual, 2))
    inputs /= np.linalg.norm(inputs, axis=1, keepdims=True)
    zero = np.array([1.0, 0.0], dtype=complex)
    start = [zero] * len(index)
    for v in range(num_virtual):
        start[index[initial_layout[v]]] = inputs[v]
    reference = simulate(circuit_gates(original), list(inputs))
    actual = simulate(circuit_gates(routed, index), start)
    # Virtual qubit v sits on axis v of the reference; ancillas start and
    # end in |0>.  Move each virtual axis to its final physical qubit.
    expected = np.zeros((2,) * len(index), dtype=complex)
    expected[(Ellipsis,) + (0,) * (len(index) - num_virtual)] = reference
    destination = [index[final_layout[v]] for v in range(num_virtual)]
    destination += [axis for axis in range(len(index)) if axis not in set(destination)]
    expected = np.moveaxis(expected, list(range(len(index))), destination)
    overlap = abs(np.vdot(expected.ravel(), actual.ravel()))
    return float(1.0 - overlap)


def coupling_violations(circuit, edges: Iterable[Tuple[int, int]], num_physical: int) -> List[str]:
    """Two-qubit gates of ``circuit`` that are not on a coupling edge."""
    allowed = {tuple(sorted(edge)) for edge in edges}
    problems = []
    if circuit.num_qubits > num_physical:
        problems.append(f"circuit has {circuit.num_qubits} qubits, device {num_physical}")
    for position, instruction in enumerate(circuit):
        if instruction.gate.name == "barrier" or len(instruction.qubits) != 2:
            continue
        pair = tuple(sorted(instruction.qubits))
        if pair not in allowed:
            problems.append(f"gate {position} ({instruction.gate.name}) on non-edge {pair}")
    return problems


def coupling_problems(target, routed, final) -> List[str]:
    """Two-qubit gates of the routed or the final circuit off the coupling map."""
    edges = list(target.coupling_map.edges())
    return [
        f"{name} circuit: {problem}"
        for name, out in (("routed", routed), ("final", final))
        for problem in coupling_violations(out, edges, target.num_qubits)
    ]


def equivalence_problems(circuit, routed, initial_layout, final_layout) -> List[str]:
    """The routed circuit must reproduce the input circuit's state.

    Only the routed circuit can be simulated: in the paper's "count"
    translation mode the final circuit stands in for basis-gate counts
    without the interleaved single-qubit gates.
    """
    try:
        error = routing_equivalence_error(circuit, routed, initial_layout, final_layout)
    except ValueError as problem:
        return [str(problem)]
    return [f"routed state infidelity {error:.3g}"] if error > STATE_TOLERANCE else []
