"""Commutation-aware gate cancellation.

:class:`CancelAdjacentInverses` only removes inverse pairs that are
literally adjacent on all of their qubits.  Routing and basis translation
frequently leave inverse pairs separated by gates that *commute* with them
(e.g. two CX gates on the same pair separated by an RZ on the control, or
back-to-back routing SWAPs separated by a gate on an unrelated qubit pair
that happens to share one endpoint).  :class:`CommutativeCancellation`
handles that case: it looks back from every instruction over the 20 most
recent live instructions and cancels the pair when it finds an inverse
that every nearer instruction commutes with.  Only an instruction on the
same qubit tuple can be the inverse, so the look-back asks about those
first and about the rest only once it has found one.

Commutation is decided numerically on the joint unitary of the two
instructions (at most four qubits), so the pass is conservative but exact:
it never changes the circuit unitary, which the tests verify directly.
Two exactly diagonal gates commute, which needs no joint unitary.

Routing emits the same few gates over and over, so the thousands of
overlapping pairs a sweep checks reduce to under a thousand distinct
questions.  :func:`pair_verdict` answers each distinct question once with
the numeric predicates and then serves it from :data:`COMMUTATION_CACHE`.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate, UnitaryGate
from repro.circuits.instruction import Instruction
from repro.linalg.cache import LRUCache
from repro.transpiler.passmanager import PropertySet, TranspilerPass

_ATOL = 1e-9

#: The three answers of :func:`pair_verdict`.
INVERSE = "inverse"
COMMUTES = "commutes"
BLOCKS = "blocks"

#: Process-wide memo of :func:`pair_verdict` for pairs that share qubits.
#: It outlives pass instances because the pass registry builds a new pass
#: for every compiled circuit; each pool worker builds its own, as with
#: :data:`repro.linalg.cache.UNITARY_CACHE`.  One sweep of the level-3
#: benchmark grid needs about 850 entries.
COMMUTATION_CACHE = LRUCache(maxsize=4096)


def _joint_unitary(first: Instruction, second: Instruction) -> Tuple[np.ndarray, np.ndarray]:
    """Matrices of two instructions expanded onto their joint qubit set."""
    qubits = sorted(set(first.qubits) | set(second.qubits))
    index = {qubit: position for position, qubit in enumerate(qubits)}
    dim = 2 ** len(qubits)

    def expand(instruction: Instruction) -> np.ndarray:
        matrix = np.eye(dim, dtype=complex).reshape([2] * (2 * len(qubits)))
        gate = instruction.gate.matrix().reshape([2] * (2 * instruction.num_qubits))
        # Row axis for joint qubit position p is p (most-significant first).
        axes = [index[q] for q in instruction.qubits]
        contracted = np.tensordot(
            gate,
            matrix,
            axes=(list(range(instruction.num_qubits, 2 * instruction.num_qubits)), axes),
        )
        moved = np.moveaxis(contracted, range(instruction.num_qubits), axes)
        return moved.reshape(dim, dim)

    return expand(first), expand(second)


def _is_diagonal(matrix: np.ndarray) -> bool:
    """True when every off-diagonal entry of ``matrix`` is exactly zero."""
    return np.count_nonzero(matrix) == np.count_nonzero(np.diagonal(matrix))


def instructions_commute(first: Instruction, second: Instruction) -> bool:
    """True when the two instructions commute (exactly, up to numerical tolerance).

    Two exactly diagonal gates commute on any qubits, so they are answered
    without building the joint unitaries.
    """
    if not set(first.qubits) & set(second.qubits):
        return True
    if first.name == "barrier" or second.name == "barrier":
        return False
    if _is_diagonal(first.gate.matrix()) and _is_diagonal(second.gate.matrix()):
        return True
    matrix_a, matrix_b = _joint_unitary(first, second)
    return bool(np.allclose(matrix_a @ matrix_b, matrix_b @ matrix_a, atol=_ATOL))


def _is_inverse_pair(first: Instruction, second: Instruction) -> bool:
    """True when applying ``first`` then ``second`` is the identity (up to phase)."""
    if first.qubits != second.qubits:
        return False
    if first.name == "barrier" or second.name == "barrier":
        return False
    product = second.gate.matrix() @ first.gate.matrix()
    phase = product[0, 0]
    if abs(abs(phase) - 1.0) > _ATOL:
        return False
    return bool(np.allclose(product, phase * np.eye(product.shape[0]), atol=_ATOL))


def _gate_identity(gate: Gate) -> Hashable:
    """What fixes a gate's matrix: class, name, width and exact parameters.

    The assumption :meth:`Gate.cached_matrix` makes, without its rounding:
    parameters that differ in the last bit are different gates.  A
    :class:`UnitaryGate` is identified by its matrix bytes.
    """
    if isinstance(gate, UnitaryGate):
        return (UnitaryGate, gate.num_qubits, gate.cached_matrix().tobytes())
    return (type(gate), gate.name, gate.num_qubits, gate.params)


def pair_verdict(first: Instruction, second: Instruction) -> str:
    """How ``second`` relates to the earlier ``first``.

    :data:`INVERSE` when ``first`` then ``second`` is the identity (up to
    phase), else :data:`COMMUTES` when the two commute, else
    :data:`BLOCKS`.  Pairs on disjoint qubits commute.  A pair that shares
    qubits is decided by :func:`_is_inverse_pair` and
    :func:`instructions_commute` on a cache miss, keyed on each gate's
    identity and each instruction's qubit positions within the joint
    qubit set.
    """
    if set(first.qubits).isdisjoint(second.qubits):
        return COMMUTES
    position = {
        qubit: index
        for index, qubit in enumerate(sorted(set(first.qubits).union(second.qubits)))
    }
    key = (
        _gate_identity(first.gate),
        tuple(position[qubit] for qubit in first.qubits),
        _gate_identity(second.gate),
        tuple(position[qubit] for qubit in second.qubits),
    )
    verdict = COMMUTATION_CACHE.get(key)
    if verdict is None:
        if _is_inverse_pair(first, second):
            verdict = INVERSE
        elif instructions_commute(first, second):
            verdict = COMMUTES
        else:
            verdict = BLOCKS
        COMMUTATION_CACHE.put(key, verdict)
    return verdict


class CommutativeCancellation(TranspilerPass):
    """Cancel inverse pairs separated only by commuting gates.

    The search window per instruction is bounded (``max_lookback``) to keep
    the pass linear in practice; a window of a few tens of gates captures
    essentially all cancellations produced by routing.
    """

    name = "commutative_cancellation"

    def __init__(self, max_lookback: int = 20):
        self._max_lookback = max(1, int(max_lookback))

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        kept: List[Optional[Instruction]] = []
        cancelled = 0
        for instruction in circuit:
            if instruction.name == "barrier":
                kept.append(instruction)
                continue
            partner = self._find_cancellable_partner(instruction, kept)
            if partner is not None:
                kept[partner] = None
                cancelled += 2
                continue
            kept.append(instruction)
        result = QuantumCircuit(circuit.num_qubits, name=circuit.name)
        for instruction in kept:
            if instruction is not None:
                result._append_trusted(instruction)
        properties["commutative_cancelled"] = (
            properties.get("commutative_cancelled", 0) + cancelled
        )
        return result

    def _find_cancellable_partner(
        self, instruction: Instruction, kept: List[Optional[Instruction]]
    ) -> Optional[int]:
        """Index into ``kept`` of an earlier instruction that cancels this one.

        The window is the ``max_lookback`` most recent live entries of
        ``kept``; slots emptied by earlier cancellations do not count.  The
        partner is the nearest entry that is :data:`INVERSE` with every
        nearer entry :data:`COMMUTES`.  Only an entry on the identical
        qubit tuple can be :data:`INVERSE`, so those are asked first,
        nearest first, and the first one that :data:`BLOCKS` ends the
        search.  Only for an inverse one are the entries between it and
        ``instruction`` asked whether any blocks.
        """
        qubits = instruction.qubits
        live = 0
        for index in range(len(kept) - 1, -1, -1):
            earlier = kept[index]
            if earlier is None:
                continue
            live += 1
            if live > self._max_lookback:
                return None
            if earlier.qubits != qubits:
                continue
            verdict = pair_verdict(earlier, instruction)
            if verdict == BLOCKS:
                return None
            if verdict == INVERSE:
                # Nearer entries on this tuple were already asked: they commute.
                for between in reversed(kept[index + 1 :]):
                    if (
                        between is not None
                        and between.qubits != qubits
                        and pair_verdict(between, instruction) == BLOCKS
                    ):
                        return None
                return index
        return None
