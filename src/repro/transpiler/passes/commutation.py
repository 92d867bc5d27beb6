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

Commutation is decided numerically on the gates' exact matrices, so the
pass is conservative but exact: it never changes the circuit unitary,
which the tests verify directly.

Routing emits the same few gates over and over, so the thousands of
overlapping pairs a sweep checks reduce to under a thousand distinct
questions.  :func:`pair_verdict` answers each distinct question once and
then serves it from :data:`COMMUTATION_CACHE`.

Every answer is decided on per-gate facts that are worked out once, not
per pair.  The pass notes each gate's exact identity once per gate object
and keeps its live instructions, with those identities, in one list.
:data:`GATE_MATRIX_CACHE` holds each identity's exact matrix and whether
it is diagonal.  A cache miss then costs one or two small products:

* two gates on one qubit tuple are tested on their own matrices, because
  relabelling both gates' qubits the same way changes neither whether
  they are inverse nor whether they commute;
* two exactly diagonal gates commute;
* only a pair that shares some but not all of its qubits is expanded onto
  the joint qubit set, by one gather of the gate's entries and a product
  with a cached 0/1 mask, which gives the same entries as the Kronecker
  product with an identity.

Closeness is numpy's ``isclose`` formula written out,
``|a - b| <= 1e-9 + 1e-5 * |b|`` with the relative tolerance on the second
operand, which is what ``np.allclose(a, b, atol=1e-9)`` tests for finite
matrices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate, UnitaryGate
from repro.circuits.instruction import Instruction
from repro.linalg.cache import LRUCache
from repro.transpiler.passmanager import PropertySet, TranspilerPass

_ATOL = 1e-9
#: ``np.isclose``'s default relative tolerance.
_RTOL = 1e-5

#: The three answers of :func:`pair_verdict`.
INVERSE = "inverse"
COMMUTES = "commutes"
BLOCKS = "blocks"

#: Process-wide memo of :func:`pair_verdict` for pairs that share qubits.
#: It outlives pass instances because the pass registry builds a new pass
#: for every compiled circuit; each pool worker builds its own, as with
#: :data:`repro.linalg.cache.UNITARY_CACHE`.  One sweep of the level-3
#: benchmark grid needs about 900 entries.
COMMUTATION_CACHE = LRUCache(maxsize=4096)

#: Process-wide memo of each gate identity's exact matrix (read-only) and
#: whether it is diagonal, filled on :data:`COMMUTATION_CACHE` misses.  One
#: sweep of the level-3 benchmark grid meets about 100 identities.
GATE_MATRIX_CACHE = LRUCache(maxsize=1024)


def _gate_identity(gate: Gate) -> Hashable:
    """What fixes a gate's matrix: class, name, width and exact parameters.

    The assumption :meth:`Gate.cached_matrix` makes, without its rounding:
    parameters that differ in the last bit are different gates.  A
    :class:`UnitaryGate` is identified by its matrix bytes.
    """
    if isinstance(gate, UnitaryGate):
        return (UnitaryGate, gate.num_qubits, gate.cached_matrix().tobytes())
    return (type(gate), gate.name, gate.num_qubits, gate.params)


@lru_cache(maxsize=4096)
def _positions(qubits: Tuple[int, ...]) -> Tuple[int, ...]:
    """Each qubit's position within the sorted tuple."""
    order = sorted(qubits)
    return tuple(order.index(qubit) for qubit in qubits)


class _Entry:
    """An instruction with the facts its verdicts need, noted once."""

    __slots__ = ("instruction", "qubits", "identity", "positions")

    def __init__(self, instruction: Instruction, identity: Hashable):
        self.instruction = instruction
        self.qubits = instruction.qubits
        self.identity = identity
        self.positions = _positions(instruction.qubits)


def _entry(item: Union[Instruction, _Entry]) -> _Entry:
    """``item`` when it is a look-back entry, else an entry for the instruction."""
    if type(item) is _Entry:
        return item
    return _Entry(item, _gate_identity(item.gate))


def _matrix_facts(entry: _Entry) -> Tuple[np.ndarray, bool]:
    """The exact matrix of the entry's gate and whether it is diagonal."""
    facts = GATE_MATRIX_CACHE.get(entry.identity)
    if facts is None:
        matrix = entry.instruction.gate.matrix()
        matrix.setflags(write=False)
        facts = (matrix, _is_diagonal(matrix))
        GATE_MATRIX_CACHE.put(entry.identity, facts)
    return facts


def _is_diagonal(matrix: np.ndarray) -> bool:
    """True when every off-diagonal entry of ``matrix`` is exactly zero."""
    return np.count_nonzero(matrix) == np.count_nonzero(np.diagonal(matrix))


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.allclose(a, b, atol=1e-9)`` for finite matrices."""
    return bool((np.abs(a - b) <= _ATOL + _RTOL * np.abs(b)).all())


@lru_cache(maxsize=256)
def _expansion(positions: Tuple[int, ...], width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index and mask that expand a gate on joint ``positions`` to ``width`` qubits.

    Joint basis state ``x`` (most significant qubit first) meets the gate
    in the state ``index[x]`` made of its bits at ``positions``, and the
    identity on the other qubits keeps entry ``(x, y)`` only where ``x``
    and ``y`` agree off ``positions``.  The expanded matrix is
    ``matrix[index[:, None], index] * keep``: every entry is a gate entry
    times 1.0 or 0.0, as in the Kronecker product with an identity.
    """
    states = np.arange(2**width)
    index = np.zeros_like(states)
    others = states
    for slot, position in enumerate(positions):
        bit = width - 1 - position
        index |= ((states >> bit) & 1) << (len(positions) - 1 - slot)
        others = others & ~(1 << bit)
    keep = (others[:, None] == others[None, :]).astype(float)
    index.setflags(write=False)
    keep.setflags(write=False)
    return index, keep


def _joint_unitary(first: _Entry, second: _Entry) -> Tuple[np.ndarray, np.ndarray]:
    """Matrices of two entries' gates expanded onto their joint qubit set."""
    joint = sorted(set(first.qubits).union(second.qubits))
    position = {qubit: index for index, qubit in enumerate(joint)}

    def expand(entry: _Entry) -> np.ndarray:
        index, keep = _expansion(tuple(position[q] for q in entry.qubits), len(joint))
        return _matrix_facts(entry)[0][index[:, None], index] * keep

    return expand(first), expand(second)


def _is_inverse(first: np.ndarray, second: np.ndarray) -> bool:
    """True when ``first`` then ``second`` is the identity (up to phase)."""
    product = second @ first
    phase = product[0, 0]
    if abs(abs(phase) - 1.0) > _ATOL:
        return False
    return _close(product, phase * np.eye(product.shape[0]))


def _commute(first: _Entry, second: _Entry) -> bool:
    """Whether two entries that share qubits commute (neither a barrier)."""
    matrix_a, diagonal_a = _matrix_facts(first)
    matrix_b, diagonal_b = _matrix_facts(second)
    if diagonal_a and diagonal_b:
        return True
    if first.qubits != second.qubits:
        matrix_a, matrix_b = _joint_unitary(first, second)
    return _close(matrix_a @ matrix_b, matrix_b @ matrix_a)


def _decide(first: _Entry, second: _Entry) -> str:
    """The verdict of two entries that share qubits, from their gates' facts."""
    if first.instruction.name == "barrier" or second.instruction.name == "barrier":
        return BLOCKS
    if first.qubits == second.qubits and _is_inverse(
        _matrix_facts(first)[0], _matrix_facts(second)[0]
    ):
        return INVERSE
    return COMMUTES if _commute(first, second) else BLOCKS


def instructions_commute(first: Instruction, second: Instruction) -> bool:
    """True when the two instructions commute (exactly, up to numerical tolerance).

    Two exactly diagonal gates commute on any qubits, so they are answered
    without building the joint unitaries.
    """
    if not set(first.qubits) & set(second.qubits):
        return True
    if first.name == "barrier" or second.name == "barrier":
        return False
    return _commute(_entry(first), _entry(second))


def pair_verdict(first: Union[Instruction, _Entry], second: Union[Instruction, _Entry]) -> str:
    """How ``second`` relates to the earlier ``first``.

    :data:`INVERSE` when ``first`` then ``second`` is the identity (up to
    phase), else :data:`COMMUTES` when the two commute, else
    :data:`BLOCKS`.  Pairs on disjoint qubits commute.  A pair that shares
    qubits is decided on a cache miss from the two gates' facts, keyed on
    each gate's identity and each instruction's qubit positions within
    the joint qubit set.  Either argument may be an instruction or the
    look-back's entry for one.
    """
    first, second = _entry(first), _entry(second)
    if first.qubits == second.qubits:
        first_positions = second_positions = first.positions
    else:
        qubits = set(first.qubits)
        if qubits.isdisjoint(second.qubits):
            return COMMUTES
        position = {qubit: index for index, qubit in enumerate(sorted(qubits.union(second.qubits)))}
        first_positions = tuple(position[qubit] for qubit in first.qubits)
        second_positions = tuple(position[qubit] for qubit in second.qubits)
    key = (first.identity, first_positions, second.identity, second_positions)
    verdict = COMMUTATION_CACHE.get(key)
    if verdict is None:
        verdict = _decide(first, second)
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
        live: List[_Entry] = []
        # Keyed by id(): the circuit holds every gate until the pass returns.
        identities: Dict[int, Hashable] = {}
        cancelled = 0
        for instruction in circuit:
            gate = instruction.gate
            identity = identities.get(id(gate))
            if identity is None:
                identity = identities[id(gate)] = _gate_identity(gate)
            entry = _Entry(instruction, identity)
            if gate.name != "barrier":
                partner = self._find_cancellable_partner(entry, live)
                if partner is not None:
                    del live[partner]
                    cancelled += 2
                    continue
            live.append(entry)
        result = QuantumCircuit(circuit.num_qubits, name=circuit.name)
        for entry in live:
            result._append_trusted(entry.instruction)
        properties["commutative_cancelled"] = (
            properties.get("commutative_cancelled", 0) + cancelled
        )
        return result

    def _find_cancellable_partner(self, entry: _Entry, live: List[_Entry]) -> Optional[int]:
        """Index into ``live`` of an earlier entry that cancels ``entry``.

        The window is the ``max_lookback`` most recent live entries.  The
        partner is the nearest entry that is :data:`INVERSE` with every
        nearer entry :data:`COMMUTES`.  Only an entry on the identical
        qubit tuple can be :data:`INVERSE`, so those are asked first,
        nearest first, and the first one that :data:`BLOCKS` ends the
        search.  Only for an inverse one are the entries between it and
        ``entry`` asked whether any blocks.
        """
        qubits = entry.qubits
        for index in range(len(live) - 1, max(0, len(live) - self._max_lookback) - 1, -1):
            earlier = live[index]
            if earlier.qubits != qubits:
                continue
            verdict = pair_verdict(earlier, entry)
            if verdict == BLOCKS:
                return None
            if verdict == INVERSE:
                # Nearer entries on this tuple were already asked: they commute.
                for between in reversed(live[index + 1 :]):
                    if between.qubits != qubits and pair_verdict(between, entry) == BLOCKS:
                        return None
                return index
        return None
