"""Directed-acyclic-graph view of a circuit, backed by flat integer arrays.

The routing passes need the dependency structure of a circuit: which gates
are currently executable (the *front layer*) and which gates become
executable once a given gate has been applied.  Dependency edges are held
in CSR form (``indptr``/``indices`` integer arrays, one pair for
successors and one for predecessors) rather than per-node Python sets, so
the routers' inner loop — decrement a predecessor counter, push newly
ready successors — runs on O(degree) array slices, and one DAG can be
shared across stochastic routing trials and layout passes through the
transpiler :class:`~repro.transpiler.passmanager.PropertySet`.

:class:`DAGNode` survives as a lightweight read-only view for callers that
want per-node objects; longest-path utilities cross-check the
critical-path counters of :class:`~repro.circuits.circuit.QuantumCircuit`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction

#: PropertySet key under which a shared DAG is recorded (see
#: :meth:`DAGCircuit.shared`).
SHARED_DAG_PROPERTY = "shared_dag"


def _csr_from_edges(
    sources: np.ndarray, targets: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices) grouped by source, ascending within a row."""
    order = np.lexsort((targets, sources))
    indices = targets[order]
    counts = np.bincount(sources, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


class DAGNode:
    """Read-only per-node view into the array-backed DAG."""

    __slots__ = ("_dag", "index")

    def __init__(self, dag: "DAGCircuit", index: int):
        self._dag = dag
        self.index = index

    @property
    def instruction(self) -> Instruction:
        """The instruction this node represents."""
        return self._dag.instruction(self.index)

    @property
    def predecessors(self) -> Tuple[int, ...]:
        """Predecessor indices, ascending."""
        return self._dag.predecessors(self.index)

    @property
    def successors(self) -> Tuple[int, ...]:
        """Successor indices, ascending."""
        return self._dag.successors(self.index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DAGNode(index={self.index}, name={self.instruction.name!r})"


class DAGCircuit:
    """Dependency DAG of a :class:`QuantumCircuit` on CSR integer arrays."""

    def __init__(self, circuit: QuantumCircuit):
        self._num_qubits = circuit.num_qubits
        self._instructions: Tuple[Instruction, ...] = tuple(circuit)
        n = len(self._instructions)

        # One dependency edge per (wire, consecutive instruction pair);
        # duplicates (two shared wires between the same pair) collapse.
        last_on_wire: Dict[int, int] = {}
        sources: List[int] = []
        targets: List[int] = []
        pred_counts = np.zeros(n, dtype=np.int64)
        is_two_qubit = np.zeros(n, dtype=bool)
        needs_coupling = np.zeros(n, dtype=bool)
        qubit_pairs = np.full((n, 2), -1, dtype=np.int64)
        for index, instruction in enumerate(self._instructions):
            previous: List[int] = []
            for qubit in instruction.qubits:
                prev = last_on_wire.get(qubit)
                if prev is not None and prev not in previous:
                    previous.append(prev)
                last_on_wire[qubit] = index
            pred_counts[index] = len(previous)
            sources.extend(previous)
            targets.extend([index] * len(previous))
            if instruction.num_qubits >= 2 and instruction.name != "barrier":
                # Multi-qubit gates (should none survive the decompose init
                # stage) are routed on their first two operands, exactly as
                # the routers' adjacency checks always treated them.
                needs_coupling[index] = True
                is_two_qubit[index] = instruction.is_two_qubit
                qubit_pairs[index, 0] = instruction.qubits[0]
                qubit_pairs[index, 1] = instruction.qubits[1]

        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        self._succ_indptr, self._succ_indices = _csr_from_edges(src, dst, n)
        self._pred_indptr, self._pred_indices = _csr_from_edges(dst, src, n)
        self._pred_counts = pred_counts
        self._is_two_qubit = is_two_qubit
        self._needs_coupling = needs_coupling
        self._qubit_pairs = qubit_pairs
        for array in (
            self._succ_indptr,
            self._succ_indices,
            self._pred_indptr,
            self._pred_indices,
            self._pred_counts,
            self._is_two_qubit,
            self._needs_coupling,
            self._qubit_pairs,
        ):
            array.setflags(write=False)

    # -- sharing ------------------------------------------------------------

    @classmethod
    def shared(cls, circuit: QuantumCircuit, properties) -> "DAGCircuit":
        """The DAG for ``circuit`` cached in a transpiler property set.

        Routing and layout passes all operate on the same circuit object
        between transforming stages, so the first caller builds the DAG and
        every later pass (or stochastic routing trial) reuses it.  The
        entry is keyed on the exact circuit object: a pass that transformed
        the circuit gets a fresh DAG, never a stale one.
        """
        entry = properties.get(SHARED_DAG_PROPERTY)
        if entry is not None and entry[0] is circuit:
            return entry[1]
        dag = cls(circuit)
        properties[SHARED_DAG_PROPERTY] = (circuit, dag)
        return dag

    # -- structure ---------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits of the underlying circuit."""
        return self._num_qubits

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """All instructions, in original (topological) order."""
        return self._instructions

    @property
    def nodes(self) -> Tuple[DAGNode, ...]:
        """All DAG nodes, in original instruction order (a topological order)."""
        return tuple(DAGNode(self, index) for index in range(len(self._instructions)))

    def __len__(self) -> int:
        return len(self._instructions)

    def node(self, index: int) -> DAGNode:
        """Node accessor by instruction index."""
        return DAGNode(self, index)

    def instruction(self, index: int) -> Instruction:
        """Instruction accessor by index (no node object allocation)."""
        return self._instructions[index]

    def front_layer(self) -> List[int]:
        """Indices of instructions with no predecessors."""
        return [int(i) for i in np.nonzero(self._pred_counts == 0)[0]]

    def successors(self, index: int) -> Tuple[int, ...]:
        """Successor indices of a node, ascending."""
        start, stop = self._succ_indptr[index], self._succ_indptr[index + 1]
        return tuple(int(i) for i in self._succ_indices[start:stop])

    def predecessors(self, index: int) -> Tuple[int, ...]:
        """Predecessor indices of a node, ascending."""
        start, stop = self._pred_indptr[index], self._pred_indptr[index + 1]
        return tuple(int(i) for i in self._pred_indices[start:stop])

    def topological_order(self) -> List[int]:
        """A topological order (original instruction order is one)."""
        return list(range(len(self._instructions)))

    # -- flat-array accessors (router hot path) -----------------------------

    def predecessor_counts(self) -> np.ndarray:
        """Writable copy of the per-node predecessor counts."""
        return self._pred_counts.copy()

    @property
    def successor_indptr(self) -> np.ndarray:
        """CSR row pointers of the successor adjacency (read-only)."""
        return self._succ_indptr

    @property
    def successor_indices(self) -> np.ndarray:
        """CSR column indices of the successor adjacency (read-only)."""
        return self._succ_indices

    @property
    def two_qubit_mask(self) -> np.ndarray:
        """Boolean per-node mask of exactly-two-qubit instructions (read-only)."""
        return self._is_two_qubit

    @property
    def coupling_mask(self) -> np.ndarray:
        """Per-node mask of gates needing coupled operands (read-only).

        True for every multi-qubit non-barrier gate — a superset of
        :attr:`two_qubit_mask` when 3+-qubit gates survive to routing.
        """
        return self._needs_coupling

    @property
    def qubit_pairs(self) -> np.ndarray:
        """Per-node first-two-operand array; ``-1`` outside :attr:`coupling_mask`."""
        return self._qubit_pairs

    def successor_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-node successor tuples of Python ints, ascending (cached).

        The same adjacency as the CSR arrays, in the form the SABRE step
        loop walks: indexing a tuple of ints avoids a NumPy slice and
        scalar conversion per visited node.
        """
        if getattr(self, "_successor_lists", None) is None:
            indices = self._succ_indices.tolist()
            bounds = self._succ_indptr.tolist()
            self._successor_lists = tuple(
                tuple(indices[start:stop]) for start, stop in zip(bounds, bounds[1:])
            )
        return self._successor_lists

    def pair_list(self) -> Tuple[Tuple[int, int], ...]:
        """:attr:`qubit_pairs` as a tuple of ``(a, b)`` Python-int pairs (cached)."""
        if getattr(self, "_pair_list", None) is None:
            self._pair_list = tuple(map(tuple, self._qubit_pairs.tolist()))
        return self._pair_list

    def two_qubit_interactions(self) -> Counter:
        """Unordered-pair interaction counts (as the circuit method, but
        computed from the flat operand arrays)."""
        pairs = self._qubit_pairs[self._is_two_qubit]
        if not len(pairs):
            return Counter()
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        encoded = lo * self._num_qubits + hi
        unique, counts = np.unique(encoded, return_counts=True)
        return Counter(
            {
                (int(code // self._num_qubits), int(code % self._num_qubits)): int(count)
                for code, count in zip(unique, counts)
            }
        )

    def qubit_activity(self) -> np.ndarray:
        """Per-qubit two-qubit-gate participation counts (read-only int64).

        ``qubit_activity()[q]`` equals the sum over
        :meth:`two_qubit_interactions` entries containing ``q`` — the
        ranking signal of the layout passes, without building a Counter.
        Cached on the DAG, which is immutable.
        """
        if getattr(self, "_qubit_activity", None) is None:
            pairs = self._qubit_pairs[self._is_two_qubit]
            activity = np.bincount(
                pairs.ravel(), minlength=self._num_qubits
            ).astype(np.int64)
            activity.setflags(write=False)
            self._qubit_activity = activity
        return self._qubit_activity

    def interaction_matrix(self) -> np.ndarray:
        """Symmetric (n, n) matrix of unordered-pair interaction counts.

        The dense form of :meth:`two_qubit_interactions`, consumed by the
        vectorized layout scorers (one gather per candidate row instead of
        a dict walk).  Cached on the DAG, read-only.
        """
        if getattr(self, "_interaction_matrix", None) is None:
            n = self._num_qubits
            matrix = np.zeros((n, n), dtype=np.int64)
            pairs = self._qubit_pairs[self._is_two_qubit]
            if len(pairs):
                np.add.at(matrix, (pairs[:, 0], pairs[:, 1]), 1)
                matrix = matrix + matrix.T
            matrix.setflags(write=False)
            self._interaction_matrix = matrix
        return self._interaction_matrix

    # -- analysis -----------------------------------------------------------

    def longest_path_length(
        self, weight: Optional[Callable[[Instruction], float]] = None
    ) -> float:
        """Length of the longest path under the given per-node weight."""
        if weight is None:
            weight = lambda inst: 0.0 if inst.name == "barrier" else 1.0
        n = len(self._instructions)
        distances = np.zeros(n)
        for index, instruction in enumerate(self._instructions):
            start, stop = self._pred_indptr[index], self._pred_indptr[index + 1]
            incoming = (
                distances[self._pred_indices[start:stop]].max() if stop > start else 0.0
            )
            distances[index] = incoming + weight(instruction)
        return float(distances.max()) if n else 0.0

    def layers(self) -> List[List[int]]:
        """Partition nodes into ASAP layers (greedy earliest scheduling)."""
        n = len(self._instructions)
        level = np.zeros(n, dtype=np.int64)
        for index in range(n):
            start, stop = self._pred_indptr[index], self._pred_indptr[index + 1]
            if stop > start:
                level[index] = level[self._pred_indices[start:stop]].max() + 1
        layered: Dict[int, List[int]] = {}
        for index in range(n):
            layered.setdefault(int(level[index]), []).append(index)
        return [layered[depth] for depth in sorted(layered)]
