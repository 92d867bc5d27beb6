"""Test-only reference implementations that production passes are held to.

:class:`ReferenceSabreRouting` is the SABRE router as it stood before the
single step loop of :class:`repro.transpiler.passes.routing.SabreRouting`:
its run loop re-derives the lookahead window, the candidate SWAPs and every
physical position from the DAG's CSR arrays and NumPy scalars on each
decision.  ``engine="reference"`` (the default) scores candidates with the
original per-candidate Python loop; ``engine="vector"`` is the nested-
``where`` broadcast scorer that was the production path until the rewrite.
The two engines choose the same SWAP at every decision.

The parity tests (``tests/transpiler/test_routing_vectorized.py``) require
the production router to emit exactly this router's gate sequence,
``routing_swaps`` and final layout, and the routing hot-path benchmark
times the production router against both engines.  Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.circuits.instruction import Instruction
from repro.gates import SwapGate
from repro.topology.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import PropertySet, TranspilerPass

_EXTENDED_SET_SIZE = 20
_EXTENDED_SET_WEIGHT = 0.5
_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5
_TIE_EPS = 1e-12
_ENGINES = ("vector", "reference")


def _layout_arrays(layout: Layout, num_physical: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``virtual -> physical`` / ``physical -> virtual`` maps (-1 empty)."""
    v2p = np.full(num_physical, -1, dtype=np.int64)
    p2v = np.full(num_physical, -1, dtype=np.int64)
    for virtual, physical in layout.to_dict().items():
        v2p[virtual] = physical
        p2v[physical] = virtual
    return v2p, p2v


def _layout_from_array(v2p: np.ndarray) -> Layout:
    """Rebuild a :class:`Layout` from the flat virtual -> physical array."""
    return Layout({int(v): int(p) for v, p in enumerate(v2p) if p >= 0})


def _swap_in_arrays(v2p: np.ndarray, p2v: np.ndarray, a: int, b: int) -> None:
    """Exchange whatever virtual qubits live on physical ``a`` and ``b``."""
    va, vb = p2v[a], p2v[b]
    p2v[a], p2v[b] = vb, va
    if va >= 0:
        v2p[va] = b
    if vb >= 0:
        v2p[vb] = a


def _edge_index_arrays(coupling_map: CouplingMap) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge table + per-qubit incidence ``(edge_pairs, indptr, edge_ids)``."""
    edge_pairs = np.asarray(coupling_map.edges(), dtype=np.int64).reshape(-1, 2)
    num_edges = len(edge_pairs)
    endpoints = np.concatenate((edge_pairs[:, 0], edge_pairs[:, 1]))
    ids = np.tile(np.arange(num_edges, dtype=np.int64), 2)
    order = np.argsort(endpoints, kind="stable")
    counts = np.bincount(endpoints, minlength=coupling_map.num_qubits)
    indptr = np.zeros(coupling_map.num_qubits + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return edge_pairs, indptr, ids[order]


def _candidate_swap_array(front_phys: np.ndarray, edge_index) -> np.ndarray:
    """All SWAPs on edges incident to a blocked qubit, as a sorted (C, 2) array.

    Ascending edge ids are the lexicographic ``(min, max)`` order of
    ``sorted(set(...))`` over the incident couplings.
    """
    edge_pairs, indptr, edge_ids = edge_index
    mask = np.zeros(len(edge_pairs), dtype=bool)
    for qubit in front_phys.ravel():
        mask[edge_ids[indptr[qubit] : indptr[qubit + 1]]] = True
    return edge_pairs[mask]


def _remapped_pair_costs(
    candidates: np.ndarray, pairs_phys: np.ndarray, distance: np.ndarray
) -> np.ndarray:
    """Total pair distance after each candidate SWAP, for all candidates at once."""
    a = candidates[:, 0][:, None]
    b = candidates[:, 1][:, None]
    left = pairs_phys[:, 0][None, :]
    right = pairs_phys[:, 1][None, :]
    remapped_left = np.where(left == a, b, np.where(left == b, a, left))
    remapped_right = np.where(right == a, b, np.where(right == b, a, right))
    return distance[remapped_left, remapped_right].sum(axis=1)


def _sequential_tie_break(scores: np.ndarray, rng: np.random.Generator) -> int:
    """Index of the best score under the sequential-walk tie semantics."""
    minimum = scores.min()
    if np.count_nonzero(scores <= minimum + 2 * _TIE_EPS) == 1:
        rng.integers(1)  # a no-op draw: integers(1) does not advance the generator
        return int(np.argmin(scores))
    best_score = np.inf
    best: List[int] = []
    for index, score in enumerate(scores):
        if score < best_score - _TIE_EPS:
            best_score = score
            best = [index]
        elif abs(score - best_score) <= _TIE_EPS:
            best.append(index)
    return best[int(rng.integers(len(best)))]


class ReferenceSabreRouting(TranspilerPass):
    """SABRE-style lookahead router, as it stood before the step-loop rewrite."""

    name = "sabre_routing"

    def __init__(
        self,
        coupling_map: Optional[CouplingMap] = None,
        seed: int = 0,
        extended_set_size: int = _EXTENDED_SET_SIZE,
        extended_set_weight: float = _EXTENDED_SET_WEIGHT,
        decay_increment: float = _DECAY_INCREMENT,
        engine: str = "reference",
    ):
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; engines are {_ENGINES}")
        self._coupling_map = coupling_map
        self._seed = int(seed)
        self._extended_set_size = int(extended_set_size)
        self._extended_set_weight = float(extended_set_weight)
        self._decay_increment = float(decay_increment)
        self._engine = engine

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        coupling_map: CouplingMap = self._coupling_map or properties.require("coupling_map")
        layout: Layout = properties.require("layout")
        rng = np.random.default_rng(self._seed)
        distance = coupling_map.distance_matrix()
        edge_index = _edge_index_arrays(coupling_map)

        dag = DAGCircuit.shared(circuit, properties)
        instructions = dag.instructions
        remaining = dag.predecessor_counts()
        succ_indptr = dag.successor_indptr
        succ_indices = dag.successor_indices
        needs_coupling = dag.coupling_mask
        pairs = dag.qubit_pairs
        adjacency = coupling_map.adjacency_matrix()
        v2p, p2v = _layout_arrays(layout, coupling_map.num_qubits)

        front: List[int] = dag.front_layer()
        output = QuantumCircuit(coupling_map.num_qubits, name=f"{circuit.name}@{coupling_map.name}")
        decay = np.ones(coupling_map.num_qubits)
        swaps_inserted = 0
        rounds_since_reset = 0
        stall_counter = 0
        stall_limit = 10 * max(4, coupling_map.num_qubits)

        def emit(node_index: int) -> None:
            instruction = instructions[node_index]
            physical = tuple(int(v2p[q]) for q in instruction.qubits)
            output.append(instruction.gate, physical, induced=instruction.induced)

        def advance(executed: Sequence[int]) -> None:
            for node_index in executed:
                front.remove(node_index)
                start, stop = succ_indptr[node_index], succ_indptr[node_index + 1]
                for successor in succ_indices[start:stop]:
                    remaining[successor] -= 1
                    if remaining[successor] == 0:
                        front.append(int(successor))

        while front:
            ready = [
                index
                for index in front
                if not needs_coupling[index]
                or adjacency[v2p[pairs[index, 0]], v2p[pairs[index, 1]]]
            ]
            if ready:
                for node_index in ready:
                    emit(node_index)
                advance(ready)
                stall_counter = 0
                continue

            # Every front gate is a blocked two-qubit gate: pick a SWAP.
            front_pairs = v2p[pairs[front]]
            extended_pairs = self._extended_set(dag, front, v2p)
            candidates = _candidate_swap_array(front_pairs, edge_index)
            if self._engine == "vector":
                scores = self._score_candidates(
                    candidates, front_pairs, extended_pairs, distance, decay
                )
                choice = _sequential_tie_break(scores, rng)
            else:
                choice = self._select_swap_reference(
                    candidates, front_pairs, extended_pairs, distance, decay, rng
                )
            physical_a = int(candidates[choice, 0])
            physical_b = int(candidates[choice, 1])
            output.append(SwapGate(), (physical_a, physical_b), induced=True)
            _swap_in_arrays(v2p, p2v, physical_a, physical_b)
            swaps_inserted += 1
            stall_counter += 1
            decay[physical_a] += self._decay_increment
            decay[physical_b] += self._decay_increment
            rounds_since_reset += 1
            if rounds_since_reset >= _DECAY_RESET_INTERVAL:
                decay[:] = 1.0
                rounds_since_reset = 0
            if stall_counter > stall_limit:
                swaps_inserted += self._force_route(
                    instructions[front[0]], v2p, p2v, coupling_map, output
                )
                decay[:] = 1.0
                stall_counter = 0

        properties["final_layout"] = _layout_from_array(v2p)
        properties["routing_swaps"] = swaps_inserted
        properties["routed_circuit"] = output
        return output

    def _extended_set(self, dag: DAGCircuit, front: Sequence[int], v2p: np.ndarray) -> np.ndarray:
        """Two-qubit gates just behind the front layer (lookahead window)."""
        indptr = dag.successor_indptr
        indices = dag.successor_indices
        is_two_qubit = dag.two_qubit_mask
        qubit_pairs = dag.qubit_pairs
        pairs: List[Tuple[int, int]] = []
        visited: Set[int] = set()
        queue = deque(front)
        while queue and len(pairs) < self._extended_set_size:
            node_index = queue.popleft()
            for successor in indices[indptr[node_index] : indptr[node_index + 1]].tolist():
                if successor in visited:
                    continue
                visited.add(successor)
                if is_two_qubit[successor]:
                    pairs.append(
                        (v2p[qubit_pairs[successor, 0]], v2p[qubit_pairs[successor, 1]])
                    )
                queue.append(successor)
                if len(pairs) >= self._extended_set_size:
                    break
        return np.array(pairs) if pairs else np.empty((0, 2), dtype=int)

    def _score_candidates(
        self,
        candidates: np.ndarray,
        front_pairs: np.ndarray,
        extended_pairs: np.ndarray,
        distance: np.ndarray,
        decay: np.ndarray,
    ) -> np.ndarray:
        """Heuristic scores of all candidate SWAPs in one broadcast."""
        front_costs = _remapped_pair_costs(candidates, front_pairs, distance)
        scores = front_costs.astype(np.float64) / max(len(front_pairs), 1)
        if len(extended_pairs):
            extended_costs = _remapped_pair_costs(candidates, extended_pairs, distance)
            scores = scores + (
                self._extended_set_weight * extended_costs.astype(np.float64)
            ) / len(extended_pairs)
        scores *= np.maximum(decay[candidates[:, 0]], decay[candidates[:, 1]])
        return scores

    def _select_swap_reference(
        self,
        candidates: np.ndarray,
        front_pairs: np.ndarray,
        extended_pairs: np.ndarray,
        distance: np.ndarray,
        decay: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """The per-candidate scorer: a Python loop over candidates."""
        best_score = np.inf
        best_choices: List[int] = []
        for index in range(len(candidates)):
            physical_a = int(candidates[index, 0])
            physical_b = int(candidates[index, 1])
            front_cost = self._pair_cost(front_pairs, physical_a, physical_b, distance)
            score = front_cost / max(len(front_pairs), 1)
            if len(extended_pairs):
                extended_cost = self._pair_cost(
                    extended_pairs, physical_a, physical_b, distance
                )
                score += self._extended_set_weight * extended_cost / len(extended_pairs)
            score *= max(decay[physical_a], decay[physical_b])
            if score < best_score - _TIE_EPS:
                best_score = score
                best_choices = [index]
            elif abs(score - best_score) <= _TIE_EPS:
                best_choices.append(index)
        return best_choices[int(rng.integers(len(best_choices)))]

    @staticmethod
    def _pair_cost(
        pairs: np.ndarray, physical_a: int, physical_b: int, distance: np.ndarray
    ) -> float:
        """Total distance of ``pairs`` after exchanging two physical qubits."""
        remapped = pairs.copy()
        mask_a = remapped == physical_a
        mask_b = remapped == physical_b
        remapped[mask_a] = physical_b
        remapped[mask_b] = physical_a
        return float(distance[remapped[:, 0], remapped[:, 1]].sum())

    @staticmethod
    def _force_route(
        instruction: Instruction,
        v2p: np.ndarray,
        p2v: np.ndarray,
        coupling_map: CouplingMap,
        output: QuantumCircuit,
    ) -> int:
        """Bring the two qubits of ``instruction`` adjacent along a shortest path."""
        physical_a = int(v2p[instruction.qubits[0]])
        physical_b = int(v2p[instruction.qubits[1]])
        path = coupling_map.shortest_path(physical_a, physical_b)
        inserted = 0
        for hop in range(len(path) - 2):
            output.append(SwapGate(), (path[hop], path[hop + 1]), induced=True)
            _swap_in_arrays(v2p, p2v, path[hop], path[hop + 1])
            inserted += 1
        return inserted
