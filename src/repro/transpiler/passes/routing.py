"""Routing passes: insert SWAPs so every 2Q gate acts on coupled qubits.

Two routers are provided:

* :class:`SabreRouting` — a SABRE-style lookahead router (Li, Ding, Xie,
  ASPLOS 2019): greedily executes every front-layer gate whose mapped
  qubits are adjacent, otherwise inserts the candidate SWAP minimising a
  distance heuristic over the front layer plus a discounted extended set,
  with a decay term that spreads SWAPs across qubits.  This is the default
  router for all paper experiments.
* :class:`StochasticRouting` — a randomised router in the spirit of
  Qiskit's ``StochasticSwap`` (the pass the paper used): for each blocked
  gate it repeatedly applies a randomly chosen distance-reducing SWAP.
  Used for the router ablation benchmark.

Both consume a *virtual* circuit plus the initial ``layout`` recorded by a
layout pass, and produce a *physical* circuit (qubit indices refer to
device qubits) with routing SWAPs marked ``induced=True`` so that the
metric collection can separate them from algorithmic SWAPs — the
quantity reported in paper Figs. 4, 11 and 12.

Hot path: :class:`SabreRouting` runs one step loop that redoes only the
work a SWAP decision changed.  The lookahead window (front-layer plus
extended-set gates) is collected as *virtual* qubit pairs once per
front-layer state, walking Python successor and pair lists cached on the
immutable :class:`~repro.circuits.dag.DAGCircuit`; consecutive SWAPs
under the same front reuse it.  Each decision maps the whole window to
physical qubits with one gather, selects candidate edges with one ``any``
over the topology's cached qubit x edge incidence matrix, and scores the
front and extended pairs of every candidate in one broadcast against
per-edge SWAP permutations.  The ready check, emission and DAG advance run
on a Python-list mirror of the virtual-to-physical map, so no NumPy
scalar is indexed per gate.  The pre-rewrite router is kept as a
test-only oracle (``tests/oracles.py``) that
``tests/transpiler/test_routing_vectorized.py`` holds this one to: the
same SWAP sequence, ``routing_swaps`` and final layout at every seed.

The same loop routes for
:class:`~repro.transpiler.passes.noise_aware_routing.NoiseAwareRouting`,
which sets an extended-set size of 0 and a decay increment of 0.0 and
overrides the one hook the loop takes its distance table and candidate
scorer from, :meth:`SabreRouting._scorer`.  After each SWAP the loop
checks the stall limit (``10 * max(4, n)`` SWAPs with no gate executed)
and, once it is crossed, brings the first front gate together along a
shortest path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Sequence, Set, Tuple

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

#: Score-comparison tolerance of the sequential tie-break.
_TIE_EPS = 1e-12

#: ``score(costs, num_front, candidates)`` of :meth:`SabreRouting._scorer`.
Scorer = Callable[[np.ndarray, int, np.ndarray], np.ndarray]


class RoutingError(RuntimeError):
    """Raised when a router cannot make progress."""


def _physical_circuit(num_physical: int, name: str) -> QuantumCircuit:
    return QuantumCircuit(num_physical, name=name)


def _layout_arrays(layout: Layout, num_physical: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``virtual -> physical`` / ``physical -> virtual`` maps (-1 empty)."""
    v2p = np.full(num_physical, -1, dtype=np.int64)
    p2v = np.full(num_physical, -1, dtype=np.int64)
    for virtual, physical in layout.to_dict().items():
        v2p[virtual] = physical
        p2v[physical] = virtual
    return v2p, p2v


def _check_layout_covers(
    instructions: Sequence[Instruction], v2p: Sequence[int], num_virtual: int
) -> None:
    """Refuse a layout that leaves a qubit some instruction acts on unmapped.

    The routers emit through the unchecked append, so the ``-1`` that
    :func:`_layout_arrays` holds for an unmapped virtual qubit must be
    caught once, before routing, rather than emitted.
    """
    unmapped = {virtual for virtual in range(num_virtual) if v2p[virtual] < 0}
    if unmapped:
        used = unmapped.intersection(
            qubit for instruction in instructions for qubit in instruction.qubits
        )
        if used:
            raise ValueError(f"the layout leaves virtual qubits {sorted(used)} unmapped")


def _layout_from_array(v2p: np.ndarray) -> Layout:
    """Rebuild a :class:`Layout` from the flat virtual -> physical array."""
    return Layout(
        {int(v): int(p) for v, p in enumerate(v2p) if p >= 0}
    )


def _swap_in_arrays(v2p: np.ndarray, p2v: np.ndarray, a: int, b: int) -> None:
    """Exchange whatever virtual qubits live on physical ``a`` and ``b``."""
    va, vb = p2v[a], p2v[b]
    p2v[a], p2v[b] = vb, va
    if va >= 0:
        v2p[va] = b
    if vb >= 0:
        v2p[vb] = a


def _swap_candidates(
    front_phys: np.ndarray, coupling_map: CouplingMap
) -> Tuple[np.ndarray, np.ndarray]:
    """SWAPs on every edge touching a blocked qubit: ``(pairs, permutations)``.

    ``pairs`` is the (C, 2) array of candidate edges in ascending edge id,
    which is lexicographic ``(min, max)`` order; ``permutations`` holds the
    matching rows of :meth:`CouplingMap.swap_arrays`.
    """
    edge_pairs, incidence, permutations = coupling_map.swap_arrays()
    mask = incidence[front_phys.ravel()].any(axis=0)
    return edge_pairs[mask], permutations[mask]


def _remapped_distances(
    permutations: np.ndarray, pairs_phys: np.ndarray, distance: np.ndarray
) -> np.ndarray:
    """(C, P) distance of every pair after every candidate SWAP, in one gather."""
    remapped = permutations[:, pairs_phys]
    return distance[remapped[:, :, 0], remapped[:, :, 1]]


def _sequential_tie_break(scores: np.ndarray, rng: np.random.Generator) -> int:
    """Index of the best score under the legacy sequential tie semantics.

    The legacy scorer updated a running best while iterating candidates in
    sorted order, collecting near-ties within ``_TIE_EPS`` of the *current*
    best; a plain global argmin-with-tolerance can select a different tie
    set.  The walk's final best score always lies within ``_TIE_EPS`` of
    the global minimum and its tie set within ``2 * _TIE_EPS``, so when
    that window holds a single candidate (the common case) the answer is
    just the argmin.  No random draw is needed then: the walk's draw from a
    one-element tie set, ``Generator.integers(1)``, returns 0 without
    advancing the bit generator.  Only genuine near-ties replay the
    sequential walk and draw.
    """
    best_index = int(np.argmin(scores))
    if np.count_nonzero(scores <= scores[best_index] + 2 * _TIE_EPS) == 1:
        return best_index
    best_score = np.inf
    best: List[int] = []
    for index, score in enumerate(scores):
        if score < best_score - _TIE_EPS:
            best_score = score
            best = [index]
        elif abs(score - best_score) <= _TIE_EPS:
            best.append(index)
    return best[int(rng.integers(len(best)))]


class SabreRouting(TranspilerPass):
    """SABRE-style lookahead router."""

    name = "sabre_routing"

    def __init__(
        self,
        coupling_map: Optional[CouplingMap] = None,
        seed: int = 0,
        extended_set_size: int = _EXTENDED_SET_SIZE,
        extended_set_weight: float = _EXTENDED_SET_WEIGHT,
        decay_increment: float = _DECAY_INCREMENT,
    ):
        self._coupling_map = coupling_map
        self._seed = int(seed)
        self._extended_set_size = int(extended_set_size)
        self._extended_set_weight = float(extended_set_weight)
        self._decay_increment = float(decay_increment)

    # -- pass entry point -----------------------------------------------------

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        coupling_map: CouplingMap = self._coupling_map or properties.require("coupling_map")
        layout: Layout = properties.require("layout")
        rng = np.random.default_rng(self._seed)
        distance, score = self._scorer(coupling_map, properties)
        adjacency = coupling_map.adjacency_matrix().tolist()

        dag = DAGCircuit.shared(circuit, properties)
        instructions = dag.instructions
        successors = dag.successor_lists()
        pairs = dag.pair_list()
        needs_coupling = dag.coupling_mask.tolist()
        is_two_qubit = dag.two_qubit_mask.tolist()
        remaining = dag.predecessor_counts().tolist()
        # The array feeds the per-decision gather; the lists serve every
        # per-gate lookup.  ``swap`` keeps all three in step.
        v2p_array, p2v_array = _layout_arrays(layout, coupling_map.num_qubits)
        v2p = v2p_array.tolist()
        p2v = p2v_array.tolist()
        _check_layout_covers(instructions, v2p, circuit.num_qubits)

        front: List[int] = dag.front_layer()
        output = _physical_circuit(coupling_map.num_qubits, f"{circuit.name}@{coupling_map.name}")
        # Every emitted qubit comes from the ``v2p`` / ``p2v`` lists (no
        # ``-1`` on a used qubit, see above), a ``tolist()`` of candidate
        # edges or a shortest path over the coupling graph's ``int`` nodes,
        # so it is an in-range Python ``int``: the trusted append's
        # contract holds without re-checking.
        emit = output._append_trusted
        swap_gate = SwapGate()
        decay = np.ones(coupling_map.num_qubits)
        swaps_inserted = 0
        rounds_since_reset = 0
        stall_counter = 0
        stall_limit = 10 * max(4, coupling_map.num_qubits)
        window: Optional[np.ndarray] = None  # virtual lookahead pairs of this front
        num_front = 0

        def swap(a: int, b: int) -> None:
            emit(Instruction(swap_gate, (a, b), induced=True))
            va, vb = p2v[a], p2v[b]
            p2v[a], p2v[b] = vb, va
            if va >= 0:
                v2p[va] = v2p_array[va] = b
            if vb >= 0:
                v2p[vb] = v2p_array[vb] = a

        while front:
            ready = [
                node
                for node in front
                if not needs_coupling[node]
                or adjacency[v2p[pairs[node][0]]][v2p[pairs[node][1]]]
            ]
            if ready:
                for node in ready:
                    instruction = instructions[node]
                    emit(
                        Instruction(
                            instruction.gate,
                            tuple([v2p[q] for q in instruction.qubits]),
                            induced=instruction.induced,
                        )
                    )
                for node in ready:
                    front.remove(node)
                    for successor in successors[node]:
                        remaining[successor] -= 1
                        if not remaining[successor]:
                            front.append(successor)
                window = None
                stall_counter = 0
                continue

            # Every front gate is a blocked two-qubit gate: pick a SWAP.
            if window is None:
                num_front = len(front)
                window = np.array(
                    [pairs[node] for node in front]
                    + self._extended_pairs(front, successors, pairs, is_two_qubit),
                    dtype=np.int64,
                )
            window_phys = v2p_array[window]
            candidates, permutations = _swap_candidates(window_phys[:num_front], coupling_map)
            if not len(candidates):  # pragma: no cover - connected devices always have candidates
                raise RoutingError("no candidate SWAPs available; is the device connected?")
            scores = score(
                _remapped_distances(permutations, window_phys, distance), num_front, candidates
            )
            scores *= decay[candidates].max(axis=1)
            physical_a, physical_b = candidates[_sequential_tie_break(scores, rng)].tolist()
            swap(physical_a, physical_b)
            swaps_inserted += 1
            stall_counter += 1
            decay[physical_a] += self._decay_increment
            decay[physical_b] += self._decay_increment
            rounds_since_reset += 1
            if rounds_since_reset >= _DECAY_RESET_INTERVAL:
                decay[:] = 1.0
                rounds_since_reset = 0
            if stall_counter > stall_limit:
                # Escape pathological stalls by routing the first blocked gate
                # directly along a shortest path.
                virtual_a, virtual_b = pairs[front[0]]
                path = coupling_map.shortest_path(v2p[virtual_a], v2p[virtual_b])
                for hop in range(len(path) - 2):
                    swap(path[hop], path[hop + 1])
                    swaps_inserted += 1
                decay[:] = 1.0
                stall_counter = 0

        final_layout = _layout_from_array(v2p_array)
        properties["final_layout"] = final_layout
        properties["routing_swaps"] = swaps_inserted
        properties["routed_circuit"] = output
        return output

    # -- helpers -----------------------------------------------------------------

    def _scorer(
        self, coupling_map: CouplingMap, properties: PropertySet
    ) -> Tuple[np.ndarray, Scorer]:
        """The distance table candidates are scored on, and the scorer.

        ``score(costs, num_front, candidates)`` turns the (C, P) distances
        of the lookahead pairs after each of the C candidate SWAPs (front
        pairs first) into C scores, before decay: the mean front distance
        plus the weighted mean extended-set distance.
        """
        weight = self._extended_set_weight

        def score(costs: np.ndarray, num_front: int, candidates: np.ndarray) -> np.ndarray:
            scores = costs[:, :num_front].sum(axis=1, dtype=np.float64) / num_front
            num_extended = costs.shape[1] - num_front
            if num_extended:
                scores = scores + (
                    weight * costs[:, num_front:].sum(axis=1, dtype=np.float64)
                ) / num_extended
            return scores

        return coupling_map.distance_matrix(), score

    def _extended_pairs(
        self,
        front: Sequence[int],
        successors: Sequence[Sequence[int]],
        pairs: Sequence[Tuple[int, int]],
        is_two_qubit: Sequence[bool],
    ) -> List[Tuple[int, int]]:
        """Virtual qubit pairs of the two-qubit gates just behind the front
        layer (lookahead window), breadth first."""
        extended: List[Tuple[int, int]] = []
        visited: Set[int] = set()
        queue = deque(front)
        while queue and len(extended) < self._extended_set_size:
            for successor in successors[queue.popleft()]:
                if successor in visited:
                    continue
                visited.add(successor)
                if is_two_qubit[successor]:
                    extended.append(pairs[successor])
                queue.append(successor)
                if len(extended) >= self._extended_set_size:
                    break
        return extended


class StochasticRouting(TranspilerPass):
    """Randomised distance-reducing router (StochasticSwap-like)."""

    name = "stochastic_routing"

    def __init__(
        self,
        coupling_map: Optional[CouplingMap] = None,
        seed: int = 0,
        trials: int = 4,
    ):
        self._coupling_map = coupling_map
        self._seed = int(seed)
        self._trials = max(1, int(trials))

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        coupling_map: CouplingMap = self._coupling_map or properties.require("coupling_map")
        layout: Layout = properties.require("layout")
        # One DAG serves every trial (and any later pass on this circuit):
        # each trial only needs the instruction sequence and operand arrays,
        # which are immutable, so nothing is rebuilt per trial.
        dag = DAGCircuit.shared(circuit, properties)
        best_output: Optional[QuantumCircuit] = None
        best_layout: Optional[Layout] = None
        best_swaps = np.inf
        for trial in range(self._trials):
            output, final_layout, swaps = self._route_once(
                circuit, dag, coupling_map, layout, self._seed + 7919 * trial
            )
            if swaps < best_swaps:
                best_swaps = swaps
                best_output = output
                best_layout = final_layout
        assert best_output is not None and best_layout is not None
        properties["final_layout"] = best_layout
        properties["routing_swaps"] = int(best_swaps)
        properties["routed_circuit"] = best_output
        return best_output

    def _route_once(
        self,
        circuit: QuantumCircuit,
        dag: DAGCircuit,
        coupling_map: CouplingMap,
        layout: Layout,
        seed: int,
    ) -> Tuple[QuantumCircuit, Layout, int]:
        rng = np.random.default_rng(seed)
        distance = coupling_map.distance_matrix()
        adjacency = coupling_map.adjacency_matrix()
        nbr_indptr, nbr_indices = coupling_map.neighbor_arrays()
        v2p, p2v = _layout_arrays(layout, coupling_map.num_qubits)
        output = _physical_circuit(
            coupling_map.num_qubits, f"{circuit.name}@{coupling_map.name}"
        )
        swaps = 0
        for instruction in dag.instructions:
            if instruction.num_qubits == 1 or instruction.name == "barrier":
                output.append(
                    instruction.gate,
                    tuple(int(v2p[q]) for q in instruction.qubits),
                    induced=instruction.induced,
                )
                continue
            virtual_a, virtual_b = instruction.qubits
            while True:
                physical_a = int(v2p[virtual_a])
                physical_b = int(v2p[virtual_b])
                if adjacency[physical_a, physical_b]:
                    break
                current = distance[physical_a, physical_b]
                improving: List[Tuple[int, int]] = []
                for endpoint, other in ((physical_a, physical_b), (physical_b, physical_a)):
                    for neighbor in nbr_indices[
                        nbr_indptr[endpoint] : nbr_indptr[endpoint + 1]
                    ]:
                        if distance[neighbor, other] < current:
                            neighbor = int(neighbor)
                            improving.append(
                                (endpoint, neighbor)
                                if endpoint < neighbor
                                else (neighbor, endpoint)
                            )
                if not improving:  # pragma: no cover - connected devices always improve
                    raise RoutingError("stochastic router cannot reduce distance")
                choice = improving[int(rng.integers(len(improving)))]
                output.append(SwapGate(), choice, induced=True)
                _swap_in_arrays(v2p, p2v, *choice)
                swaps += 1
            output.append(
                instruction.gate,
                (int(v2p[virtual_a]), int(v2p[virtual_b])),
                induced=instruction.induced,
            )
        return output, _layout_from_array(v2p), swaps
