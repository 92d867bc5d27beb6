"""Noise-aware routing: prefer high-fidelity edges when inserting SWAPs.

The paper's related work (its reference [34], Murali et al.) maps circuits
with awareness of per-edge error rates; the paper itself sidesteps the
issue by assuming uniform fidelity.  This pass closes that gap for the
heterogeneous-noise extension studies: it is the SABRE-style distance
heuristic of :class:`~repro.transpiler.passes.routing.SabreRouting`
augmented with an edge-cost term derived from a
:class:`~repro.core.noise.NoiseModel`, so that routing avoids SWAPs on
low-fidelity couplings when an almost-as-short alternative exists.

The cost of using an edge is ``1 - log(fidelity) / log(fidelity_floor)``
scaled into a SWAP-count-comparable unit, i.e. a perfect edge costs 1 hop
and an edge at the floor fidelity costs ``1 + noise_weight`` hops.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import networkx as nx
import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.core.noise import NoiseModel
from repro.gates import SwapGate
from repro.topology.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passes.layout_passes import _check_engine
from repro.transpiler.passes.routing import (
    _layout_arrays,
    _layout_from_array,
    _remapped_distances,
    _sequential_tie_break,
    _swap_candidates,
    _swap_in_arrays,
    _TIE_EPS,
)
from repro.transpiler.passmanager import PropertySet, TranspilerPass


class NoiseAwareLayout(TranspilerPass):
    """Initial layout on the highest-fidelity connected patch of the device.

    The greedy densest-subset search of
    :class:`~repro.transpiler.passes.layout_passes.DenseLayout` is repeated
    with edge weights equal to each coupling's fidelity, so the circuit is
    placed where gates are *good*, not merely where they are plentiful.
    Falls back to plain DenseLayout behaviour under a uniform noise model.

    Hot path: ``engine="vector"`` scores subset growth and qubit quality
    on the :meth:`~repro.core.noise.NoiseModel.fidelity_matrix` array —
    sequential-order sums via ``cumsum``, so the float scores (and hence
    every tie-break) are bit-identical to the ``engine="reference"``
    Python-loop scorer it replaced.
    """

    name = "noise_aware_layout"

    def __init__(
        self,
        coupling_map: CouplingMap,
        noise_model: Optional[NoiseModel] = None,
        engine: str = "vector",
    ):
        self._coupling_map = coupling_map
        self._noise_model = noise_model
        self._engine = _check_engine(engine)

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        device = self._coupling_map
        if circuit.num_qubits > device.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits but the device has "
                f"{device.num_qubits}"
            )
        noise_model: NoiseModel = (
            self._noise_model
            or properties.get("noise_model")
            or NoiseModel.uniform()
        )
        if self._engine == "vector":
            physical_ranked = self._rank_physical_vector(
                circuit.num_qubits, device, noise_model
            )
        else:
            physical_ranked = self._rank_physical_reference(
                circuit.num_qubits, device, noise_model
            )
        # Activity ranking from the shared DAG's precomputed count array
        # (same integers the dense/interaction layouts consume, same
        # (-activity, q) order as the old Counter walk).
        activity = DAGCircuit.shared(circuit, properties).qubit_activity()
        virtual_indices = np.arange(circuit.num_qubits, dtype=np.int64)
        virtual_ranked = virtual_indices[np.lexsort((virtual_indices, -activity))]
        properties["layout"] = Layout(
            {int(virtual): int(physical) for virtual, physical in zip(virtual_ranked, physical_ranked)}
        )
        properties["coupling_map"] = device
        properties["noise_model"] = noise_model
        return circuit

    # -- vectorized scorer ---------------------------------------------------

    @staticmethod
    def _rank_physical_vector(
        size: int, device: CouplingMap, noise_model: NoiseModel
    ) -> List[int]:
        """Subset search and quality ranking on the fidelity matrix.

        Every float sum the reference takes over ascending neighbour /
        edge order is reproduced as a ``cumsum`` over ascending indices
        (adding the zeros of non-edges is exact), so scores round
        identically and the greedy choices match bit for bit.
        """
        weights = noise_model.fidelity_matrix(device)
        subset = np.asarray(
            NoiseAwareLayout._best_subset_vector(size, device, weights),
            dtype=np.int64,
        )
        # Quality = total fidelity of a qubit's couplings inside the
        # subset: sequential row sums of the induced submatrix.
        quality = np.cumsum(weights[np.ix_(subset, subset)], axis=1)[:, -1]
        return [int(q) for q in subset[np.lexsort((subset, -quality))]]

    @staticmethod
    def _best_subset_vector(
        size: int, device: CouplingMap, weights: np.ndarray
    ) -> List[int]:
        """Greedy connected subset maximising total internal edge fidelity."""
        n = device.num_qubits
        if size >= n:
            return list(range(n))
        adjacency = device.adjacency_matrix()
        degrees = adjacency.sum(axis=1).astype(np.int64)
        qubits = np.arange(n, dtype=np.int64)
        seed_count = max(4, n // 8)
        seeds = qubits[np.lexsort((qubits, -degrees))][:seed_count]
        edges = np.asarray(device.edges(), dtype=np.int64).reshape(-1, 2)
        best_subset: List[int] = []
        best_score = -np.inf
        for seed in seeds:
            in_subset = np.zeros(n, dtype=bool)
            in_subset[seed] = True
            for _ in range(size - 1):
                frontier = np.flatnonzero(
                    adjacency[:, in_subset].any(axis=1) & ~in_subset
                )
                if frontier.size == 0:
                    remaining = np.flatnonzero(~in_subset)
                    if remaining.size == 0:
                        break
                    frontier = remaining[:1]
                # Gain of each candidate = sequential sum of its edge
                # fidelities into the subset (ascending column order).
                members = np.flatnonzero(in_subset)
                gains = np.cumsum(weights[np.ix_(frontier, members)], axis=1)[:, -1]
                order = np.lexsort((frontier, -degrees[frontier], -gains))
                in_subset[frontier[order[0]]] = True
            internal = in_subset[edges[:, 0]] & in_subset[edges[:, 1]]
            values = weights[edges[internal, 0], edges[internal, 1]]
            score = float(np.cumsum(values)[-1]) if values.size else 0.0
            if score > best_score:
                best_score = score
                best_subset = [int(q) for q in np.flatnonzero(in_subset)]
        return best_subset

    # -- reference scorer ----------------------------------------------------

    @staticmethod
    def _rank_physical_reference(
        size: int, device: CouplingMap, noise_model: NoiseModel
    ) -> List[int]:
        """The pre-vectorization scorer (Python loops), kept as parity oracle."""
        subset = NoiseAwareLayout._best_subset(size, device, noise_model)
        subset_set = set(subset)
        # Rank physical qubits by the total fidelity of their couplings
        # inside the chosen subset.
        quality = {
            qubit: sum(
                noise_model.fidelity(qubit, neighbor)
                for neighbor in device.neighbors(qubit)
                if neighbor in subset_set
            )
            for qubit in subset
        }
        return sorted(subset, key=lambda q: (-quality[q], q))

    @staticmethod
    def _best_subset(size: int, device: CouplingMap, noise_model: NoiseModel) -> List[int]:
        """Greedy connected subset maximising total internal edge fidelity."""
        if size >= device.num_qubits:
            return list(range(device.num_qubits))
        best_subset: List[int] = []
        best_score = -np.inf
        degrees = {q: device.degree(q) for q in range(device.num_qubits)}
        seeds = sorted(degrees, key=lambda q: -degrees[q])[: max(4, device.num_qubits // 8)]
        for seed in seeds:
            subset = {seed}
            while len(subset) < size:
                frontier = {
                    neighbor
                    for node in subset
                    for neighbor in device.neighbors(node)
                } - subset
                if not frontier:
                    remaining = [q for q in range(device.num_qubits) if q not in subset]
                    if not remaining:
                        break
                    frontier = {remaining[0]}
                choice = max(
                    frontier,
                    key=lambda q: (
                        sum(
                            noise_model.fidelity(q, neighbor)
                            for neighbor in device.neighbors(q)
                            if neighbor in subset
                        ),
                        degrees[q],
                        -q,
                    ),
                )
                subset.add(choice)
            score = sum(
                noise_model.fidelity(a, b)
                for a, b in device.edges()
                if a in subset and b in subset
            )
            if score > best_score:
                best_score = score
                best_subset = sorted(subset)
        return best_subset


class NoiseAwareRouting(TranspilerPass):
    """Greedy router whose distance metric penalises low-fidelity edges."""

    name = "noise_aware_routing"

    def __init__(
        self,
        coupling_map: Optional[CouplingMap] = None,
        noise_model: Optional[NoiseModel] = None,
        noise_weight: float = 2.0,
        fidelity_floor: float = 0.9,
        seed: int = 0,
        engine: str = "vector",
    ):
        if noise_weight < 0.0:
            raise ValueError("noise_weight must be non-negative")
        if not 0.0 < fidelity_floor < 1.0:
            raise ValueError("fidelity_floor must lie strictly between 0 and 1")
        if engine not in ("vector", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self._coupling_map = coupling_map
        self._noise_model = noise_model
        self._noise_weight = float(noise_weight)
        self._fidelity_floor = float(fidelity_floor)
        self._seed = int(seed)
        self._engine = engine

    # -- cost model -----------------------------------------------------------

    def edge_cost(self, noise_model: NoiseModel, qubit_a: int, qubit_b: int) -> float:
        """Cost of one two-qubit gate on an edge (1.0 for a perfect edge)."""
        fidelity = max(noise_model.fidelity(qubit_a, qubit_b), self._fidelity_floor)
        penalty = np.log(fidelity) / np.log(self._fidelity_floor)
        return float(1.0 + self._noise_weight * penalty)

    def _weighted_distance(
        self, coupling_map: CouplingMap, noise_model: NoiseModel
    ) -> np.ndarray:
        """All-pairs shortest-path distances under the edge-cost metric."""
        graph = nx.Graph()
        graph.add_nodes_from(range(coupling_map.num_qubits))
        for a, b in coupling_map.edges():
            graph.add_edge(a, b, weight=self.edge_cost(noise_model, a, b))
        distance = np.full((coupling_map.num_qubits, coupling_map.num_qubits), np.inf)
        for source, lengths in nx.all_pairs_dijkstra_path_length(graph, weight="weight"):
            for target, value in lengths.items():
                distance[source, target] = value
        return distance

    def _edge_cost_matrix(
        self, coupling_map: CouplingMap, noise_model: NoiseModel
    ) -> np.ndarray:
        """Per-edge cost as a dense symmetric matrix (non-edges stay 0)."""
        cost = np.zeros((coupling_map.num_qubits, coupling_map.num_qubits))
        for a, b in coupling_map.edges():
            cost[a, b] = cost[b, a] = self.edge_cost(noise_model, a, b)
        return cost

    # -- pass entry point ---------------------------------------------------------

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        coupling_map: CouplingMap = self._coupling_map or properties.require("coupling_map")
        noise_model: NoiseModel = (
            self._noise_model
            or properties.get("noise_model")
            or NoiseModel.uniform()
        )
        layout: Layout = properties.require("layout")
        rng = np.random.default_rng(self._seed)
        distance = self._weighted_distance(coupling_map, noise_model)
        swap_costs = 3.0 * self._edge_cost_matrix(coupling_map, noise_model)

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
        output = QuantumCircuit(
            coupling_map.num_qubits, name=f"{circuit.name}@{coupling_map.name}"
        )
        swaps_inserted = 0
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
            if stall_counter > stall_limit:
                # Escape rare greedy oscillations by routing the first
                # blocked gate directly along a shortest (hop-count) path.
                instruction = instructions[front[0]]
                path = coupling_map.shortest_path(
                    int(v2p[instruction.qubits[0]]), int(v2p[instruction.qubits[1]])
                )
                for hop in range(len(path) - 2):
                    output.append(SwapGate(), (path[hop], path[hop + 1]), induced=True)
                    _swap_in_arrays(v2p, p2v, path[hop], path[hop + 1])
                    swaps_inserted += 1
                stall_counter = 0
                continue
            front_pairs = v2p[pairs[front]]
            candidates, permutations = _swap_candidates(front_pairs, coupling_map)
            if self._engine == "vector":
                scores = (
                    _remapped_distances(permutations, front_pairs, distance).sum(axis=1)
                    + swap_costs[candidates[:, 0], candidates[:, 1]]
                )
                choice = _sequential_tie_break(scores, rng)
            else:
                choice = self._select_swap_reference(
                    candidates, front_pairs, noise_model, distance, rng
                )
            best_swap = (int(candidates[choice, 0]), int(candidates[choice, 1]))
            output.append(SwapGate(), best_swap, induced=True)
            _swap_in_arrays(v2p, p2v, *best_swap)
            swaps_inserted += 1
            stall_counter += 1

        properties["final_layout"] = _layout_from_array(v2p)
        properties["routing_swaps"] = swaps_inserted
        properties["routed_circuit"] = output
        return output

    # -- SWAP selection ----------------------------------------------------------------

    def _select_swap_reference(
        self,
        candidates: np.ndarray,
        front_pairs: np.ndarray,
        noise_model: NoiseModel,
        distance: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """The pre-vectorization scorer (Python loop), kept as parity oracle."""
        best_score = np.inf
        best_choices: List[int] = []
        for index in range(len(candidates)):
            physical_a = int(candidates[index, 0])
            physical_b = int(candidates[index, 1])
            remapped = front_pairs.copy()
            remapped[front_pairs == physical_a] = -1
            remapped[front_pairs == physical_b] = physical_a
            remapped[remapped == -1] = physical_b
            front_cost = float(distance[remapped[:, 0], remapped[:, 1]].sum())
            swap_cost = 3.0 * self.edge_cost(noise_model, physical_a, physical_b)
            score = front_cost + swap_cost
            if score < best_score - _TIE_EPS:
                best_score = score
                best_choices = [index]
            elif abs(score - best_score) <= _TIE_EPS:
                best_choices.append(index)
        return best_choices[int(rng.integers(len(best_choices)))]
