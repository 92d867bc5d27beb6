"""Test-only reference implementations that production code is held to.

Each production pass or simulator below has one code path, the fast one.
The slow implementation it replaced lives here, and the parity suites
require the two to agree exactly (density matrices within 1e-10).
Nothing in ``src/`` imports this module.

Some oracles keep a whole run loop, so a parity test holds the production
loop to the one it replaced, not only the scorer:

* :class:`ReferenceSabreRouting` — the SABRE router as it stood before the
  single step loop of
  :class:`repro.transpiler.passes.routing.SabreRouting`: its run loop
  re-derives the lookahead window, the candidate SWAPs and every physical
  position from the DAG's CSR arrays and NumPy scalars on each decision.
  ``engine="reference"`` (the default) scores candidates with the original
  per-candidate Python loop; ``engine="vector"`` is the nested-``where``
  broadcast scorer that was the production path until the rewrite.  The
  two engines choose the same SWAP at every decision.  Used by
  ``tests/transpiler/test_routing_vectorized.py`` and
  ``benchmarks/test_bench_routing_hotpath.py``.
* :class:`ReferenceNoiseAwareRouting` — the noise-aware router as its own
  greedy loop, before it became a scorer on SABRE's step loop: NumPy
  scalars per gate, the stall limit checked at the top of the next
  blocked step, and the per-candidate Python-loop scorer (``_select_swap``).
  It keeps only the constructor and the cost tables of
  :class:`repro.transpiler.passes.noise_aware_routing.NoiseAwareRouting`.
  Used by ``tests/transpiler/test_routing_vectorized.py`` (toy devices,
  the five large design points and the stall escape) and
  ``benchmarks/test_bench_routing_hotpath.py``.
* :func:`reference_statevector` — the state-vector loop without
  single-qubit fusion: one contraction per gate, in circuit order, as
  :class:`repro.simulator.statevector.StatevectorSimulator` ran it with
  fusion off.  Used by ``tests/simulator/test_fused_statevector.py``.
* :class:`ReferenceCommutativeCancellation` — the commutation pass on a
  look-back list with emptied slots, before its verdicts ran on per-gate
  facts: every verdict rebuilds both qubit sets and both gate identities
  behind its own memo (:data:`REFERENCE_COMMUTATION_CACHE`), and a miss
  asks :func:`reference_pair_verdict`, the ``np.allclose`` predicates on
  fresh ``gate.matrix()`` calls and ``tensordot`` joint unitaries (also
  for a pair on one qubit tuple).  Used by
  ``tests/transpiler/test_commutation_and_basic_routing.py`` (hypothesis
  pairs and every ``l3-noisy`` commutation input) and
  ``benchmarks/test_bench_level3_cleanup.py``.
* :func:`reference_schedule_asap` / :func:`reference_schedule_alap` —
  the scheduling loops that built one
  :class:`~repro.transpiler.scheduling.TimedInstruction` and asked
  ``duration_of`` once per instruction, and :class:`ReferenceSchedule`,
  whose aggregates read those objects.  Used by
  ``tests/transpiler/test_scheduling.py`` and
  ``benchmarks/test_bench_level3_cleanup.py``.

The remaining oracles subclass the production class and override only its
one private scorer, so run loops, input checks and property-set plumbing
stay shared and a parity test isolates exactly the scorer:

* :func:`reference_densest_subset` — the Python-loop greedy growth behind
  :meth:`repro.topology.coupling.CouplingMap.densest_subset`, with no memo.
  Used by ``tests/transpiler/test_layout_vectorized.py`` and by
  :class:`ReferenceDenseLayout`.
* :class:`ReferenceDenseLayout` (``_select``) and
  :class:`ReferenceInteractionGraphLayout` (``_place``) — the Python-loop
  layout scorers.  Used by ``tests/transpiler/test_layout_vectorized.py``
  (toy devices and the ``fig14-l1`` design points),
  ``tests/transpiler/test_layout_properties.py`` (hypothesis property) and,
  for the dense layout, ``benchmarks/test_bench_layout_hotpath.py``.
* :class:`ReferenceNoiseAwareLayout` (``_rank_physical`` and its
  ``_best_subset``) — the per-neighbour fidelity sums.  Used by
  ``tests/transpiler/test_layout_vectorized.py``.
* :class:`ReferenceDensityMatrixSimulator` (``_evolve``) and the
  :func:`_evolve_unitary_expand` / :func:`_evolve_channel_expand`
  helpers — full-register expansion of every operator (O(8^n) per gate).
  Used by ``tests/noise/test_density_engine_equivalence.py`` and
  ``benchmarks/test_bench_noisy_sim.py``.

Some oracles are the networkx calls that in-tree ports replaced; ``src/``
imports networkx only in :attr:`repro.topology.coupling.CouplingMap.graph`,
which feeds them:

* :func:`reference_first_monomorphism` — networkx's VF2 ``GraphMatcher``,
  which :func:`repro.transpiler.passes.vf2_layout.first_monomorphism`
  must reproduce embedding for embedding, fed the device's
  ``CouplingMap.graph`` and the pattern of
  :func:`reference_interaction_graph` (the networkx graph
  :func:`~repro.transpiler.passes.vf2_layout.interaction_graph` used to
  return).  Used by ``tests/transpiler/test_vf2_layout.py`` (seeded random
  graph pairs, every search of the ``l3-noisy`` grid at seeds 1-3, and the
  pre-check suites ``TestEmbeddingPrecheck``/``TestPrecheckParity``) and
  ``benchmarks/test_bench_layout_hotpath.py::test_bench_vf2_search``.
* :func:`reference_hex_lattice` and :func:`reference_heavy_hex_lattice` —
  the hex families built with ``hexagonal_lattice_graph``, ``eccentricity``,
  ``bfs_edges`` and ``subgraph``; the ports must give the same edges and
  adjacency order.  Used by ``tests/topology/test_lattices.py``.
* :func:`reference_shortest_path` — ``networkx.shortest_path``, which
  :meth:`repro.topology.coupling.CouplingMap.shortest_path` must match
  path for path.  Used by ``tests/topology/test_coupling.py``.
* :func:`reference_weighted_distance` — networkx's all-pairs Dijkstra,
  which the noise-aware router's weighted-distance table must equal bit
  for bit.  Used by ``tests/transpiler/test_noise_aware_routing.py``.

One oracle is the set of walks a single walk replaced:

* :func:`reference_circuit_metrics` — every paper counter of a circuit by
  its own walk: three counting loops and one
  :meth:`~repro.circuits.circuit.QuantumCircuit.depth`-style
  longest-path walk per critical-path metric, as ``QuantumCircuit``
  computed them before its one cached walk.  :data:`CIRCUIT_METRIC_VIEWS`
  names the public method behind each key, which must return the same
  value (``==``).  Used by ``tests/circuits/test_circuit_core.py`` and
  ``benchmarks/test_bench_circuit_core.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np
from networkx.algorithms import isomorphism

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.circuits.instruction import Instruction
from repro.core.noise import NoiseModel
from repro.gates import SwapGate
from repro.linalg.cache import LRUCache
from repro.noise.channels import QuantumChannel
from repro.noise.density_matrix import DensityMatrixSimulator
from repro.simulator.fusion import apply_matrix_to_axes
from repro.topology.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passes.commutation import (
    BLOCKS,
    COMMUTES,
    INVERSE,
    CommutativeCancellation,
    _gate_identity,
)
from repro.transpiler.passes.layout_passes import DenseLayout, InteractionGraphLayout
from repro.transpiler.passes.noise_aware_routing import NoiseAwareLayout, NoiseAwareRouting
from repro.transpiler.passmanager import PropertySet, TranspilerPass
from repro.transpiler.scheduling import GateDurations, TimedInstruction

_EXTENDED_SET_SIZE = 20
_EXTENDED_SET_WEIGHT = 0.5
_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5
_TIE_EPS = 1e-12
_ENGINES = ("vector", "reference")


def _check_engine(engine: str) -> str:
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; engines are {_ENGINES}")
    return engine


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
        self._coupling_map = coupling_map
        self._seed = int(seed)
        self._extended_set_size = int(extended_set_size)
        self._extended_set_weight = float(extended_set_weight)
        self._decay_increment = float(decay_increment)
        self._engine = _check_engine(engine)

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


# -- layout ------------------------------------------------------------------


def reference_densest_subset(coupling_map: CouplingMap, size: int) -> List[int]:
    """The original per-candidate Python-loop growth (parity oracle)."""
    graph = coupling_map.graph
    num_qubits = coupling_map.num_qubits
    if size > num_qubits:
        raise ValueError("requested subset larger than the device")
    if size == num_qubits:
        return list(range(num_qubits))
    best_subset: List[int] = []
    best_internal = -1
    degrees = dict(graph.degree())
    seeds = sorted(degrees, key=lambda q: -degrees[q])[: max(4, num_qubits // 8)]
    for seed in seeds:
        subset = {seed}
        while len(subset) < size:
            frontier = {
                neighbor
                for node in subset
                for neighbor in graph.neighbors(node)
            } - subset
            if not frontier:
                remaining = [q for q in range(num_qubits) if q not in subset]
                frontier = set(remaining[:1])
                if not frontier:
                    break
            choice = max(
                frontier,
                key=lambda q: (
                    sum(1 for nb in graph.neighbors(q) if nb in subset),
                    degrees[q],
                    -q,
                ),
            )
            subset.add(choice)
        internal = sum(
            1 for a, b in graph.edges() if a in subset and b in subset
        )
        if internal > best_internal:
            best_internal = internal
            best_subset = sorted(subset)
    return best_subset


class ReferenceDenseLayout(DenseLayout):
    """:class:`DenseLayout` with the pre-vectorization scorer."""

    def _select(self, circuit: QuantumCircuit, properties: PropertySet) -> Layout:
        """The pre-vectorization scorer (Python loops), kept as parity oracle."""
        device = self._coupling_map
        subset = reference_densest_subset(device, circuit.num_qubits)
        subset_set = set(subset)
        internal_degree = {
            qubit: sum(1 for nb in device.neighbors(qubit) if nb in subset_set)
            for qubit in subset
        }
        physical_ranked = sorted(subset, key=lambda q: (-internal_degree[q], q))
        activity: Dict[int, int] = {q: 0 for q in range(circuit.num_qubits)}
        interactions = DAGCircuit.shared(circuit, properties).two_qubit_interactions()
        for pair, count in interactions.items():
            activity[pair[0]] += count
            activity[pair[1]] += count
        virtual_ranked = sorted(
            range(circuit.num_qubits), key=lambda q: (-activity[q], q)
        )
        return Layout(
            {virtual: physical for virtual, physical in zip(virtual_ranked, physical_ranked)}
        )


class ReferenceInteractionGraphLayout(InteractionGraphLayout):
    """:class:`InteractionGraphLayout` with the pre-vectorization placer."""

    def _place(
        self, circuit: QuantumCircuit, properties: PropertySet
    ) -> Dict[int, int]:
        """The pre-vectorization placer (Python loops), kept as parity oracle."""
        device = self._coupling_map
        rng = np.random.default_rng(self._seed)
        distance = device.distance_matrix()
        interactions = DAGCircuit.shared(circuit, properties).two_qubit_interactions()
        weight: Dict[int, Dict[int, int]] = {}
        for (a, b), count in interactions.items():
            weight.setdefault(a, {})[b] = count
            weight.setdefault(b, {})[a] = count
        order = sorted(
            range(circuit.num_qubits),
            key=lambda q: -sum(weight.get(q, {}).values()),
        )
        free = set(range(device.num_qubits))
        placement: Dict[int, int] = {}
        for virtual in order:
            partners = [
                (placement[other], count)
                for other, count in weight.get(virtual, {}).items()
                if other in placement
            ]
            if not partners:
                # Seed unconnected (or first) qubits near the device centre.
                centre = min(
                    free,
                    key=lambda q: float(np.sum(distance[q, list(free)]))
                    + rng.uniform(0, 1e-6),
                )
                placement[virtual] = centre
            else:
                best = min(
                    free,
                    key=lambda q: sum(
                        distance[q, physical] * count for physical, count in partners
                    )
                    + rng.uniform(0, 1e-6),
                )
                placement[virtual] = best
            free.remove(placement[virtual])
        return placement


class ReferenceNoiseAwareLayout(NoiseAwareLayout):
    """:class:`NoiseAwareLayout` with the pre-vectorization scorer."""

    @staticmethod
    def _rank_physical(
        size: int, device: CouplingMap, noise_model: NoiseModel
    ) -> List[int]:
        """The pre-vectorization scorer (Python loops), kept as parity oracle."""
        subset = ReferenceNoiseAwareLayout._best_subset(size, device, noise_model)
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


# -- VF2 layout --------------------------------------------------------------


def reference_first_monomorphism(device: nx.Graph, pattern: nx.Graph) -> Optional[Dict]:
    """networkx's first device -> pattern subgraph monomorphism, or None.

    ``GraphMatcher`` raises the interpreter's recursion limit for large
    patterns and never lowers it again; the oracle puts it back.
    """
    matcher = isomorphism.GraphMatcher(device, pattern)
    try:
        return next(matcher.subgraph_monomorphisms_iter(), None)
    finally:
        matcher.reset_recursion_limit()


def reference_interaction_graph(
    circuit: QuantumCircuit, interactions: Optional[Dict[Tuple[int, int], int]] = None
) -> nx.Graph:
    """The networkx interaction graph ``VF2Layout`` once searched (weight = gate count)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(circuit.num_qubits))
    if interactions is None:
        interactions = circuit.two_qubit_interactions()
    for (a, b), count in interactions.items():
        graph.add_edge(a, b, weight=count)
    return graph


# -- coupling graphs ---------------------------------------------------------


def _reference_trim_to_size(graph: nx.Graph, num_qubits: int) -> nx.Graph:
    """BFS patch of ``num_qubits`` nodes from a minimum-eccentricity node."""
    if graph.number_of_nodes() < num_qubits:
        raise ValueError(
            f"parent lattice has only {graph.number_of_nodes()} nodes, "
            f"cannot trim to {num_qubits}"
        )
    eccentricity = nx.eccentricity(graph)
    start = min(sorted(graph.nodes(), key=str), key=lambda n: eccentricity[n])
    order = [start] + [v for _, v in nx.bfs_edges(graph, start)]
    keep = order[:num_qubits]
    return graph.subgraph(keep).copy()


def _reference_subdivide_edges(graph: nx.Graph) -> nx.Graph:
    """Insert one new node in the middle of every edge of ``graph``."""
    heavy = nx.Graph()
    heavy.add_nodes_from(graph.nodes())
    for index, (a, b) in enumerate(sorted(graph.edges(), key=str)):
        middle = ("edge", index)
        heavy.add_node(middle)
        heavy.add_edge(a, middle)
        heavy.add_edge(middle, b)
    return heavy


def _reference_hex_family(num_qubits: int, heavy: bool) -> CouplingMap:
    rows = cols = 1
    while True:
        candidate = nx.hexagonal_lattice_graph(rows, cols)
        if heavy:
            candidate = _reference_subdivide_edges(candidate)
        if candidate.number_of_nodes() >= num_qubits:
            break
        if rows <= cols:
            rows += 1
        else:
            cols += 1
    return CouplingMap.from_graph(_reference_trim_to_size(candidate, num_qubits))


def reference_hex_lattice(num_qubits: int) -> CouplingMap:
    """:func:`~repro.topology.lattices.hex_lattice` built with networkx."""
    return _reference_hex_family(num_qubits, heavy=False)


def reference_heavy_hex_lattice(num_qubits: int) -> CouplingMap:
    """:func:`~repro.topology.lattices.heavy_hex_lattice` built with networkx.

    For 3-5 qubits networkx copies the trimmed subgraph in the iteration
    order of a set of node labels that hold a string, so the adjacency
    order depends on ``PYTHONHASHSEED``; the edges do not.
    """
    return _reference_hex_family(num_qubits, heavy=True)


def reference_shortest_path(coupling_map: CouplingMap, qubit_a: int, qubit_b: int) -> List[int]:
    """``networkx.shortest_path`` (bidirectional BFS) on the coupling graph."""
    return nx.shortest_path(coupling_map.graph, qubit_a, qubit_b)


def reference_weighted_distance(
    router: NoiseAwareRouting, coupling_map: CouplingMap, noise_model: NoiseModel
) -> np.ndarray:
    """All-pairs Dijkstra under ``router.edge_cost``; unreachable pairs ``inf``."""
    graph = nx.Graph()
    graph.add_nodes_from(range(coupling_map.num_qubits))
    for a, b in coupling_map.edges():
        graph.add_edge(a, b, weight=router.edge_cost(noise_model, a, b))
    distance = np.full((coupling_map.num_qubits, coupling_map.num_qubits), np.inf)
    for source, lengths in nx.all_pairs_dijkstra_path_length(graph, weight="weight"):
        for target, value in lengths.items():
            distance[source, target] = value
    return distance


# -- circuit metrics ---------------------------------------------------------


def reference_circuit_metrics(circuit: QuantumCircuit) -> Dict[str, float]:
    """Every paper counter, each from its own walk over the instructions."""
    instructions = list(circuit)

    def longest_path(weight: Callable[[Instruction], float]) -> float:
        frontier = [0.0] * circuit.num_qubits
        longest = 0.0
        for instruction in instructions:
            start = max(frontier[q] for q in instruction.qubits)
            end = start + weight(instruction)
            for qubit in instruction.qubits:
                frontier[qubit] = end
            longest = max(longest, end)
        return longest

    def critical_path_count(predicate: Callable[[Instruction], bool]) -> int:
        return int(longest_path(lambda inst: 1.0 if predicate(inst) else 0.0))

    return {
        "size": sum(1 for inst in instructions if inst.name != "barrier"),
        "two_qubit": sum(1 for inst in instructions if inst.is_two_qubit),
        "swaps": sum(1 for inst in instructions if inst.name == "swap"),
        "induced_swaps": sum(
            1 for inst in instructions if inst.name == "swap" and inst.induced
        ),
        "depth": longest_path(lambda inst: 0.0 if inst.name == "barrier" else 1.0),
        "critical_swaps": critical_path_count(lambda inst: inst.name == "swap"),
        "critical_induced_swaps": critical_path_count(
            lambda inst: inst.name == "swap" and inst.induced
        ),
        "critical_two_qubit": critical_path_count(lambda inst: inst.is_two_qubit),
        "weighted_duration": float(longest_path(lambda inst: inst.gate.duration())),
    }


#: The public :class:`QuantumCircuit` view behind each
#: :func:`reference_circuit_metrics` key.
CIRCUIT_METRIC_VIEWS: Dict[str, Callable[[QuantumCircuit], float]] = {
    "size": lambda circuit: circuit.size(),
    "two_qubit": lambda circuit: circuit.two_qubit_gate_count(),
    "swaps": lambda circuit: circuit.swap_count(),
    "induced_swaps": lambda circuit: circuit.swap_count(induced_only=True),
    "depth": lambda circuit: circuit.depth(),
    "critical_swaps": lambda circuit: circuit.critical_path_swaps(),
    "critical_induced_swaps": lambda circuit: circuit.critical_path_swaps(induced_only=True),
    "critical_two_qubit": lambda circuit: circuit.critical_path_two_qubit(),
    "weighted_duration": lambda circuit: circuit.weighted_duration(),
}


# -- noise-aware routing -----------------------------------------------------


class ReferenceNoiseAwareRouting(NoiseAwareRouting):
    """:class:`NoiseAwareRouting` as its own greedy loop, before the merge.

    The run loop is the noise-aware router's own copy of the step loop, as
    it stood before the router became a scorer on SABRE's: NumPy scalars
    per gate, the front's physical pairs re-derived on every decision, and
    the stall limit checked at the top of the next blocked step.  It
    shares only the constructor and the cost tables with production.
    """

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        coupling_map: CouplingMap = self._coupling_map or properties.require("coupling_map")
        noise_model: NoiseModel = (
            self._noise_model
            or properties.get("noise_model")
            or NoiseModel.uniform()
        )
        layout: Layout = properties.require("layout")
        rng = np.random.default_rng(self._seed)
        distance, _ = self._cost_tables(coupling_map, noise_model)
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
            candidates = _candidate_swap_array(front_pairs, edge_index)
            choice = self._select_swap(candidates, front_pairs, distance, noise_model, rng)
            best_swap = (int(candidates[choice, 0]), int(candidates[choice, 1]))
            output.append(SwapGate(), best_swap, induced=True)
            _swap_in_arrays(v2p, p2v, *best_swap)
            swaps_inserted += 1
            stall_counter += 1

        properties["final_layout"] = _layout_from_array(v2p)
        properties["routing_swaps"] = swaps_inserted
        properties["routed_circuit"] = output
        return output

    def _select_swap(
        self,
        candidates: np.ndarray,
        front_pairs: np.ndarray,
        distance: np.ndarray,
        noise_model: NoiseModel,
        rng: np.random.Generator,
    ) -> int:
        """The per-candidate scorer: front distance plus ``3 * edge_cost``."""
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


# -- state-vector simulation -------------------------------------------------


def reference_statevector(circuit: QuantumCircuit) -> np.ndarray:
    """The final state of ``circuit`` from ``|0...0>``, one contraction per gate."""
    n = circuit.num_qubits
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    tensor = state.reshape([2] * n)
    for instruction in circuit:
        if instruction.name == "barrier":
            continue
        # Qubit q lives on tensor axis n - 1 - q (little-endian register).
        axes = [n - 1 - q for q in instruction.qubits]
        tensor = apply_matrix_to_axes(tensor, instruction.gate.cached_matrix(), axes)
    return tensor.reshape(2 ** n)


# -- density-matrix simulation -----------------------------------------------


def _expand_operator(operator: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed an operator on ``qubits`` into the full register.

    ``operator`` follows the gate convention (first listed qubit = most
    significant bit); the returned matrix acts on the little-endian full
    register.  This is the legacy O(8^n)-per-gate path, kept as the
    reference implementation for the equivalence tests and benchmarks.
    """
    qubits = [int(q) for q in qubits]
    arity = len(qubits)
    if operator.shape != (2 ** arity, 2 ** arity):
        raise ValueError("operator dimension does not match the qubit list")
    dim = 2 ** num_qubits
    op_tensor = operator.reshape([2] * (2 * arity))
    full = np.eye(dim, dtype=complex).reshape([2] * (2 * num_qubits))
    # Row axis of full for qubit q is (num_qubits - 1 - q).
    row_axes = [num_qubits - 1 - q for q in qubits]
    # Contract the operator's input indices with the identity's row axes:
    # result(out_1..out_k, remaining row axes..., col axes...) then move the
    # new output axes back into place.
    contracted = np.tensordot(
        op_tensor, full, axes=(list(range(arity, 2 * arity)), row_axes)
    )
    moved = np.moveaxis(contracted, range(arity), row_axes)
    return moved.reshape(dim, dim)


def _evolve_unitary_expand(
    matrix: np.ndarray, unitary: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Legacy unitary evolution: embed into the full register, two matmuls."""
    expanded = _expand_operator(np.asarray(unitary, dtype=complex), qubits, num_qubits)
    return expanded @ matrix @ expanded.conj().T


def _evolve_channel_expand(
    matrix: np.ndarray, channel: QuantumChannel, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Legacy channel evolution: one full-register expansion per Kraus operator."""
    result = np.zeros_like(matrix)
    for op in channel.kraus_operators:
        expanded = _expand_operator(op, qubits, num_qubits)
        result += expanded @ matrix @ expanded.conj().T
    return result


class ReferenceDensityMatrixSimulator(DensityMatrixSimulator):
    """:class:`DensityMatrixSimulator` with the full-register expansion engine."""

    def _evolve(
        self,
        circuit: QuantumCircuit,
        matrix: np.ndarray,
        noise_model: Optional["object"],
    ) -> np.ndarray:
        """Legacy evolution: embed every operator into the full register."""
        n = circuit.num_qubits
        for instruction in circuit:
            if instruction.name == "barrier":
                continue
            matrix = _evolve_unitary_expand(
                matrix, instruction.gate.matrix(), instruction.qubits, n
            )
            if noise_model is not None:
                channel = noise_model.channel_for(instruction)
                if channel is not None:
                    matrix = _evolve_channel_expand(
                        matrix, channel, instruction.qubits, n
                    )
        if noise_model is not None:
            for qubit in range(n):
                idle = noise_model.idle_channel_for(circuit, qubit)
                if idle is not None:
                    matrix = _evolve_channel_expand(matrix, idle, (qubit,), n)
        return matrix


# -- commutative cancellation ------------------------------------------------


def _reference_joint_unitary(
    first: Instruction, second: Instruction
) -> Tuple[np.ndarray, np.ndarray]:
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


def _reference_is_diagonal(matrix: np.ndarray) -> bool:
    return np.count_nonzero(matrix) == np.count_nonzero(np.diagonal(matrix))


def reference_instructions_commute(first: Instruction, second: Instruction) -> bool:
    """Commutation on the joint unitaries, with ``np.allclose``."""
    if not set(first.qubits) & set(second.qubits):
        return True
    if first.name == "barrier" or second.name == "barrier":
        return False
    if _reference_is_diagonal(first.gate.matrix()) and _reference_is_diagonal(
        second.gate.matrix()
    ):
        return True
    matrix_a, matrix_b = _reference_joint_unitary(first, second)
    return bool(np.allclose(matrix_a @ matrix_b, matrix_b @ matrix_a, atol=1e-9))


def _reference_is_inverse_pair(first: Instruction, second: Instruction) -> bool:
    if first.qubits != second.qubits:
        return False
    if first.name == "barrier" or second.name == "barrier":
        return False
    product = second.gate.matrix() @ first.gate.matrix()
    phase = product[0, 0]
    if abs(abs(phase) - 1.0) > 1e-9:
        return False
    return bool(np.allclose(product, phase * np.eye(product.shape[0]), atol=1e-9))


def reference_pair_verdict(first: Instruction, second: Instruction) -> str:
    """The verdict straight from the numeric predicates, with no memo."""
    if _reference_is_inverse_pair(first, second):
        return INVERSE
    if reference_instructions_commute(first, second):
        return COMMUTES
    return BLOCKS


#: The oracle pass's own verdict memo, so it never reads production's.
REFERENCE_COMMUTATION_CACHE = LRUCache(maxsize=4096)


def _reference_memo_verdict(first: Instruction, second: Instruction) -> str:
    """:func:`reference_pair_verdict` behind the memo key, rebuilt per call."""
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
    verdict = REFERENCE_COMMUTATION_CACHE.get(key)
    if verdict is None:
        verdict = reference_pair_verdict(first, second)
        REFERENCE_COMMUTATION_CACHE.put(key, verdict)
    return verdict


class ReferenceCommutativeCancellation(CommutativeCancellation):
    """:class:`CommutativeCancellation` on a list with emptied slots.

    Every verdict rebuilds both qubit sets and both gate identities, and a
    miss runs the ``np.allclose`` predicates on freshly built matrices
    (joint unitaries from ``tensordot`` unless both gates are diagonal).
    It shares only the constructor with production.
    """

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        kept: List[Optional[Instruction]] = []
        cancelled = 0
        for instruction in circuit:
            if instruction.name == "barrier":
                kept.append(instruction)
                continue
            partner = self._find_reference_partner(instruction, kept)
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

    def _find_reference_partner(
        self, instruction: Instruction, kept: List[Optional[Instruction]]
    ) -> Optional[int]:
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
            verdict = _reference_memo_verdict(earlier, instruction)
            if verdict == BLOCKS:
                return None
            if verdict == INVERSE:
                for between in reversed(kept[index + 1 :]):
                    if (
                        between is not None
                        and between.qubits != qubits
                        and _reference_memo_verdict(between, instruction) == BLOCKS
                    ):
                        return None
                return index
        return None


# -- scheduling --------------------------------------------------------------


class ReferenceSchedule:
    """A schedule kept as :class:`TimedInstruction` objects in circuit order."""

    def __init__(self, circuit: QuantumCircuit, timed: List[TimedInstruction]):
        self.circuit = circuit
        self._timed = timed

    @property
    def timed_instructions(self) -> List[TimedInstruction]:
        return sorted(self._timed, key=lambda t: (t.start, t.stop))

    def total_duration(self) -> float:
        return max((t.stop for t in self._timed), default=0.0)

    def _busy_times(self) -> List[float]:
        durations: List[List[float]] = [[] for _ in range(self.circuit.num_qubits)]
        for timed in self._timed:
            duration = timed.duration
            for qubit in timed.instruction.qubits:
                durations[qubit].append(duration)
        return [sum(values) for values in durations]

    def total_idle_time(self) -> float:
        makespan = self.total_duration()
        return sum(makespan - busy for busy in self._busy_times())

    def average_parallelism(self) -> float:
        makespan = self.total_duration()
        if makespan <= 0.0:
            return 0.0
        return sum(t.duration for t in self._timed) / makespan

    def two_qubit_duration(self) -> float:
        return sum(t.duration for t in self._timed if t.instruction.is_two_qubit)

    def utilisation(self) -> float:
        makespan = self.total_duration()
        if makespan <= 0.0:
            return 0.0
        return sum(self._busy_times()) / (makespan * self.circuit.num_qubits)

    def timeline(self, resolution: int = 100) -> np.ndarray:
        makespan = self.total_duration()
        grid = np.linspace(0.0, makespan, num=max(2, resolution))
        counts = np.zeros_like(grid)
        for timed in self._timed:
            if timed.duration <= 0.0:
                continue
            counts += (grid >= timed.start) & (grid < timed.stop)
        return counts


def reference_schedule_asap(circuit: QuantumCircuit, durations: GateDurations) -> ReferenceSchedule:
    """ASAP with one ``duration_of`` and one :class:`TimedInstruction` per instruction."""
    frontier = [0.0] * circuit.num_qubits
    timed: List[TimedInstruction] = []
    for instruction in circuit:
        duration = durations.duration_of(instruction)
        start = max(frontier[q] for q in instruction.qubits)
        stop = start + duration
        for qubit in instruction.qubits:
            frontier[qubit] = stop
        timed.append(TimedInstruction(instruction, start, stop))
    return ReferenceSchedule(circuit, timed)


def reference_schedule_alap(circuit: QuantumCircuit, durations: GateDurations) -> ReferenceSchedule:
    """ALAP against the ASAP makespan, walking the circuit backwards."""
    makespan = reference_schedule_asap(circuit, durations).total_duration()
    frontier = [makespan] * circuit.num_qubits
    reversed_timed: List[TimedInstruction] = []
    for instruction in reversed(list(circuit)):
        duration = durations.duration_of(instruction)
        stop = min(frontier[q] for q in instruction.qubits)
        start = stop - duration
        for qubit in instruction.qubits:
            frontier[qubit] = start
        reversed_timed.append(TimedInstruction(instruction, start, stop))
    return ReferenceSchedule(circuit, list(reversed(reversed_timed)))
