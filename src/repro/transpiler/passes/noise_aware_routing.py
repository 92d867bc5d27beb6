"""Noise-aware routing: prefer high-fidelity edges when inserting SWAPs.

The paper's related work (its reference [34], Murali et al.) maps circuits
with awareness of per-edge error rates; the paper itself sidesteps the
issue by assuming uniform fidelity.  This pass closes that gap for the
heterogeneous-noise extension studies: it runs the step loop of
:class:`~repro.transpiler.passes.routing.SabreRouting`, without lookahead
or decay, with a scorer that adds an edge-cost term derived from a
:class:`~repro.core.noise.NoiseModel` to the front distance, so that
routing avoids SWAPs on low-fidelity couplings when an almost-as-short
alternative exists.  The loop checks the stall limit right after the
SWAP that crosses it, as SABRE does; :class:`NoiseAwareRouting` says
where that differs from this router's former loop, which
``tests/oracles.py`` keeps as a parity oracle.

The cost of using an edge is ``1 - log(fidelity) / log(fidelity_floor)``
scaled into a SWAP-count-comparable unit, i.e. a perfect edge costs 1 hop
and an edge at the floor fidelity costs ``1 + noise_weight`` hops.

The router's two cost tables (all-pairs weighted distances and per-edge
SWAP costs) depend only on the device, the noise model's fidelities and
the two cost parameters, while a sweep compiles many circuits against few
noisy targets.  :data:`COST_TABLE_CACHE` therefore builds them once per
distinct content and serves read-only copies to every later run.  The
weighted distances come from a NumPy min-plus relaxation over the edge
list that equals networkx's all-pairs Dijkstra bit for bit
(:meth:`NoiseAwareRouting._weighted_distance`; ``tests/oracles.py`` keeps
the Dijkstra call as its parity oracle).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.core.noise import NoiseModel
from repro.linalg.cache import LRUCache
from repro.topology.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passes.routing import SabreRouting, Scorer
from repro.transpiler.passmanager import PropertySet, TranspilerPass

#: Process-wide memo of :meth:`NoiseAwareRouting._cost_tables`.  It
#: outlives pass instances because the pass registry builds a new router
#: for every compiled circuit; each pool worker builds its own.  Keys hold
#: content, not object identity: a :class:`~repro.core.noise.NoiseModel`
#: can be mutated between runs, and pool workers receive unpickled copies
#: of each target.  One sweep of the level-3 benchmark grid needs 11
#: entries; an 84-qubit entry holds two 56 KiB arrays.
COST_TABLE_CACHE = LRUCache(maxsize=16)


class NoiseAwareLayout(TranspilerPass):
    """Initial layout on the highest-fidelity connected patch of the device.

    The greedy densest-subset search of
    :class:`~repro.transpiler.passes.layout_passes.DenseLayout` is repeated
    with edge weights equal to each coupling's fidelity, so the circuit is
    placed where gates are *good*, not merely where they are plentiful.
    Falls back to plain DenseLayout behaviour under a uniform noise model.

    Hot path: subset growth and qubit quality are scored on the
    :meth:`~repro.core.noise.NoiseModel.fidelity_matrix` array —
    sequential-order sums via ``cumsum``, so the float scores (and hence
    every tie-break) are bit-identical to the Python-loop scorer it
    replaced, which ``tests/oracles.py`` keeps as a parity oracle.
    """

    name = "noise_aware_layout"

    def __init__(
        self,
        coupling_map: CouplingMap,
        noise_model: Optional[NoiseModel] = None,
    ):
        self._coupling_map = coupling_map
        self._noise_model = noise_model

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
        physical_ranked = self._rank_physical(circuit.num_qubits, device, noise_model)
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

    @staticmethod
    def _rank_physical(
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


class NoiseAwareRouting(SabreRouting):
    """Greedy router whose distance metric penalises low-fidelity edges.

    It runs SABRE's step loop with no lookahead (extended-set size 0) and
    no decay (increment 0.0, so every decay factor stays exactly 1.0) and
    its own scorer (:meth:`_scorer`).  The loop checks the stall limit
    right after the SWAP that crosses it, where this router's own loop
    used to check at the top of the next blocked step.  The two differ in
    one case only: when that SWAP (more than ``10 * max(4, n)`` SWAPs with
    no gate executed) unblocks a front gate other than the first, the
    router now escapes along the first gate's shortest path, as SABRE does.
    """

    name = "noise_aware_routing"

    def __init__(
        self,
        coupling_map: Optional[CouplingMap] = None,
        noise_model: Optional[NoiseModel] = None,
        noise_weight: float = 2.0,
        fidelity_floor: float = 0.9,
        seed: int = 0,
    ):
        if noise_weight < 0.0:
            raise ValueError("noise_weight must be non-negative")
        if not 0.0 < fidelity_floor < 1.0:
            raise ValueError("fidelity_floor must lie strictly between 0 and 1")
        super().__init__(coupling_map, seed=seed, extended_set_size=0, decay_increment=0.0)
        self._noise_model = noise_model
        self._noise_weight = float(noise_weight)
        self._fidelity_floor = float(fidelity_floor)

    # -- cost model -----------------------------------------------------------

    def edge_cost(self, noise_model: NoiseModel, qubit_a: int, qubit_b: int) -> float:
        """Cost of one two-qubit gate on an edge (1.0 for a perfect edge)."""
        fidelity = max(noise_model.fidelity(qubit_a, qubit_b), self._fidelity_floor)
        penalty = np.log(fidelity) / np.log(self._fidelity_floor)
        return float(1.0 + self._noise_weight * penalty)

    def _weighted_distance(
        self, coupling_map: CouplingMap, noise_model: NoiseModel
    ) -> np.ndarray:
        """All-pairs shortest-path distances under the edge-cost metric.

        Every source relaxes every edge, in both directions, at once until
        no distance drops: ``D[s, v] = min(D[s, v], min_u D[s, u] + w(u, v))``.
        Each edge costs at least 1, so the only table that satisfies
        ``D[s, v] = min_u fl(D[s, u] + w(u, v))`` for ``v != s`` is the one
        Dijkstra's algorithm returns, and the relaxation reaches it with the
        same float additions: the two are equal bit for bit.  Unreachable
        pairs stay ``inf``.
        """
        n = coupling_map.num_qubits
        distance = np.full((n, n), np.inf)
        np.fill_diagonal(distance, 0.0)
        pairs = coupling_map.swap_arrays()[0]
        if not len(pairs):
            return distance
        cost = self._edge_cost_matrix(coupling_map, noise_model)[pairs[:, 0], pairs[:, 1]]
        # Directed arcs grouped by head, so one reduceat takes every head's
        # minimum over its incoming arcs.
        heads = np.concatenate((pairs[:, 1], pairs[:, 0]))
        order = np.argsort(heads, kind="stable")
        tails = np.concatenate((pairs[:, 0], pairs[:, 1]))[order]
        weights = np.concatenate((cost, cost))[order]
        heads = heads[order]
        starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
        reached = heads[starts]
        while True:
            relaxed = np.minimum.reduceat(distance[:, tails] + weights, starts, axis=1)
            relaxed = np.minimum(distance[:, reached], relaxed)
            if np.array_equal(relaxed, distance[:, reached]):
                return distance
            distance[:, reached] = relaxed

    def _edge_cost_matrix(
        self, coupling_map: CouplingMap, noise_model: NoiseModel
    ) -> np.ndarray:
        """Per-edge cost as a dense symmetric matrix (non-edges stay 0)."""
        cost = np.zeros((coupling_map.num_qubits, coupling_map.num_qubits))
        for a, b in coupling_map.edges():
            cost[a, b] = cost[b, a] = self.edge_cost(noise_model, a, b)
        return cost

    def _cost_tables(
        self, coupling_map: CouplingMap, noise_model: NoiseModel
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(distance, swap_costs)`` tables, memoized by content.

        ``swap_costs`` is ``3 * edge_cost`` per coupling (a SWAP is three
        two-qubit gates).  The key holds every input of the two tables:
        the router class (a subclass may price edges differently), its
        cost parameters, the device's qubit count and edges, and the noise
        model's edge fidelities and default fidelity.
        """
        edge_pairs = coupling_map.swap_arrays()[0]
        key: Hashable = (
            type(self),
            self._noise_weight,
            self._fidelity_floor,
            coupling_map.num_qubits,
            edge_pairs.tobytes(),
            frozenset(noise_model.edge_fidelity.items()),
            noise_model.default_fidelity,
        )
        tables = COST_TABLE_CACHE.get(key)
        if tables is None:
            tables = (
                self._weighted_distance(coupling_map, noise_model),
                3.0 * self._edge_cost_matrix(coupling_map, noise_model),
            )
            for table in tables:
                table.setflags(write=False)
            COST_TABLE_CACHE.put(key, tables)
        return tables

    # -- scoring ---------------------------------------------------------------------

    def _scorer(
        self, coupling_map: CouplingMap, properties: PropertySet
    ) -> Tuple[np.ndarray, Scorer]:
        """The weighted distance table and a front + SWAP-cost scorer.

        A candidate scores the total weighted distance of the front pairs
        after it plus its ``swap_costs`` entry, which already holds
        ``3 * edge_cost``.  The noise model is the router's own, else the
        property set's, else the uniform model.
        """
        noise_model: NoiseModel = (
            self._noise_model
            or properties.get("noise_model")
            or NoiseModel.uniform()
        )
        distance, swap_costs = self._cost_tables(coupling_map, noise_model)

        def score(costs: np.ndarray, num_front: int, candidates: np.ndarray) -> np.ndarray:
            return costs.sum(axis=1) + swap_costs[candidates[:, 0], candidates[:, 1]]

        return distance, score
