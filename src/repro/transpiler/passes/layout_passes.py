"""Initial-layout selection passes.

The paper uses Qiskit's ``DenseLayout`` for initial qubit mapping
(Section 5); :class:`DenseLayout` reproduces its strategy (place the
algorithm on the densest connected patch of the device).  A trivial layout
and an interaction-aware greedy layout are also provided for ablation.

Layout passes are *analysis* passes: they do not change the circuit, they
only record ``properties["layout"]``.

Hot path: like the routers, the layout scorers run on NumPy arrays — the
cached :meth:`~repro.topology.coupling.CouplingMap.adjacency_matrix` /
:meth:`~repro.topology.coupling.CouplingMap.distance_matrix` and the
shared DAG's interaction counts (:meth:`~repro.circuits.dag.DAGCircuit.
qubit_activity` / :meth:`~repro.circuits.dag.DAGCircuit.
interaction_matrix`) — instead of per-candidate Python loops.  The
Python-loop scorers they replaced are kept as test-only oracles
(``tests/oracles.py``) that ``tests/transpiler/test_layout_vectorized.py``
holds these passes to: bit-identical layouts at every seed.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.topology.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import PropertySet, TranspilerPass


class TrivialLayout(TranspilerPass):
    """Map virtual qubit ``i`` to physical qubit ``i``."""

    name = "trivial_layout"

    def __init__(self, coupling_map: CouplingMap):
        self._coupling_map = coupling_map

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        if circuit.num_qubits > self._coupling_map.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits but the device has "
                f"{self._coupling_map.num_qubits}"
            )
        properties["layout"] = Layout.trivial(circuit.num_qubits)
        properties["coupling_map"] = self._coupling_map
        return circuit


class DenseLayout(TranspilerPass):
    """Place the circuit on the densest connected subset of the device.

    Within the chosen subset, the most-active virtual qubits (by two-qubit
    interaction count) are assigned to the best-connected physical qubits,
    mirroring Qiskit's DenseLayout behaviour closely enough for the
    purposes of the paper's evaluation.
    """

    name = "dense_layout"

    def __init__(self, coupling_map: CouplingMap):
        self._coupling_map = coupling_map

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        device = self._coupling_map
        if circuit.num_qubits > device.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits but the device has "
                f"{device.num_qubits}"
            )
        properties["layout"] = self._select(circuit, properties)
        properties["coupling_map"] = device
        return circuit

    def _select(self, circuit: QuantumCircuit, properties: PropertySet) -> Layout:
        """Subset growth, connectivity ranking and activity ranking on arrays."""
        device = self._coupling_map
        subset = np.asarray(device.densest_subset(circuit.num_qubits), dtype=np.int64)
        # Rank physical qubits by connectivity *within* the chosen subset:
        # row sums of the induced adjacency submatrix, sorted by
        # (-degree, qubit) — `subset` is ascending, so a stable lexsort on
        # the negated degrees reproduces the reference tuple sort exactly.
        adjacency = device.adjacency_matrix()
        internal_degree = adjacency[np.ix_(subset, subset)].sum(axis=1)
        physical_ranked = subset[np.lexsort((subset, -internal_degree))]
        # Rank virtual qubits by 2Q activity from the shared DAG (reused by
        # the routing stage instead of being rebuilt).
        activity = DAGCircuit.shared(circuit, properties).qubit_activity()
        activity = activity[: circuit.num_qubits]
        virtual_indices = np.arange(circuit.num_qubits, dtype=np.int64)
        virtual_ranked = virtual_indices[np.lexsort((virtual_indices, -activity))]
        return Layout(
            {int(virtual): int(physical) for virtual, physical in zip(virtual_ranked, physical_ranked)}
        )


class InteractionGraphLayout(TranspilerPass):
    """Greedy interaction-graph embedding (an alternative to DenseLayout).

    Virtual qubits are placed one at a time in decreasing order of
    interaction weight; each is assigned to the free physical qubit that
    minimises the distance-weighted cost to its already-placed partners.
    """

    name = "interaction_layout"

    def __init__(self, coupling_map: CouplingMap, seed: int = 0):
        self._coupling_map = coupling_map
        self._seed = seed

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        device = self._coupling_map
        if circuit.num_qubits > device.num_qubits:
            raise ValueError("circuit does not fit on the device")
        properties["layout"] = Layout(self._place(circuit, properties))
        properties["coupling_map"] = device
        return circuit

    def _place(
        self, circuit: QuantumCircuit, properties: PropertySet
    ) -> Dict[int, int]:
        """Score all free seats for each placement in one gather/matmul.

        Cost sums are exact integer arithmetic (identical to the reference
        regardless of summation order) and the per-seat jitter draws the
        same RNG stream the reference consumes inside ``min`` — iteration
        over the reference's ``free`` set of qubit indices is ascending,
        matching ``np.flatnonzero`` — so placements are bit-identical.
        """
        device = self._coupling_map
        n_virtual = circuit.num_qubits
        rng = np.random.default_rng(self._seed)
        distance = device.distance_matrix().astype(np.int64)
        weights = DAGCircuit.shared(circuit, properties).interaction_matrix()
        weights = weights[:n_virtual, :n_virtual]
        totals = weights.sum(axis=1)
        order = np.argsort(-totals, kind="stable")
        free_mask = np.ones(device.num_qubits, dtype=bool)
        seat_of_virtual = np.full(n_virtual, -1, dtype=np.int64)
        placed: list = []
        placement: Dict[int, int] = {}
        for virtual in order:
            free = np.flatnonzero(free_mask)
            jitter = rng.uniform(0, 1e-6, size=len(free))
            partner_counts = weights[virtual, placed] if placed else np.empty(0, np.int64)
            if not partner_counts.any():
                # Seed unconnected (or first) qubits near the device centre.
                cost = distance[np.ix_(free, free)].sum(axis=1)
            else:
                seats = seat_of_virtual[placed]
                cost = distance[np.ix_(free, seats)] @ partner_counts
            choice = int(free[np.argmin(cost.astype(np.float64) + jitter)])
            placement[int(virtual)] = choice
            seat_of_virtual[virtual] = choice
            placed.append(int(virtual))
            free_mask[choice] = False
        return placement
