"""Perfect-layout search via subgraph monomorphism (VF2).

The paper notes (Section 6.1) that on the Corral(1,1) topology the
transpiler often finds an initial mapping that requires *zero* SWAP gates —
a direct consequence of its rich connectivity.  This pass makes that search
explicit: it builds the circuit's two-qubit interaction graph and asks the
VF2 algorithm for an embedding of that graph into the coupling graph.  When
an embedding exists, routing needs no SWAPs at all.

When no embedding exists (the common case on sparse lattices), the pass
falls back to a caller-supplied layout pass (``DenseLayout`` by default) so
that it can be used as a drop-in ``layout_method`` in
:func:`repro.transpiler.compile.transpile`.

Many failed searches are decided before VF2 starts: :func:`embedding_impossible`
tests necessary conditions of an embedding (edge count and the sorted
degree sequences), so e.g. the complete interaction graph of a 16-qubit QFT
is rejected on a degree-8 device without enumerating partial mappings.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx
from networkx.algorithms import isomorphism

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.topology.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import PropertySet, TranspilerPass
from repro.transpiler.passes.layout_passes import DenseLayout


def interaction_graph(
    circuit: QuantumCircuit,
    interactions: Optional[Mapping[Tuple[int, int], int]] = None,
) -> nx.Graph:
    """The circuit's two-qubit interaction graph (edge weight = gate count).

    ``interactions`` lets callers that already hold the counts (e.g. from a
    shared :class:`~repro.circuits.dag.DAGCircuit`) skip the circuit walk.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(circuit.num_qubits))
    if interactions is None:
        interactions = circuit.two_qubit_interactions()
    for (a, b), count in interactions.items():
        graph.add_edge(a, b, weight=count)
    return graph


def _degrees_descending(graph: nx.Graph) -> List[int]:
    return sorted((degree for _, degree in graph.degree()), reverse=True)


def embedding_impossible(pattern: nx.Graph, device: nx.Graph) -> bool:
    """True when ``pattern`` provably has no subgraph monomorphism into ``device``.

    An embedding maps pattern nodes injectively onto device nodes and
    pattern edges onto device edges, so the device needs at least as many
    nodes and edges, and each pattern node v lands on a device node of
    degree >= deg(v).  The k busiest pattern nodes land on k distinct
    device nodes, hence the pattern's k-th largest degree is at most the
    device's k-th largest degree, for every k.  ``False`` proves nothing:
    the VF2 search decides then.
    """
    if (
        pattern.number_of_nodes() > device.number_of_nodes()
        or pattern.number_of_edges() > device.number_of_edges()
    ):
        return True
    return any(
        needed > available
        for needed, available in zip(_degrees_descending(pattern), _degrees_descending(device))
    )


class VF2Layout(TranspilerPass):
    """Find a SWAP-free initial layout when one exists.

    Records ``properties["layout"]`` like any layout pass, plus
    ``properties["perfect_layout"]`` (True when the VF2 search succeeded)
    so experiments can report how often each topology admits a perfect
    embedding.
    """

    name = "vf2_layout"

    def __init__(
        self,
        coupling_map: CouplingMap,
        fallback: Optional[TranspilerPass] = None,
        strict: bool = False,
    ):
        self._coupling_map = coupling_map
        self._fallback = fallback if fallback is not None else DenseLayout(coupling_map)
        self._strict = bool(strict)

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        device = self._coupling_map
        if circuit.num_qubits > device.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits but the device has "
                f"{device.num_qubits}"
            )
        mapping = self._find_embedding(circuit, properties)
        if mapping is not None:
            properties["layout"] = Layout(mapping)
            properties["coupling_map"] = device
            properties["perfect_layout"] = True
            return circuit
        if self._strict:
            raise RuntimeError(
                f"no SWAP-free embedding of {circuit.name!r} into {device.name!r} exists"
            )
        properties["perfect_layout"] = False
        result = self._fallback.run(circuit, properties)
        properties["coupling_map"] = device
        return result

    # -- embedding search ----------------------------------------------------

    def _find_embedding(
        self, circuit: QuantumCircuit, properties: Optional[PropertySet] = None
    ) -> Optional[Dict[int, int]]:
        """Virtual -> physical mapping realising every interaction edge, or None."""
        if properties is not None:
            # The interaction counts come off the shared DAG, so the DAG
            # built here is reused by the fallback layout and the routing
            # stage instead of walking the circuit again.
            interactions = DAGCircuit.shared(circuit, properties).two_qubit_interactions()
        else:
            interactions = None
        pattern = interaction_graph(circuit, interactions)
        if pattern.number_of_edges() == 0:
            # Any assignment works; keep it trivial.
            return {v: v for v in range(circuit.num_qubits)}
        device = self._coupling_map.graph
        if embedding_impossible(pattern, device):
            return None
        matcher = isomorphism.GraphMatcher(device, pattern)
        mapping = next(matcher.subgraph_monomorphisms_iter(), None)
        if mapping is None:
            return None
        # networkx returns device-node -> pattern-node; invert it.  Every
        # virtual qubit is a pattern node, idle ones included, so the
        # monomorphism seats them all.
        return {virtual: physical for physical, virtual in mapping.items()}
