"""Tests for the VF2 perfect-layout pass."""

import itertools
import random
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from l3_noisy_grid import vf2_searches
from oracles import reference_first_monomorphism, reference_interaction_graph

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.core.codesign import LARGE_DESIGN_POINTS, SMALL_DESIGN_POINTS
from repro.topology import CouplingMap, get_topology
from repro.transpiler import transpile
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.passes import DecomposeMultiQubit, DenseLayout
from repro.transpiler.passes.vf2_layout import (
    VF2Layout,
    embedding_impossible,
    first_monomorphism,
    interaction_graph,
)
from repro.workloads import PAPER_WORKLOADS, build_workload


def line_circuit(num_qubits: int) -> QuantumCircuit:
    """Nearest-neighbour CX chain: embeds into anything with a Hamiltonian path."""
    circuit = QuantumCircuit(num_qubits, name="line")
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    return circuit


def _adjacency(graph: nx.Graph):
    """A networkx graph as the ``{node: neighbours}`` mapping the search takes."""
    return nx.to_dict_of_lists(graph)


def star_circuit(num_spokes: int) -> QuantumCircuit:
    """Qubit 0 interacts with every other qubit: needs a hub of matching degree."""
    circuit = QuantumCircuit(num_spokes + 1, name="star")
    for spoke in range(1, num_spokes + 1):
        circuit.cx(0, spoke)
    return circuit


class TestInteractionGraph:
    def test_nodes_cover_all_qubits(self):
        graph = interaction_graph(line_circuit(5))
        assert set(graph) == set(range(5))

    def test_edge_weights_count_gates(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cx(1, 2)
        graph = interaction_graph(circuit)
        assert graph[0][1] == graph[1][0] == 2
        assert graph[1][2] == 1

    def test_single_qubit_gates_create_no_edges(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.h(1)
        assert not any(interaction_graph(circuit).values())

    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    def test_matches_networkx_graph(self, workload):
        """Node order, adjacency order and weights of the graph VF2 once searched."""
        circuit = DecomposeMultiQubit().run(build_workload(workload, 10, seed=3), PropertySet())
        reference = reference_interaction_graph(circuit)
        graph = interaction_graph(circuit)
        assert {node: list(neighbours) for node, neighbours in graph.items()} == _adjacency(
            reference
        )
        assert graph == {
            node: {other: data["weight"] for other, data in reference.adj[node].items()}
            for node in reference
        }


class TestVF2Layout:
    def test_line_embeds_into_ring(self):
        device = CouplingMap.ring(6)
        properties = PropertySet()
        VF2Layout(device).run(line_circuit(5), properties)
        assert properties["perfect_layout"] is True
        layout = properties["layout"]
        for qubit in range(4):
            assert device.has_edge(layout[qubit], layout[qubit + 1])

    def test_star_does_not_embed_into_line(self):
        device = CouplingMap.line(6)
        properties = PropertySet()
        VF2Layout(device).run(star_circuit(4), properties)
        assert properties["perfect_layout"] is False
        # Fallback still produced a usable layout.
        assert "layout" in properties

    def test_strict_mode_raises_when_no_embedding(self):
        device = CouplingMap.line(6)
        with pytest.raises(RuntimeError):
            VF2Layout(device, strict=True).run(star_circuit(4), PropertySet())

    def test_circuit_larger_than_device_raises(self):
        with pytest.raises(ValueError):
            VF2Layout(CouplingMap.line(3)).run(line_circuit(5), PropertySet())

    def test_gateless_circuit_gets_trivial_layout(self):
        device = CouplingMap.line(4)
        circuit = QuantumCircuit(3)
        circuit.h(0)
        properties = PropertySet()
        VF2Layout(device).run(circuit, properties)
        assert properties["perfect_layout"] is True
        assert len(properties["layout"]) == 3

    def test_unused_qubits_receive_seats(self):
        # Only qubits 1 and 2 interact; qubit 0 is idle but still needs a seat.
        device = CouplingMap.line(4)
        circuit = QuantumCircuit(3)
        circuit.cx(1, 2)
        properties = PropertySet()
        VF2Layout(device).run(circuit, properties)
        layout = properties["layout"]
        physical = [layout[q] for q in range(3)]
        assert len(set(physical)) == 3

    def test_star_embeds_into_corral(self):
        """The paper's observation: rich SNAIL topologies admit SWAP-free layouts."""
        device = get_topology("Corral1,1", scale="small")
        properties = PropertySet()
        VF2Layout(device).run(star_circuit(4), properties)
        assert properties["perfect_layout"] is True


def _graph(num_nodes, edge_bits):
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    pairs = itertools.combinations(range(num_nodes), 2)
    graph.add_edges_from(pair for pair, bit in zip(pairs, edge_bits) if bit)
    return graph


small_graphs = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda bits: _graph(n, bits)
    )
)


class TestEmbeddingPrecheck:
    @given(pattern=small_graphs, device=small_graphs)
    @settings(max_examples=300, deadline=None)
    def test_rejection_means_no_monomorphism(self, pattern, device):
        if embedding_impossible(_adjacency(pattern), _adjacency(device)):
            assert reference_first_monomorphism(device, pattern) is None

    def test_complete_pattern_rejected_on_sparse_device(self):
        device = get_topology("Hypercube", scale="large").adjacency()
        assert embedding_impossible(_adjacency(nx.complete_graph(16)), device)

    def test_path_into_ring_not_rejected(self):
        assert not embedding_impossible(
            _adjacency(nx.path_graph(5)), _adjacency(nx.cycle_graph(6))
        )

    def test_degree_sequence_catches_what_counts_miss(self):
        # Same node and edge counts, but the star needs a degree-4 hub.
        assert embedding_impossible(_adjacency(nx.star_graph(4)), _adjacency(nx.cycle_graph(5)))


def _oracle_layout(circuit, coupling_map):
    """An unconditional VF2 search on the pass's pattern, else the dense fallback."""
    pattern = reference_interaction_graph(circuit, DAGCircuit(circuit).two_qubit_interactions())
    assert pattern.number_of_edges() > 0
    mapping = reference_first_monomorphism(coupling_map.graph, pattern)
    if mapping is not None:
        return {virtual: physical for physical, virtual in mapping.items()}, True
    properties = PropertySet()
    DenseLayout(coupling_map).run(circuit, properties)
    return properties["layout"].to_dict(), False


PARITY_GRIDS = [
    pytest.param(point, "small", PAPER_WORKLOADS, (6, 10), id=f"small-{point.label}")
    for point in SMALL_DESIGN_POINTS
] + [
    pytest.param(point, "large", ("QFT", "QAOAVanilla"), (16,), id=f"large-{point.label}")
    for point in LARGE_DESIGN_POINTS
]


class TestPrecheckParity:
    """The pre-check never changes a layout: the pass equals an unconditional search."""

    @pytest.mark.parametrize("point, scale, workloads, sizes", PARITY_GRIDS)
    def test_layout_matches_unconditional_search(self, point, scale, workloads, sizes):
        coupling_map = point.target(scale).coupling_map
        for workload in workloads:
            for size in sizes:
                circuit = DecomposeMultiQubit().run(
                    build_workload(workload, size, seed=7), PropertySet()
                )
                properties = PropertySet()
                VF2Layout(coupling_map).run(circuit, properties)
                layout, perfect = _oracle_layout(circuit, coupling_map)
                assert properties["perfect_layout"] is perfect, (workload, size)
                assert properties["layout"].to_dict() == layout, (workload, size)


def _shuffled_graph(rng, num_nodes, edge_probability):
    """Random simple graph on 0..n-1 with shuffled node and edge insertion order.

    Insertion order is what makes adjacency order differ from sorted order,
    and the search must follow adjacency order as networkx does.
    """
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    edges = [
        (a, b) if rng.random() < 0.5 else (b, a)
        for a, b in itertools.combinations(range(num_nodes), 2)
        if rng.random() < edge_probability
    ]
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


def _relabelled_shuffled(rng, num_nodes, edges):
    """The graph on 0..n-1 with ``edges`` under a random relabelling, shuffled as above."""
    labels = list(range(num_nodes))
    rng.shuffle(labels)
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    edges = [
        (labels[a], labels[b]) if rng.random() < 0.5 else (labels[b], labels[a])
        for a, b in edges
    ]
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


def _modular_device(rng):
    """2-4 cliques of 3-5 nodes, at most 12 in all, each joined to an earlier one by one bridge.

    The shape of the small SNAIL Tree and Tree-RR: dense modules and sparse
    links between them, where a partial mapping often strands the rest of
    the pattern in a module too small for it.
    """
    while True:
        modules = [rng.randint(3, 5) for _ in range(rng.randint(2, 4))]
        if sum(modules) <= 12:
            break
    members, edges, start = [], [], 0
    for size in modules:
        module = list(range(start, start + size))
        edges += itertools.combinations(module, 2)
        if members:
            edges.append((rng.choice(rng.choice(members)), rng.choice(module)))
        members.append(module)
        start += size
    return _relabelled_shuffled(rng, start, edges)


def _modular_pattern(rng, num_nodes):
    """A path, a triangle ladder (the CDKM adder's interactions) or a sparse random graph."""
    kind = rng.randrange(3)
    if kind == 0:
        edges = [(node, node + 1) for node in range(num_nodes - 1)]
    elif kind == 1:
        edges = [
            (node, node + step)
            for node in range(num_nodes)
            for step in (1, 2)
            if node + step < num_nodes
        ]
    else:
        return _shuffled_graph(rng, num_nodes, rng.uniform(0.1, 0.3))
    return _relabelled_shuffled(rng, num_nodes, edges)


def _same_embedding(found, expected):
    """Equal mappings with equal insertion order (``None`` only equals ``None``)."""
    if found is None or expected is None:
        return found is expected
    return list(found.items()) == list(expected.items())


class TestFirstMonomorphismParity:
    """The in-tree search returns networkx's first embedding, order included."""

    def test_random_pairs_match_networkx(self):
        # Devices of up to 10 nodes: at 8 or fewer, a search that inserts
        # new terminals in sorted order is indistinguishable from networkx.
        rng = random.Random(20231015)
        outcomes = {True: 0, False: 0}
        for trial in range(3000):
            device = _shuffled_graph(rng, rng.randint(6, 10), rng.uniform(0.3, 0.7))
            pattern = _shuffled_graph(
                rng, rng.randint(2, device.number_of_nodes()), rng.uniform(0.1, 0.4)
            )
            expected = reference_first_monomorphism(device, pattern)
            found = first_monomorphism(_adjacency(device), _adjacency(pattern))
            assert _same_embedding(found, expected), (trial, found, expected)
            outcomes[expected is not None] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_modular_devices_match_networkx(self):
        # The pruning rules cut most of the search on these devices; every
        # cut must hold no embedding, so the first one found is networkx's.
        rng = random.Random(20240611)
        outcomes = {True: 0, False: 0}
        for trial in range(400):
            device = _modular_device(rng)
            pattern = _modular_pattern(rng, rng.randint(3, device.number_of_nodes()))
            expected = reference_first_monomorphism(device, pattern)
            found = first_monomorphism(_adjacency(device), _adjacency(pattern))
            assert _same_embedding(found, expected), (trial, found, expected)
            outcomes[expected is not None] += 1
        assert min(outcomes.values()) >= 50, outcomes

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_l3_noisy_grid_searches_match_networkx(self, seed):
        searches = vf2_searches(seed)
        found = 0
        for label, device, pattern, reference_pattern in searches:
            expected = reference_first_monomorphism(device.graph, reference_pattern)
            result = first_monomorphism(device.adjacency(), pattern)
            assert _same_embedding(result, expected), label
            found += expected is not None
        assert 0 < found < len(searches)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "workload, topology",
        [
            ("GHZ", "Tree-RR"),
            ("TIMHamiltonian", "Tree-RR"),
            ("Adder", "Tree-RR"),
            ("Adder", "Tree"),
        ],
    )
    def test_points_left_out_of_l3_noisy_match_networkx(self, workload, topology):
        # 14-qubit points on the 20-qubit small trees, each one long search:
        # networkx needs 0.15-9 s here, the pruned search milliseconds.
        device = get_topology(topology, scale="small")
        circuit = DecomposeMultiQubit().run(build_workload(workload, 14, seed=1), PropertySet())
        interactions = DAGCircuit(circuit).two_qubit_interactions()
        pattern = interaction_graph(circuit, interactions)
        assert not embedding_impossible(pattern, device.adjacency())
        expected = reference_first_monomorphism(
            device.graph, reference_interaction_graph(circuit, interactions)
        )
        assert _same_embedding(first_monomorphism(device.adjacency(), pattern), expected)

    def test_empty_pattern_maps_nothing(self):
        assert first_monomorphism(_adjacency(nx.path_graph(3)), {}) == {}
        assert first_monomorphism({}, {}) == {}

    def test_pattern_larger_than_device(self):
        assert first_monomorphism(_adjacency(nx.path_graph(3)), _adjacency(nx.path_graph(4))) is None

    def test_device_nodes_must_be_indices(self):
        with pytest.raises(ValueError):
            first_monomorphism(_adjacency(nx.path_graph(["a", "b"])), _adjacency(nx.path_graph(2)))

    def test_deep_search_leaves_recursion_limit_alone(self):
        # networkx recurses once per pattern node and raises the limit to
        # 1.5x the pattern size for good; the explicit stack needs neither.
        limit = sys.getrecursionlimit()
        size = 2 * limit
        path = _adjacency(nx.path_graph(size))
        mapping = first_monomorphism(path, path)
        assert mapping == {node: node for node in range(size)}
        assert sys.getrecursionlimit() == limit


class TestVF2InTranspileFlow:
    def test_vf2_layout_method_available(self):
        device = get_topology("Corral1,2", scale="small")
        circuit = build_workload("GHZ", 8)
        result = transpile(circuit, device, basis_name="siswap", layout_method="vf2")
        assert result.metrics.total_2q > 0

    def test_perfect_embedding_needs_zero_swaps(self):
        device = get_topology("Corral1,1", scale="small")
        circuit = line_circuit(8)
        result = transpile(circuit, device, basis_name="siswap", layout_method="vf2")
        assert result.properties.get("perfect_layout") is True
        assert result.metrics.total_swaps == 0

    def test_vf2_never_worse_than_dense_on_swap_free_cases(self):
        device = get_topology("Hypercube", scale="small")
        circuit = line_circuit(10)
        vf2 = transpile(circuit, device, basis_name="siswap", layout_method="vf2")
        dense = transpile(circuit, device, basis_name="siswap", layout_method="dense")
        assert vf2.metrics.total_swaps <= dense.metrics.total_swaps
