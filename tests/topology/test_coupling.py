"""Tests for CouplingMap."""

import random

import networkx as nx
import numpy as np
import pytest
from oracles import reference_shortest_path

from repro.topology import CouplingMap
from repro.topology.registry import large_topologies, small_topologies


class TestConstruction:
    def test_from_edges(self):
        cmap = CouplingMap([(0, 1), (1, 2)])
        assert cmap.num_qubits == 3
        assert cmap.num_edges() == 2

    def test_explicit_num_qubits_allows_isolated(self):
        cmap = CouplingMap([(0, 1)], num_qubits=4)
        assert cmap.num_qubits == 4
        assert not cmap.is_connected()

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CouplingMap([(1, 1)])

    def test_qubit_beyond_num_qubits_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            CouplingMap([(0, 5)], num_qubits=3)

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError, match=r"\(-1, 2\)"):
            CouplingMap([(-1, 2)])

    def test_from_graph_relabels(self):
        graph = nx.Graph([("a", "b"), ("b", "c")])
        cmap = CouplingMap.from_graph(graph)
        assert cmap.num_qubits == 3
        assert cmap.is_connected()

    def test_full_line_ring_constructors(self):
        assert CouplingMap.full(5).num_edges() == 10
        assert CouplingMap.line(5).num_edges() == 4
        assert CouplingMap.ring(5).num_edges() == 5


class TestQueries:
    def test_neighbors_and_degree(self, grid_4x4):
        assert grid_4x4.degree(0) == 2  # corner
        assert grid_4x4.degree(5) == 4  # interior
        assert set(grid_4x4.neighbors(0)) == {1, 4}

    def test_has_edge_symmetric(self, grid_4x4):
        assert grid_4x4.has_edge(0, 1) and grid_4x4.has_edge(1, 0)
        assert not grid_4x4.has_edge(0, 5)

    def test_distance_matrix_symmetric(self, grid_4x4):
        matrix = grid_4x4.distance_matrix()
        assert np.allclose(matrix, matrix.T)
        assert matrix[0, 15] == 6

    def test_distance(self, grid_4x4):
        assert grid_4x4.distance(0, 3) == 3
        assert grid_4x4.distance(0, 0) == 0

    def test_shortest_path_endpoints(self, grid_4x4):
        path = grid_4x4.shortest_path(0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert len(path) == 7

    def test_edges_sorted_and_normalised(self):
        cmap = CouplingMap([(2, 1), (0, 1)])
        assert cmap.edges() == [(0, 1), (1, 2)]


def _registered_topologies():
    return [
        pytest.param(coupling_map, id=f"{scale}-{name}")
        for scale, registry in (("small", small_topologies()), ("large", large_topologies()))
        for name, coupling_map in registry.items()
    ]


class TestDistanceMatrix:
    @pytest.mark.parametrize("coupling_map", _registered_topologies())
    def test_bfs_matches_networkx(self, coupling_map):
        matrix = coupling_map.distance_matrix()
        assert matrix.dtype == np.uint16
        expected = np.zeros_like(matrix)
        for source, lengths in nx.all_pairs_shortest_path_length(coupling_map.graph):
            for target, length in lengths.items():
                expected[source, target] = length
        assert np.array_equal(matrix, expected)

    def test_disconnected_map_keeps_inf(self):
        cmap = CouplingMap([(0, 1), (2, 3)], num_qubits=5)
        matrix = cmap.distance_matrix()
        assert matrix.dtype == np.float64
        assert matrix[0, 1] == 1.0 and matrix[2, 3] == 1.0
        assert np.isinf(matrix[0, 2]) and np.isinf(matrix[4, 0]) and matrix[4, 4] == 0.0
        assert not matrix.flags.writeable

    def test_empty_map(self):
        assert CouplingMap([], num_qubits=0).distance_matrix().shape == (0, 0)


def _shuffled_map(seed):
    """A random graph whose edges arrive in random order and orientation."""
    rng = random.Random(seed)
    edges = [
        (a, b) if rng.random() < 0.5 else (b, a)
        for a in range(12)
        for b in range(a + 1, 12)
        if rng.random() < 0.3
    ]
    rng.shuffle(edges)
    return CouplingMap(edges + edges[:3], num_qubits=12)


_PARITY_MAPS = _registered_topologies() + [
    pytest.param(_shuffled_map(seed), id=f"shuffled-{seed}") for seed in range(4)
]


class TestNetworkxParity:
    """The graph queries answer what networkx answers on ``CouplingMap.graph``."""

    @pytest.mark.parametrize("coupling_map", _PARITY_MAPS)
    def test_adjacency_order(self, coupling_map):
        adjacency = {q: list(neighbours) for q, neighbours in coupling_map.adjacency().items()}
        assert adjacency == nx.to_dict_of_lists(coupling_map.graph)

    @pytest.mark.parametrize("coupling_map", _PARITY_MAPS)
    def test_structure_queries(self, coupling_map):
        graph = coupling_map.graph
        assert coupling_map.num_edges() == graph.number_of_edges()
        assert coupling_map.edges() == sorted(tuple(sorted(edge)) for edge in graph.edges())
        assert coupling_map.is_connected() == nx.is_connected(graph)
        for qubit in range(coupling_map.num_qubits):
            assert coupling_map.degree(qubit) == graph.degree[qubit]
            assert coupling_map.neighbors(qubit) == tuple(sorted(graph.neighbors(qubit)))
            for other in range(coupling_map.num_qubits):
                assert coupling_map.has_edge(qubit, other) == graph.has_edge(qubit, other)

    @pytest.mark.parametrize("coupling_map", _registered_topologies())
    def test_shortest_path_every_ordered_pair(self, coupling_map):
        for source in range(coupling_map.num_qubits):
            for target in range(coupling_map.num_qubits):
                assert coupling_map.shortest_path(source, target) == reference_shortest_path(
                    coupling_map, source, target
                ), (source, target)

    @pytest.mark.parametrize("coupling_map", _registered_topologies())
    def test_subgraph_keeps_edge_order(self, coupling_map):
        qubits = coupling_map.densest_subset(coupling_map.num_qubits // 2)[::-1]
        index = {q: i for i, q in enumerate(qubits)}
        expected = CouplingMap(
            [(index[a], index[b]) for a, b in coupling_map.graph.edges() if a in index and b in index],
            num_qubits=len(qubits),
        )
        assert coupling_map.subgraph(qubits).adjacency() == expected.adjacency()

    def test_disconnected_and_out_of_range_queries(self):
        cmap = CouplingMap([(0, 1), (2, 3)], num_qubits=5)
        assert not cmap.is_connected()
        assert not cmap.has_edge(0, 7) and not cmap.has_edge(-1, 0)
        with pytest.raises(ValueError):
            cmap.shortest_path(0, 2)
        with pytest.raises(ValueError):
            cmap.degree(5)
        with pytest.raises(ValueError):
            cmap.neighbors(-1)


class TestMetrics:
    def test_line_metrics(self):
        line = CouplingMap.line(4)
        assert line.diameter() == 3
        assert line.average_connectivity() == pytest.approx(1.5)

    def test_full_graph_diameter(self):
        assert CouplingMap.full(6).diameter() == 1

    def test_average_distance_uses_paper_convention(self):
        # 4x4 grid: the paper reports AvgD = 2.5 (n^2 denominator).
        from repro.topology import square_lattice

        assert square_lattice(4, 4).average_distance() == pytest.approx(2.5)

    def test_ring_average_connectivity(self):
        assert CouplingMap.ring(8).average_connectivity() == pytest.approx(2.0)


class TestSubsets:
    def test_subgraph_relabels(self, grid_4x4):
        sub = grid_4x4.subgraph([0, 1, 2, 3])
        assert sub.num_qubits == 4
        assert sub.num_edges() == 3

    def test_densest_subset_size(self, grid_4x4):
        subset = grid_4x4.densest_subset(4)
        assert len(subset) == 4

    def test_densest_subset_is_connected(self, grid_4x4):
        subset = grid_4x4.densest_subset(6)
        assert grid_4x4.subgraph(subset).is_connected()

    def test_densest_subset_full_size(self, grid_4x4):
        assert grid_4x4.densest_subset(16) == list(range(16))

    def test_densest_subset_too_large(self, grid_4x4):
        with pytest.raises(ValueError):
            grid_4x4.densest_subset(17)

    def test_densest_subset_prefers_dense_regions(self, corral_16q):
        # In the Corral every 4-qubit module is a clique; a greedy densest
        # subset of size 4 should recover (close to) a clique.
        subset = corral_16q.densest_subset(4)
        internal = corral_16q.subgraph(subset).num_edges()
        assert internal >= 5
