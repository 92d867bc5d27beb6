"""Coupling map: the qubit-connectivity graph of a quantum computer.

The paper models a machine as a graph ``G = {V, E}`` whose vertices are
physical qubits and whose edges are pairs that can host a two-qubit gate
(Section 2.4).  :class:`CouplingMap` keeps that graph as plain adjacency
lists, in the order :class:`networkx.Graph` would list each qubit's
neighbours for the same couplings, with the analysis helpers the
evaluation needs (distance matrix, diameter, average distance, average
connectivity, shortest paths).  networkx is imported only when a caller
asks for :attr:`CouplingMap.graph`; ``tests/oracles.py`` holds the
graph queries to the networkx calls they replaced.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def _bfs_distance_matrix(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop distances by frontier BFS on a boolean adjacency matrix.

    Each iteration advances every source's frontier one hop with a single
    float32 matrix product, which NumPy hands to BLAS (the products count
    neighbours, small integers that float32 holds exactly), so the loop
    runs ``diameter`` times rather than ``n**2``.  Unreachable pairs stay
    ``inf``.
    """
    n = adjacency.shape[0]
    distance = np.full((n, n), np.inf)
    np.fill_diagonal(distance, 0.0)
    weights = adjacency.astype(np.float32)
    frontier = np.eye(n, dtype=np.float32)
    visited = np.eye(n, dtype=bool)
    hops = 0
    while True:
        hops += 1
        reached = (frontier @ weights > 0) & ~visited
        if not reached.any():
            return distance
        distance[reached] = hops
        visited |= reached
        frontier = reached.astype(np.float32)


def _bfs_level(
    adjacency: Sequence[Sequence[int]],
    level: List[int],
    parents: Dict[int, Optional[int]],
    opposite: Dict[int, Optional[int]],
) -> Tuple[List[int], Optional[int]]:
    """Expand one side of a bidirectional BFS by one level.

    Returns the next fringe and the first node the other side (``opposite``)
    has reached, or ``None``; ``parents`` gains each newly reached node's
    parent.
    """
    fringe: List[int] = []
    for node in level:
        for other in adjacency[node]:
            if other not in parents:
                parents[other] = node
                fringe.append(other)
            if other in opposite:
                return fringe, other
    return fringe, None


class CouplingMap:
    """Undirected qubit-connectivity graph with cached distance queries."""

    def __init__(
        self,
        edges: Iterable[Tuple[int, int]],
        num_qubits: Optional[int] = None,
        name: str = "coupling",
    ):
        edge_list = [(int(a), int(b)) for a, b in edges]
        if num_qubits is None:
            num_qubits = max((max(a, b) for a, b in edge_list), default=-1) + 1
        self._num_qubits = n = int(num_qubits)
        self._name = name
        # Each qubit's neighbours in the order its couplings first appear,
        # which is the adjacency order networkx.Graph.add_edges_from gives;
        # routing escapes, VF2 and subgraph() depend on it.
        adjacency: List[List[int]] = [[] for _ in range(n)]
        self._couplings: List[Tuple[int, int]] = []  # distinct, as first given
        seen = set()
        for a, b in edge_list:
            if a == b:
                raise ValueError("self-loops are not valid couplings")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"coupling ({a}, {b}) names a qubit outside 0..{n - 1}")
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                self._couplings.append((a, b))
                adjacency[a].append(b)
                adjacency[b].append(a)
        self._adjacency_lists = tuple(tuple(neighbours) for neighbours in adjacency)
        self._graph: Any = None  # networkx view, built by the graph property
        self._distance: Optional[np.ndarray] = None
        self._adjacency: Optional[np.ndarray] = None
        self._neighbor_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._swap_tables: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._densest_cache: Dict[int, List[int]] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Any, name: str = "coupling") -> "CouplingMap":
        """Build from an arbitrary networkx graph (nodes are relabelled 0..n-1).

        Nodes are numbered in ``str`` order and edges taken in the graph's
        own ``edges()`` order; only those two methods are called, so this
        needs no networkx import of its own.
        """
        mapping = {
            node: index
            for index, node in enumerate(sorted(graph.nodes(), key=str))
        }
        edges = [(mapping[a], mapping[b]) for a, b in graph.edges()]
        return cls(edges, num_qubits=len(mapping), name=name)

    @classmethod
    def full(cls, num_qubits: int, name: str = "full") -> "CouplingMap":
        """All-to-all connectivity (useful as an idealised baseline)."""
        edges = [
            (a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)
        ]
        return cls(edges, num_qubits=num_qubits, name=name)

    @classmethod
    def line(cls, num_qubits: int, name: str = "line") -> "CouplingMap":
        """A 1-D chain of qubits."""
        edges = [(i, i + 1) for i in range(num_qubits - 1)]
        return cls(edges, num_qubits=num_qubits, name=name)

    @classmethod
    def ring(cls, num_qubits: int, name: str = "ring") -> "CouplingMap":
        """A 1-D ring of qubits."""
        edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
        return cls(edges, num_qubits=num_qubits, name=name)

    # -- basic structure -------------------------------------------------------

    @property
    def name(self) -> str:
        """Topology name used in reports."""
        return self._name

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits."""
        return self._num_qubits

    @property
    def graph(self) -> Any:
        """The couplings as a ``networkx.Graph`` (treat as read-only).

        Built on first use, with the same nodes, edges and adjacency order
        as :meth:`adjacency`; this is the one place that imports networkx.
        """
        if self._graph is None:
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(range(self._num_qubits))
            graph.add_edges_from(self._couplings)
            self._graph = graph
        return self._graph

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """The coupling graph as ``{qubit: neighbours}`` (a fresh dict per call).

        Qubits come in order and each qubit's neighbours in the order its
        couplings were first given: the node and adjacency orders of
        :attr:`graph`, without networkx.
        """
        return dict(enumerate(self._adjacency_lists))

    def edges(self) -> List[Tuple[int, int]]:
        """Sorted list of couplings."""
        return sorted((min(a, b), max(a, b)) for a, b in self._couplings)

    def num_edges(self) -> int:
        """Number of couplings."""
        return len(self._couplings)

    def _check_qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self._num_qubits:
            raise ValueError(f"qubit {qubit} is outside 0..{self._num_qubits - 1}")
        return qubit

    def neighbors(self, qubit: int) -> Tuple[int, ...]:
        """Physical qubits coupled to ``qubit``."""
        return tuple(sorted(self._adjacency_lists[self._check_qubit(qubit)]))

    def degree(self, qubit: int) -> int:
        """Number of couplings incident on ``qubit``."""
        return len(self._adjacency_lists[self._check_qubit(qubit)])

    def has_edge(self, qubit_a: int, qubit_b: int) -> bool:
        """True if the two qubits are directly coupled."""
        return (
            0 <= qubit_a < self._num_qubits and qubit_b in self._adjacency_lists[qubit_a]
        )

    def is_connected(self) -> bool:
        """True if every qubit can reach every other qubit."""
        if not self._num_qubits:
            raise ValueError("connectivity is undefined for a coupling map without qubits")
        return bool(np.isfinite(self.distance_matrix()[0]).all())

    # -- metrics ---------------------------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix (cached, read-only).

        ``adjacency_matrix()[a, b]`` answers :meth:`has_edge` without a
        graph lookup — the form the vectorized routers consume.
        """
        if self._adjacency is None:
            n = self._num_qubits
            adjacency = np.zeros((n, n), dtype=bool)
            for a, b in self._couplings:
                adjacency[a, b] = True
                adjacency[b, a] = True
            adjacency.setflags(write=False)
            self._adjacency = adjacency
        return self._adjacency

    def neighbor_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR neighbor lists ``(indptr, indices)`` (cached, read-only).

        The neighbors of qubit ``q`` are
        ``indices[indptr[q]:indptr[q + 1]]``, sorted ascending — the same
        order :meth:`neighbors` returns.
        """
        if self._neighbor_csr is None:
            adjacency = self.adjacency_matrix()
            counts = adjacency.sum(axis=1)
            indptr = np.zeros(self._num_qubits + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indices = np.nonzero(adjacency)[1].astype(np.int64)
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._neighbor_csr = (indptr, indices)
        return self._neighbor_csr

    def swap_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge table and SWAP tables ``(edge_pairs, incidence, permutations)``.

        ``edge_pairs`` is the (E, 2) array of couplings in lexicographic
        ``(min, max)`` order (edge id = row index).  ``incidence`` is the
        (n, E) boolean qubit x edge matrix, so the edges touching a set of
        qubits are ``incidence[qubits].any(axis=0)``, in ascending edge id.
        ``permutations[e]`` maps every physical qubit to the qubit it lands
        on after a SWAP on edge ``e``.  Cached and read-only: the routers
        select candidate SWAPs and remap pairs with one gather each instead
        of per-qubit slices and nested ``where`` calls.
        """
        if self._swap_tables is None:
            edge_pairs = np.asarray(self.edges(), dtype=np.int64).reshape(-1, 2)
            edge_ids = np.arange(len(edge_pairs))
            incidence = np.zeros((self._num_qubits, len(edge_pairs)), dtype=bool)
            incidence[edge_pairs[:, 0], edge_ids] = True
            incidence[edge_pairs[:, 1], edge_ids] = True
            permutations = np.tile(
                np.arange(self._num_qubits, dtype=np.int64), (len(edge_pairs), 1)
            )
            permutations[edge_ids, edge_pairs[:, 0]] = edge_pairs[:, 1]
            permutations[edge_ids, edge_pairs[:, 1]] = edge_pairs[:, 0]
            for array in (edge_pairs, incidence, permutations):
                array.setflags(write=False)
            self._swap_tables = (edge_pairs, incidence, permutations)
        return self._swap_tables

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances (hops); cached, read-only.

        Computed by a vectorized frontier BFS over :meth:`adjacency_matrix`
        instead of networkx dict-of-dicts.  Connected graphs are stored as
        compact ``uint16`` — the form every router gathers from millions
        of times per sweep; a disconnected graph keeps the float matrix so
        unreachable pairs stay ``inf``.
        """
        if self._distance is None:
            matrix = _bfs_distance_matrix(self.adjacency_matrix())
            if matrix.size and np.all(np.isfinite(matrix)) and matrix.max() < 2**16:
                matrix = matrix.astype(np.uint16)
            matrix.setflags(write=False)
            self._distance = matrix
        return self._distance

    def distance(self, qubit_a: int, qubit_b: int) -> int:
        """Shortest-path distance between two qubits."""
        return int(self.distance_matrix()[qubit_a, qubit_b])

    def diameter(self) -> float:
        """Largest shortest-path distance (paper Tables 1-2, "Dia.")."""
        return float(np.max(self.distance_matrix()))

    def average_distance(self) -> float:
        """Mean pairwise distance (Tables 1-2, "AvgD").

        Follows the paper's convention of averaging over *all* ordered
        pairs including a qubit with itself (denominator ``n^2``); with the
        more common ``n (n - 1)`` denominator the published Table-1 values
        (e.g. 2.5 for the 4x4 Square-Lattice) are not reproduced.
        """
        matrix = self.distance_matrix()
        n = self._num_qubits
        if n < 1:
            return 0.0
        total = np.sum(matrix) - np.trace(matrix)
        return float(total / (n * n))

    def average_connectivity(self) -> float:
        """Mean qubit degree (Tables 1-2, "AvgC")."""
        degrees = [len(neighbours) for neighbours in self._adjacency_lists]
        return float(np.mean(degrees)) if degrees else 0.0

    def shortest_path(self, qubit_a: int, qubit_b: int) -> List[int]:
        """One shortest path between two qubits (inclusive).

        A bidirectional BFS that returns the path ``networkx.shortest_path``
        returns: each round expands the smaller fringe one level (forward
        first on a tie), and the search stops at the first node both
        searches have reached.
        """
        source, target = self._check_qubit(qubit_a), self._check_qubit(qubit_b)
        pred: Dict[int, Optional[int]] = {source: None}
        succ: Dict[int, Optional[int]] = {target: None}
        meet = source if source == target else None
        forward, reverse = [source], [target]
        while meet is None and forward and reverse:
            if len(forward) <= len(reverse):
                forward, meet = _bfs_level(self._adjacency_lists, forward, pred, succ)
            else:
                reverse, meet = _bfs_level(self._adjacency_lists, reverse, succ, pred)
        if meet is None:
            raise ValueError(f"no path between qubits {source} and {target}")
        path: List[int] = []
        node: Optional[int] = meet
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[meet]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def subgraph(self, qubits: Sequence[int], name: Optional[str] = None) -> "CouplingMap":
        """Induced subgraph on the given qubits (relabelled 0..k-1).

        Couplings are taken in ``graph.edges()`` order (each once, from its
        lower qubit), so the subgraph's adjacency order is networkx's.
        """
        qubits = list(qubits)
        index = {q: i for i, q in enumerate(qubits)}
        edges = [
            (index[a], index[b])
            for a, neighbours in enumerate(self._adjacency_lists)
            for b in neighbours
            if a < b and a in index and b in index
        ]
        return CouplingMap(edges, num_qubits=len(qubits), name=name or f"{self._name}_sub")

    def densest_subset(self, size: int) -> List[int]:
        """Greedy densest connected subset of ``size`` qubits.

        Used by the dense layout pass: starting from the highest-degree
        qubit, repeatedly add the frontier qubit with the most neighbours
        already inside the subset.  Every candidate subset grows with
        incremental NumPy inside-neighbour counters over
        :meth:`adjacency_matrix`; the greedy tie-break key ends in ``-q``,
        so every choice is unique.  Results are memoized per ``size`` — the
        subset for a device is a pure function of its topology, and one
        sweep asks for the same few sizes thousands of times.
        """
        if size > self._num_qubits:
            raise ValueError("requested subset larger than the device")
        if size == self._num_qubits:
            return list(range(self._num_qubits))
        cached = self._densest_cache.get(size)
        if cached is None:
            cached = self._densest_cache[size] = self._densest_subset_vector(size)
        return list(cached)

    def _densest_subset_vector(self, size: int) -> List[int]:
        """Vectorized greedy growth: one argmax over the frontier per step.

        The greedy choice maximises ``(inside_neighbours, degree, -q)``;
        the three integer keys are packed into a single int64 score so the
        whole frontier is compared in one reduction.
        """
        n = self._num_qubits
        adjacency = self.adjacency_matrix().astype(np.int64)
        degrees = adjacency.sum(axis=1)
        seeds = np.argsort(-degrees, kind="stable")[: max(4, n // 8)]
        # Pack (inside, degree, n - q) lexicographically; every component
        # is bounded by n, so base n + 1 keeps the packing collision-free.
        base = np.int64(n + 1)
        degree_and_index = degrees * base + (np.int64(n) - np.arange(n, dtype=np.int64))
        best_subset: Optional[np.ndarray] = None
        best_internal = -1
        for seed in seeds:
            in_subset = np.zeros(n, dtype=bool)
            inside = np.zeros(n, dtype=np.int64)
            in_subset[seed] = True
            inside += adjacency[seed]
            internal = 0
            for _ in range(size - 1):
                frontier = np.flatnonzero((inside > 0) & ~in_subset)
                if not len(frontier):
                    remaining = np.flatnonzero(~in_subset)
                    if not len(remaining):
                        break
                    frontier = remaining[:1]
                scores = inside[frontier] * (base * base) + degree_and_index[frontier]
                choice = int(frontier[np.argmax(scores)])
                internal += int(inside[choice])
                in_subset[choice] = True
                inside += adjacency[choice]
            if internal > best_internal:
                best_internal = internal
                best_subset = np.flatnonzero(in_subset)
        assert best_subset is not None
        return [int(q) for q in best_subset]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CouplingMap(name={self._name!r}, qubits={self._num_qubits}, "
            f"edges={self.num_edges()})"
        )
