"""Planar lattice topologies used by today's commercial machines.

These are the comparison baselines of the paper (Section 2.4.4, Fig. 2):

* Square-Lattice — Google-style nearest-neighbour grid;
* Hex-Lattice — hexagonal (degree-3) lattice;
* Heavy-Hex — IBM's current topology: a hexagonal lattice with an extra
  qubit inserted on every edge;
* Lattice + alternating diagonals — IBM's early "Penguin"-era attempt at a
  denser planar lattice.

The 16/20-qubit and 84-qubit instances used in the paper's Tables 1 and 2
are provided by :mod:`repro.topology.registry`.

The hex families are built on a dict-of-dicts graph (node -> neighbours,
both in insertion order) that repeats networkx's construction step for
step: ``hexagonal_lattice_graph``, edge subdivision, a BFS trim from a
graph centre, the induced subgraph and ``CouplingMap.from_graph``'s
relabelling.  Every qubit therefore gets networkx's edges and adjacency
order, which routing and VF2 tie-breaks depend on; ``tests/oracles.py``
keeps the networkx construction as the parity oracle.  One step differs
on purpose: the induced subgraph always keeps the parent's node order,
where networkx's subgraph copy iterates a set of kept nodes when fewer
than half are kept, whose order depends on ``PYTHONHASHSEED`` for the
heavy-hex midpoint labels.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.topology.coupling import CouplingMap

#: A graph as ``{node: {neighbour: None}}``; both levels keep insertion order.
_Graph = Dict[Hashable, Dict[Hashable, None]]


def _grid_index(row: int, col: int, cols: int) -> int:
    return row * cols + col


def square_lattice(rows: int, cols: int, name: Optional[str] = None) -> CouplingMap:
    """Nearest-neighbour square lattice of ``rows x cols`` qubits."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges: List[Tuple[int, int]] = []
    for row in range(rows):
        for col in range(cols):
            here = _grid_index(row, col, cols)
            if col + 1 < cols:
                edges.append((here, _grid_index(row, col + 1, cols)))
            if row + 1 < rows:
                edges.append((here, _grid_index(row + 1, col, cols)))
    return CouplingMap(
        edges, num_qubits=rows * cols, name=name or f"square-lattice-{rows}x{cols}"
    )


def square_lattice_alt_diagonals(
    rows: int, cols: int, name: Optional[str] = None
) -> CouplingMap:
    """Square lattice with both diagonals added on alternating tiles.

    Mirrors IBM's early "Penguin" layouts (paper Fig. 2c): every other unit
    cell of the grid (checkerboard pattern) receives its two diagonal
    couplings.
    """
    base = square_lattice(rows, cols)
    edges = list(base.edges())
    for row in range(rows - 1):
        for col in range(cols - 1):
            if (row + col) % 2 == 0:
                a = _grid_index(row, col, cols)
                b = _grid_index(row + 1, col + 1, cols)
                c = _grid_index(row, col + 1, cols)
                d = _grid_index(row + 1, col, cols)
                edges.append((a, b))
                edges.append((c, d))
    return CouplingMap(
        edges,
        num_qubits=rows * cols,
        name=name or f"lattice-altdiag-{rows}x{cols}",
    )


def _add_edge(graph: _Graph, a: Hashable, b: Hashable) -> None:
    """``networkx.Graph.add_edge``: new nodes join in order, a known edge keeps its place."""
    graph.setdefault(a, {})[b] = None
    graph.setdefault(b, {})[a] = None


def _remove_node(graph: _Graph, node: Hashable) -> None:
    for other in graph.pop(node):
        del graph[other][node]


def _edges(graph: _Graph) -> Iterator[Tuple[Hashable, Hashable]]:
    """Each edge once, in the order ``networkx.Graph.edges()`` yields it."""
    done = set()
    for node, neighbours in graph.items():
        for other in neighbours:
            if other not in done:
                yield node, other
        done.add(node)


def _hexagonal_lattice(rows: int, cols: int) -> _Graph:
    """``networkx.hexagonal_lattice_graph(rows, cols)``: nodes ``(column, row)``."""
    height = 2 * rows
    graph: _Graph = {}
    for i in range(cols + 1):
        for j in range(height + 1):
            _add_edge(graph, (i, j), (i, j + 1))
    for i in range(cols):
        for j in range(height + 2):
            if i % 2 == j % 2:
                _add_edge(graph, (i, j), (i + 1, j))
    # The two corner nodes with a single edge.
    _remove_node(graph, (0, height + 1))
    _remove_node(graph, (cols, (height + 1) * (cols % 2)))
    return graph


def _trim_to_size(graph: _Graph, num_qubits: int) -> _Graph:
    """Keep ``num_qubits`` nodes forming a compact connected patch.

    Nodes are taken in BFS order from a graph centre (a node of minimum
    eccentricity), which yields a roughly round patch instead of a long
    strip and therefore keeps the trimmed lattice's diameter close to that
    of an ideally shaped instance.
    """
    if len(graph) < num_qubits:
        raise ValueError(
            f"parent lattice has only {len(graph)} nodes, cannot trim to {num_qubits}"
        )
    # The first node in ``str`` order with the least eccentricity.
    eccentricity = _relabelled(graph, "parent").distance_matrix().max(axis=1)
    start = sorted(graph, key=str)[int(eccentricity.argmin())]
    order = [start]
    reached = {start}
    for node in order:
        for other in graph[node]:
            if other not in reached:
                reached.add(other)
                order.append(other)
    keep = set(order[:num_qubits])
    return {
        node: {other: None for other in neighbours if other in keep}
        for node, neighbours in graph.items()
        if node in keep
    }


def _relabelled(graph: _Graph, name: str) -> CouplingMap:
    """``CouplingMap.from_graph`` for a dict-of-dicts graph."""
    index = {node: position for position, node in enumerate(sorted(graph, key=str))}
    return CouplingMap(
        [(index[a], index[b]) for a, b in _edges(graph)], num_qubits=len(index), name=name
    )


def hex_lattice(num_qubits: int, name: Optional[str] = None) -> CouplingMap:
    """Hexagonal (degree-<=3) lattice trimmed to ``num_qubits`` qubits."""
    rows = cols = 1
    while True:
        candidate = _hexagonal_lattice(rows, cols)
        if len(candidate) >= num_qubits:
            break
        if rows <= cols:
            rows += 1
        else:
            cols += 1
    trimmed = _trim_to_size(candidate, num_qubits)
    return _relabelled(trimmed, name or f"hex-lattice-{num_qubits}")


def heavy_hex_lattice(num_qubits: int, name: Optional[str] = None) -> CouplingMap:
    """Heavy-hex lattice (hexagonal lattice with edge qubits), trimmed.

    The "heavy" construction inserts one additional qubit on every edge of
    a hexagonal lattice, which is how IBM describes its current topology
    [Chamberland et al., PRX 10, 011022 (2020)].
    """
    rows = cols = 1
    while True:
        heavy = _subdivide_edges(_hexagonal_lattice(rows, cols))
        if len(heavy) >= num_qubits:
            break
        if rows <= cols:
            rows += 1
        else:
            cols += 1
    trimmed = _trim_to_size(heavy, num_qubits)
    return _relabelled(trimmed, name or f"heavy-hex-{num_qubits}")


def _subdivide_edges(graph: _Graph) -> _Graph:
    """Insert one new node in the middle of every edge of ``graph``."""
    heavy: _Graph = {node: {} for node in graph}
    for index, (a, b) in enumerate(sorted(_edges(graph), key=str)):
        middle = ("edge", index)
        heavy[middle] = {}
        _add_edge(heavy, a, middle)
        _add_edge(heavy, middle, b)
    return heavy


def hypercube(dimension: int, name: Optional[str] = None) -> CouplingMap:
    """The ``dimension``-dimensional hypercube of ``2**dimension`` qubits."""
    if dimension < 1:
        raise ValueError("hypercube dimension must be >= 1")
    num_qubits = 2 ** dimension
    edges = []
    for node in range(num_qubits):
        for bit in range(dimension):
            other = node ^ (1 << bit)
            if other > node:
                edges.append((node, other))
    return CouplingMap(edges, num_qubits=num_qubits, name=name or f"hypercube-{dimension}d")


def trimmed_hypercube(num_qubits: int, name: Optional[str] = None) -> CouplingMap:
    """A hypercube reduced to ``num_qubits`` nodes.

    The paper scales the hypercube down to 84 qubits while "maintaining the
    regular structure".  We keep the ``num_qubits`` smallest binary codes of
    the enclosing hypercube and the edges between them, which preserves the
    recursive sub-cube structure (codes 0..2^k-1 always form a full
    k-dimensional sub-cube) and keeps the graph connected.
    """
    dimension = 1
    while 2 ** dimension < num_qubits:
        dimension += 1
    edges = []
    for node in range(num_qubits):
        for bit in range(dimension):
            other = node ^ (1 << bit)
            if node < other < num_qubits:
                edges.append((node, other))
    return CouplingMap(
        edges, num_qubits=num_qubits, name=name or f"hypercube-{num_qubits}"
    )
