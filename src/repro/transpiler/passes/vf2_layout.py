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

The search itself is :func:`first_monomorphism`, a depth-first VF2
monomorphism search over plain Python lists.  It visits candidate pairs in
the order of networkx's VF2 matcher and so returns the same first
embedding, hence the same layout; ``tests/oracles.py`` keeps the networkx
call as its parity oracle.  It does not descend into a pair that cannot
be part of a complete embedding (a device node with too few neighbours,
triangles or common neighbours, or one cut off from too few free device
nodes), which on modular devices such as the SNAIL trees removes most of
the search without changing which embedding comes first.

Graphs here are adjacency mappings, ``{node: neighbours}``: the mapping's
order is the node order and each node's neighbours come in adjacency
order, the two orders a networkx graph would carry.  The device graph is
the coupling map's :meth:`~repro.topology.coupling.CouplingMap.adjacency`;
the pattern is :func:`interaction_graph`.  No networkx graph is built.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.topology.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import PropertySet, TranspilerPass
from repro.transpiler.passes.layout_passes import DenseLayout

#: ``{node: neighbours}``: node order, then each node's adjacency order.
AdjacencyMapping = Mapping[Hashable, Iterable[Hashable]]


def interaction_graph(
    circuit: QuantumCircuit,
    interactions: Optional[Mapping[Tuple[int, int], int]] = None,
) -> Dict[int, Dict[int, int]]:
    """The circuit's two-qubit interaction graph, ``{qubit: {neighbour: gate count}}``.

    Every qubit is a node, idle ones included, and each qubit lists its
    partners in the order of the interaction counts, the adjacency order
    ``networkx.Graph.add_edge`` would give.  ``interactions`` lets callers
    that already hold the counts (e.g. from a shared
    :class:`~repro.circuits.dag.DAGCircuit`) skip the circuit walk.
    """
    graph: Dict[int, Dict[int, int]] = {qubit: {} for qubit in range(circuit.num_qubits)}
    if interactions is None:
        interactions = circuit.two_qubit_interactions()
    for (a, b), count in interactions.items():
        graph[a][b] = graph[b][a] = count
    return graph


def _degrees_descending(graph: AdjacencyMapping) -> List[int]:
    return sorted((len(neighbours) for neighbours in graph.values()), reverse=True)


def embedding_impossible(pattern: AdjacencyMapping, device: AdjacencyMapping) -> bool:
    """True when ``pattern`` provably has no subgraph monomorphism into ``device``.

    An embedding maps pattern nodes injectively onto device nodes and
    pattern edges onto device edges, so the device needs at least as many
    nodes and edges, and each pattern node v lands on a device node of
    degree >= deg(v).  The k busiest pattern nodes land on k distinct
    device nodes, hence the pattern's k-th largest degree is at most the
    device's k-th largest degree, for every k.  ``False`` proves nothing:
    the VF2 search decides then.  Both graphs are simple, so a degree sum
    is twice the edge count.
    """
    needed, available = _degrees_descending(pattern), _degrees_descending(device)
    if len(needed) > len(available) or sum(needed) > sum(available):
        return True
    return any(a > b for a, b in zip(needed, available))


def first_monomorphism(
    device: AdjacencyMapping, pattern: AdjacencyMapping
) -> Optional[Dict[int, int]]:
    """The first subgraph monomorphism of ``pattern`` into ``device``, or None.

    The result maps device nodes to pattern nodes and equals, insertion
    order included, the first mapping networkx's VF2 matcher yields from
    ``subgraph_monomorphisms_iter()`` for networkx graphs with the same
    node and adjacency orders as ``(device, pattern)`` (its ``"mono"``
    mode; the test oracle ``reference_first_monomorphism``), because the
    search visits candidate pairs in its order:

    * When both terminal sets are non-empty, the candidates are the
      unmapped device terminals in the order they became terminals, each
      paired with the smallest unmapped pattern terminal (pattern node
      order).  Otherwise they are the unmapped device nodes in device node
      order, paired with the smallest unmapped pattern node.
    * A pair is feasible when every mapped pattern neighbour of the
      pattern node maps onto a device neighbour of the device node.
    * A step makes the unmapped neighbours of the new device node
      terminals.  networkx appends them in the iteration order of a set it
      rebuilds from the unmapped neighbours of every mapped device node,
      read in adjacency order; that set is rebuilt here too whenever the
      order matters, i.e. when a step adds two or more terminals.

    A feasible pair (device node d, pattern node t) is skipped without
    descending when a necessary condition of a completion fails, because
    a complete embedding f with f(t) = d maps t's neighbours, triangles
    and remaining component injectively around d:

    * deg(d) >= deg(t);
    * d lies on at least as many triangles as t, and for every mapped
      pattern neighbour o of t the device edge (d, f(o)) has at least as
      many common neighbours as the pattern edge (t, o);
    * the unmapped pattern nodes reachable from t through unmapped
      pattern nodes are no more than the unmapped device nodes reachable
      from d through unmapped device nodes.

    Each rule removes only subtrees that hold no complete embedding, so
    the search meets the surviving candidates in the same order and
    returns the same first embedding.  The reachability count costs
    O(n + E) per feasible pair.  The device side is counted first and
    stops at the number of unmapped pattern nodes, which settles most
    pairs; the pattern side is counted only when the device side falls
    short, once per frame.

    The pattern's terminals are only ever asked for their minimum, so they
    are kept as a membership list that each step grows and its undo
    shrinks.  The search is an explicit stack: it needs no recursion
    limit and leaves no global state behind.  Both graphs are simple
    (no self-loops, as :class:`~repro.topology.coupling.CouplingMap` and
    :func:`interaction_graph` guarantee) and the device's nodes are the
    integers ``0..n-1``, in any order.
    """
    pattern_nodes = list(pattern)
    size = len(pattern_nodes)
    if size == 0:
        return {}
    position = {node: index for index, node in enumerate(pattern_nodes)}
    pattern_adjacency = [[position[other] for other in pattern[node]] for node in pattern_nodes]
    device_order = list(device)
    if sorted(device_order) != list(range(len(device_order))):
        raise ValueError("device nodes must be the integers 0..n-1")
    device_adjacency: List[Tuple[int, ...]] = [()] * len(device_order)
    for node in device_order:
        device_adjacency[node] = tuple(device[node])
    # Per edge, the number of common neighbours of its ends; per node, the
    # sum over its edges (twice its triangle count).
    device_common = _common_neighbours(device_adjacency)
    device_triangles = [sum(common.values()) for common in device_common]
    pattern_common = _common_neighbours(pattern_adjacency)
    pattern_triangles = [sum(common.values()) for common in pattern_common]
    pattern_needs = [list(common.items()) for common in pattern_common]

    core_device = [-1] * len(device_order)  # device node -> pattern position
    core_pattern = [-1] * size  # pattern position -> device node
    mapped: List[int] = []  # device nodes in the order they were mapped
    # networkx's inout sets: nodes that are mapped or terminal.  The device
    # side keeps its entry order; the pattern side is a membership list.
    terminals: List[int] = []
    is_terminal = [False] * len(device_order)
    pattern_seen = [False] * size
    undo: List[Tuple[int, List[int]]] = []  # per step: len(terminals) before it, pattern entries

    def candidates() -> Tuple[List[int], int]:
        device_side = [node for node in terminals if core_device[node] < 0]
        pattern_side = next(
            (q for q in range(size) if pattern_seen[q] and core_pattern[q] < 0), -1
        )
        if device_side and pattern_side >= 0:
            return device_side, pattern_side
        return [node for node in device_order if core_device[node] < 0], core_pattern.index(-1)

    # A frame: candidate device nodes, the pattern node, the next candidate
    # index and the pattern node's reach (0 until a feasible pair needs it).
    stack = [[*candidates(), 0, 0]]
    while stack:
        frame = stack[-1]
        options, target, index, reach = frame
        needed = pattern_needs[target]
        degree = len(pattern_adjacency[target])
        triangles = pattern_triangles[target]
        while index < len(options):
            node = options[index]
            index += 1
            if len(device_adjacency[node]) < degree or device_triangles[node] < triangles:
                continue
            common = device_common[node]
            for other, shared in needed:
                image = core_pattern[other]
                # -1 for a non-edge: every pattern edge shares >= 0 neighbours.
                if image >= 0 and common.get(image, -1) < shared:
                    break
            else:
                # Room for every unmapped pattern node settles it without
                # counting the pattern side.
                unmapped = size - len(mapped)
                free = _free_reach(device_adjacency, core_device, node, unmapped)
                if free >= unmapped:
                    break
                if not reach:
                    reach = frame[3] = _free_reach(pattern_adjacency, core_pattern, target, size)
                if free >= reach:
                    break
        else:
            stack.pop()
            if undo:
                mark, seen = undo.pop()
                node = mapped.pop()
                core_pattern[core_device[node]] = -1
                core_device[node] = -1
                for other in terminals[mark:]:
                    is_terminal[other] = False
                del terminals[mark:]
                for other in seen:
                    pattern_seen[other] = False
            continue
        frame[2] = index
        core_device[node] = target
        core_pattern[target] = node
        mapped.append(node)
        if len(mapped) == size:
            return {device_node: pattern_nodes[core_device[device_node]] for device_node in mapped}
        mark = len(terminals)
        if not is_terminal[node]:
            terminals.append(node)
        fresh = [other for other in device_adjacency[node] if not is_terminal[other]]
        if len(fresh) > 1:
            reached = set()
            for mapped_node in mapped:
                reached.update(
                    [other for other in device_adjacency[mapped_node] if core_device[other] < 0]
                )
            fresh = [other for other in reached if not is_terminal[other]]
        terminals.extend(fresh)
        for other in terminals[mark:]:
            is_terminal[other] = True
        seen = [other for other in (target, *pattern_adjacency[target]) if not pattern_seen[other]]
        for other in seen:
            pattern_seen[other] = True
        undo.append((mark, seen))
        stack.append([*candidates(), 0, 0])
    return None


def _free_reach(
    adjacency: Sequence[Sequence[int]], core: Sequence[int], start: int, limit: int
) -> int:
    """Unmapped nodes (``core[node] < 0``) reachable from ``start`` through unmapped nodes.

    The count stops once it reaches ``limit``; below it, it is exact.
    """
    reached = {start}
    todo = [start]
    while todo and len(reached) < limit:
        for other in adjacency[todo.pop()]:
            if core[other] < 0 and other not in reached:
                reached.add(other)
                todo.append(other)
    return len(reached)


def _common_neighbours(adjacency: Sequence[Sequence[int]]) -> List[Dict[int, int]]:
    """Per node, ``{neighbour: number of common neighbours of the two}``."""
    neighbour_sets = [frozenset(neighbours) for neighbours in adjacency]
    return [
        {other: len(neighbour_sets[node] & neighbour_sets[other]) for other in neighbours}
        for node, neighbours in enumerate(adjacency)
    ]


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
        if not any(pattern.values()):
            # Any assignment works; keep it trivial.
            return {v: v for v in range(circuit.num_qubits)}
        device = self._coupling_map.adjacency()
        if embedding_impossible(pattern, device):
            return None
        mapping = first_monomorphism(device, pattern)
        if mapping is None:
            return None
        # The search returns device-node -> pattern-node; invert it.  Every
        # virtual qubit is a pattern node, idle ones included, so the
        # monomorphism seats them all.
        return {virtual: physical for physical, virtual in mapping.items()}
