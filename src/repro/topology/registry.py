"""Named topology instances used throughout the paper's evaluation.

Two machine scales are studied (paper Section 5):

* the *small* machines of Table 1 (16-20 qubits, the scale of the physical
  SNAIL prototype), and
* the *scaled* machines of Table 2 (84 qubits).

The constructors here pin down the concrete instances — grid shapes, trim
sizes, tree depths — so that every experiment in
:mod:`repro.experiments` refers to the same graphs.  Each scale keeps one
table of per-name builders: a lookup builds only the machine it names, and
listing the names builds none.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from repro.topology.coupling import CouplingMap
from repro.topology.lattices import (
    heavy_hex_lattice,
    hex_lattice,
    hypercube,
    square_lattice,
    square_lattice_alt_diagonals,
    trimmed_hypercube,
)
from repro.topology.snail import (
    corral_topology,
    tree_round_robin_topology,
    tree_topology,
)

#: Canonical topology names (matching the paper's figure legends).
HEAVY_HEX = "Heavy-Hex"
HEX_LATTICE = "Hex-Lattice"
SQUARE_LATTICE = "Square-Lattice"
LATTICE_ALT_DIAG = "Lattice+AltDiagonals"
HYPERCUBE = "Hypercube"
TREE = "Tree"
TREE_RR = "Tree-RR"
CORRAL_1_1 = "Corral1,1"
CORRAL_1_2 = "Corral1,2"


_BUILDERS: Dict[str, Dict[str, Callable[[], CouplingMap]]] = {
    # The 16-20 qubit machines of paper Table 1 / Figs. 11 and 13.
    "small": {
        HEAVY_HEX: partial(heavy_hex_lattice, 20, name=HEAVY_HEX),
        HEX_LATTICE: partial(hex_lattice, 20, name=HEX_LATTICE),
        SQUARE_LATTICE: partial(square_lattice, 4, 4, name=SQUARE_LATTICE),
        TREE: partial(tree_topology, levels=2, arity=4, name=TREE),
        TREE_RR: partial(tree_round_robin_topology, levels=2, arity=4, name=TREE_RR),
        CORRAL_1_1: partial(corral_topology, 8, (1, 1), name=CORRAL_1_1),
        # The published Corral(1,2) properties (diameter 2, AvgD 1.5,
        # AvgC 6.0 — paper Table 1) are reproduced when the second rail
        # spans three posts; a literal stride of two yields diameter 3.
        CORRAL_1_2: partial(corral_topology, 8, (1, 3), name=CORRAL_1_2),
        HYPERCUBE: partial(hypercube, 4, name=HYPERCUBE),
    },
    # The 84-qubit machines of paper Table 2 / Figs. 4, 12 and 14.
    "large": {
        HEAVY_HEX: partial(heavy_hex_lattice, 84, name=HEAVY_HEX),
        HEX_LATTICE: partial(hex_lattice, 84, name=HEX_LATTICE),
        SQUARE_LATTICE: partial(square_lattice, 7, 12, name=SQUARE_LATTICE),
        LATTICE_ALT_DIAG: partial(square_lattice_alt_diagonals, 7, 12, name=LATTICE_ALT_DIAG),
        TREE: partial(tree_topology, levels=3, arity=4, name=TREE),
        TREE_RR: partial(tree_round_robin_topology, levels=3, arity=4, name=TREE_RR),
        HYPERCUBE: partial(trimmed_hypercube, 84, name=HYPERCUBE),
    },
}


def check_scale(scale: str) -> str:
    """``scale`` itself if it names a machine scale, else ``ValueError``."""
    if scale not in _BUILDERS:
        raise ValueError(f"unknown scale {scale!r}; scales are 'small' and 'large'")
    return scale


def small_topologies() -> Dict[str, CouplingMap]:
    """The 16-20 qubit machines of paper Table 1 / Figs. 11 and 13."""
    return {name: build() for name, build in _BUILDERS["small"].items()}


def large_topologies() -> Dict[str, CouplingMap]:
    """The 84-qubit machines of paper Table 2 / Figs. 4, 12 and 14."""
    return {name: build() for name, build in _BUILDERS["large"].items()}


def get_topology(name: str, scale: str = "small") -> CouplingMap:
    """Build the named topology at the requested scale ("small" or "large")."""
    builders = _BUILDERS[check_scale(scale)]
    if name not in builders:
        raise KeyError(
            f"unknown topology {name!r} at scale {scale!r}; "
            f"available: {sorted(builders)}"
        )
    return builders[name]()


def available_topologies(scale: str = "small") -> List[str]:
    """Names available at a given scale."""
    return sorted(_BUILDERS[check_scale(scale)])
