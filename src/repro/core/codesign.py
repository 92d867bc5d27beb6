"""Co-design points: the (topology, basis) pairs the paper evaluates.

The central claim of the paper is that gate and topology must be chosen
*together* because both are consequences of the modulator.  The design
points below are the pairings used in Figs. 13 and 14:

* Heavy-Hex + CNOT       (IBM: CR modulator),
* Square-Lattice + SYC   (Google: tunable-coupler fSim),
* Tree / Tree-RR / Hypercube / Corral + sqrt(iSWAP)  (SNAIL modulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.decomposition.basis import get_basis
from repro.topology import registry as topo_registry
from repro.transpiler.target import Target


@dataclass(frozen=True)
class CodesignPoint:
    """A named (topology, basis) pairing."""

    label: str
    topology: str
    basis: str

    def target(self, scale: str = "small") -> Target:
        """Materialise the design point at the requested machine scale."""
        coupling_map = topo_registry.get_topology(self.topology, scale=scale)
        return Target(
            coupling_map=coupling_map,
            basis=get_basis(self.basis),
            name=self.label,
            description=f"{self.topology} topology with {self.basis} basis gate",
        )


#: Fig. 13 legend (16-20 qubit machines).
SMALL_DESIGN_POINTS: List[CodesignPoint] = [
    CodesignPoint("Heavy-Hex-CX", topo_registry.HEAVY_HEX, "cx"),
    CodesignPoint("Square-Lattice-SYC", topo_registry.SQUARE_LATTICE, "syc"),
    CodesignPoint("Tree-siswap", topo_registry.TREE, "siswap"),
    CodesignPoint("Tree-RR-siswap", topo_registry.TREE_RR, "siswap"),
    CodesignPoint("Hypercube-siswap", topo_registry.HYPERCUBE, "siswap"),
    CodesignPoint("Corral1,1-siswap", topo_registry.CORRAL_1_1, "siswap"),
]

#: Fig. 14 legend (84-qubit machines).
LARGE_DESIGN_POINTS: List[CodesignPoint] = [
    CodesignPoint("Heavy-Hex-CX", topo_registry.HEAVY_HEX, "cx"),
    CodesignPoint("Square-Lattice-SYC", topo_registry.SQUARE_LATTICE, "syc"),
    CodesignPoint("Tree-siswap", topo_registry.TREE, "siswap"),
    CodesignPoint("Tree-RR-siswap", topo_registry.TREE_RR, "siswap"),
    CodesignPoint("Hypercube-siswap", topo_registry.HYPERCUBE, "siswap"),
]


def design_points(scale: str = "small") -> List[CodesignPoint]:
    """Design points evaluated at a given machine scale ("small" or "large")."""
    small = topo_registry.check_scale(scale) == "small"
    return list(SMALL_DESIGN_POINTS if small else LARGE_DESIGN_POINTS)


def design_targets(scale: str = "small") -> Dict[str, Target]:
    """Materialised targets keyed by design-point label."""
    return {point.label: point.target(scale) for point in design_points(scale)}
