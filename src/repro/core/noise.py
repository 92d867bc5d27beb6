"""Heterogeneous noise model (an extension beyond the paper's uniform model).

The paper deliberately assumes uniform gate fidelity (Section 5) and uses
gate counts / critical-path pulse counts as reliability surrogates.  Real
devices have edge-to-edge fidelity variation, and one natural question the
paper leaves open is whether the co-design conclusions survive that
variation.  :class:`NoiseModel` supports that study:

* every coupling edge carries its own two-qubit gate fidelity,
* idle decoherence is charged per unit of critical-path pulse duration,
* :meth:`circuit_success_probability` turns a transpiled (physical)
  circuit into an estimated success probability.

The ``corral-scaling`` and reliability ablations in the benchmark suite
use this model; the paper's own numbers are reproduced with the uniform
:class:`~repro.core.fidelity.FidelityModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.topology.coupling import CouplingMap

Edge = Tuple[int, int]


def _check_fidelity(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} fidelity must lie in (0, 1], got {value}")


@dataclass
class NoiseModel:
    """Per-edge two-qubit fidelities plus an idle-decoherence rate.

    Attributes:
        edge_fidelity: mapping from physical edge to the fidelity of one
            native two-qubit gate on that edge.  An edge may be written in
            either orientation; construction stores it as ``(min, max)``.
        default_fidelity: fidelity assumed for edges not in the map.
        idle_fidelity_per_pulse: multiplicative fidelity factor charged per
            unit of pulse-duration-weighted critical path (decoherence).

    Every fidelity must lie in (0, 1], and an edge written both ways must
    carry one value; construction raises ``ValueError`` otherwise.
    """

    edge_fidelity: Dict[Edge, float] = field(default_factory=dict)
    default_fidelity: float = 0.995
    idle_fidelity_per_pulse: float = 0.999

    def __post_init__(self) -> None:
        edge_fidelity: Dict[Edge, float] = {}
        for (a, b), value in self.edge_fidelity.items():
            edge = (a, b) if a <= b else (b, a)
            _check_fidelity(f"edge {edge}", value)
            if edge in edge_fidelity and edge_fidelity[edge] != value:
                raise ValueError(
                    f"edge {edge} has two fidelities: {edge_fidelity[edge]} and {value}"
                )
            edge_fidelity[edge] = value
        _check_fidelity("default", self.default_fidelity)
        _check_fidelity("idle", self.idle_fidelity_per_pulse)
        self.edge_fidelity = edge_fidelity

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(
        cls, fidelity: float = 0.995, idle_fidelity_per_pulse: float = 0.999
    ) -> "NoiseModel":
        """Uniform model equivalent to the paper's assumption."""
        return cls(
            edge_fidelity={},
            default_fidelity=fidelity,
            idle_fidelity_per_pulse=idle_fidelity_per_pulse,
        )

    @classmethod
    def random(
        cls,
        coupling_map: CouplingMap,
        mean_fidelity: float = 0.995,
        spread: float = 0.003,
        idle_fidelity_per_pulse: float = 0.999,
        seed: int = 0,
    ) -> "NoiseModel":
        """Sample edge fidelities around ``mean_fidelity`` (clipped to [0.5, 1])."""
        rng = np.random.default_rng(seed)
        edge_fidelity = {
            tuple(sorted(edge)): float(
                np.clip(rng.normal(mean_fidelity, spread), 0.5, 1.0)
            )
            for edge in coupling_map.edges()
        }
        return cls(
            edge_fidelity=edge_fidelity,
            default_fidelity=mean_fidelity,
            idle_fidelity_per_pulse=idle_fidelity_per_pulse,
        )

    # -- queries -------------------------------------------------------------------

    def fidelity(self, qubit_a: int, qubit_b: int) -> float:
        """Two-qubit gate fidelity on a physical edge."""
        return self.edge_fidelity.get(tuple(sorted((qubit_a, qubit_b))), self.default_fidelity)

    def fidelity_matrix(self, coupling_map: CouplingMap) -> np.ndarray:
        """Fidelity-weighted adjacency matrix of a device (non-edges are 0).

        ``fidelity_matrix(device)[a, b]`` answers :meth:`fidelity` for
        coupled pairs without a dict lookup — the form the vectorized
        noise-aware layout scorer consumes.
        """
        n = coupling_map.num_qubits
        matrix = np.zeros((n, n))
        for a, b in coupling_map.edges():
            matrix[a, b] = matrix[b, a] = self.fidelity(a, b)
        return matrix

    def average_fidelity(self) -> float:
        """Mean edge fidelity (default when the map is empty)."""
        if not self.edge_fidelity:
            return self.default_fidelity
        return float(np.mean(list(self.edge_fidelity.values())))

    def worst_edge(self) -> Optional[Edge]:
        """The lowest-fidelity edge, if any edge-specific value exists."""
        if not self.edge_fidelity:
            return None
        return min(self.edge_fidelity, key=self.edge_fidelity.get)

    # -- circuit-level estimate -------------------------------------------------------

    def circuit_success_probability(self, circuit: QuantumCircuit) -> float:
        """Estimated success probability of a transpiled (physical) circuit.

        The estimate multiplies the per-edge fidelity of every two-qubit
        instruction (single-qubit gates are treated as perfect, as in the
        paper) with an idle-decoherence factor per unit of the circuit's
        pulse-duration-weighted critical path.
        """
        gate_factor = 1.0
        for instruction in circuit:
            if instruction.is_two_qubit:
                gate_factor *= self.fidelity(*instruction.qubits)
        duration = circuit.weighted_duration()
        idle_factor = self.idle_fidelity_per_pulse ** duration
        return float(gate_factor * idle_factor)

    def gate_error_budget(self, circuit: QuantumCircuit) -> Dict[Edge, float]:
        """Total infidelity contributed by each edge (diagnostic helper)."""
        budget: Dict[Edge, float] = {}
        for instruction in circuit:
            if not instruction.is_two_qubit:
                continue
            edge = tuple(sorted(instruction.qubits))
            budget[edge] = budget.get(edge, 0.0) + (1.0 - self.fidelity(*edge))
        return budget
