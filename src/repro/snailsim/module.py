"""Multi-mode SNAIL module: simultaneous pumps, parallel gates, ≥3-mode gates.

Paper Section 4.1 makes two claims about the SNAIL that go beyond the
single two-qubit exchange of :mod:`repro.snailsim.device`:

* because third-order parametric gates have very small static cross-Kerr,
  *multiple gates can run in parallel inside the same neighbourhood*, and
* *three- or more-mode gates* can be created by applying several
  simultaneous drives to one SNAIL.

This module provides a small Hamiltonian-level simulator of one SNAIL
module (up to ~6 qubits, dense ``2^n`` matrices) that lets the tests and
benchmarks check both claims quantitatively:

* each pump tone at the difference frequency ``|w_i - w_j|`` activates the
  exchange term ``g (s+_i s-_j + h.c.)`` (paper Eq. 8);
* a pump also drives every *other* qubit pair off-resonantly; the spurious
  strength falls off with a Lorentzian in the pump-to-transition detuning,
  which is how frequency crowding shows up dynamically;
* driving several pumps at once simply sums the activated terms, so
  disjoint pairs evolve as a tensor product of partial iSWAPs (parallel
  gates), while pumps sharing a qubit generate a genuine three-mode
  interaction.

Basis convention: the module unitary acts on the module's qubits with
qubit 0 as the *least-significant* bit of the computational-basis index
(the same little-endian convention as :mod:`repro.simulator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]

_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
_SIGMA_MINUS = _SIGMA_PLUS.conj().T


def _embed(op: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator at ``qubit`` (little-endian) into the register."""
    result = np.array([[1.0]], dtype=complex)
    for index in range(num_qubits):
        factor = op if index == qubit else np.eye(2, dtype=complex)
        # Little-endian: qubit 0 is the least-significant (rightmost) factor.
        result = np.kron(factor, result)
    return result


@dataclass(frozen=True)
class PumpTone:
    """One microwave pump applied to the SNAIL.

    Attributes:
        pair: the qubit pair whose difference frequency the pump targets.
        strength_mhz: effective exchange strength ``g_eff / 2 pi`` in MHz.
        detuning_mhz: offset of the pump from the exact difference frequency.
    """

    pair: Pair
    strength_mhz: float = 0.5
    detuning_mhz: float = 0.0


@dataclass
class SnailModule:
    """One SNAIL coupled to ``num_qubits`` qubits with fixed frequencies.

    Attributes:
        qubit_frequencies_ghz: transition frequency of every qubit; the
            defaults spread 4-qubit modules over ~1.5 GHz as in the
            prototype module of paper Fig. 5(c).
        crosstalk_linewidth_mhz: Lorentzian linewidth governing how strongly
            a pump drives transitions it is detuned from; smaller values
            mean better frequency selectivity.
        t1_us: common energy-relaxation time of the module's qubits.
    """

    qubit_frequencies_ghz: Sequence[float] = (4.5, 5.0, 5.6, 6.3)
    crosstalk_linewidth_mhz: float = 1.0
    t1_us: float = 20.0

    def __post_init__(self) -> None:
        if len(self.qubit_frequencies_ghz) < 2:
            raise ValueError("a SNAIL module needs at least two qubits")
        if len(set(np.round(self.qubit_frequencies_ghz, 9))) != len(self.qubit_frequencies_ghz):
            raise ValueError("qubit frequencies must be distinct")
        if self.crosstalk_linewidth_mhz <= 0.0:
            raise ValueError("crosstalk linewidth must be positive")
        if self.t1_us <= 0.0:
            raise ValueError("T1 must be positive")

    # -- structure -------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits coupled to this SNAIL."""
        return len(self.qubit_frequencies_ghz)

    def pairs(self) -> List[Pair]:
        """Every unordered qubit pair of the module."""
        n = self.num_qubits
        return [(a, b) for a in range(n) for b in range(a + 1, n)]

    def difference_frequency_ghz(self, pair: Pair) -> float:
        """The |w_i - w_j| difference frequency a pump must hit to drive ``pair``."""
        a, b = pair
        return abs(self.qubit_frequencies_ghz[a] - self.qubit_frequencies_ghz[b])

    def minimum_difference_separation_mhz(self) -> float:
        """Smallest spacing between any two distinct difference frequencies.

        The SNAIL's addressability requirement (paper Section 4.1): every
        pair must own a unique difference frequency; this is the margin.
        """
        differences = sorted(self.difference_frequency_ghz(pair) for pair in self.pairs())
        gaps = [
            (b - a) * 1e3 for a, b in zip(differences, differences[1:])
        ]
        return float(min(gaps)) if gaps else np.inf

    # -- pump -> effective couplings ---------------------------------------------

    def effective_couplings(self, pumps: Sequence[PumpTone]) -> Dict[Pair, float]:
        """Exchange strength (MHz) on every pair induced by a set of pumps.

        Each pump drives its target pair at full strength (reduced by its
        own detuning) and every other pair with a Lorentzian suppression in
        the detuning between the pump frequency and that pair's difference
        frequency — the dynamical face of frequency crowding.
        """
        couplings: Dict[Pair, float] = {}
        linewidth = self.crosstalk_linewidth_mhz
        for pump in pumps:
            target = tuple(sorted(pump.pair))
            if target[0] < 0 or target[1] >= self.num_qubits:
                raise ValueError(f"pump pair {pump.pair} outside the module")
            pump_frequency_ghz = self.difference_frequency_ghz(target) + pump.detuning_mhz * 1e-3
            for pair in self.pairs():
                detuning_mhz = abs(
                    pump_frequency_ghz - self.difference_frequency_ghz(pair)
                ) * 1e3
                suppression = linewidth ** 2 / (linewidth ** 2 + detuning_mhz ** 2)
                strength = pump.strength_mhz * suppression
                if strength < 1e-6:
                    continue
                couplings[pair] = couplings.get(pair, 0.0) + strength
        return couplings

    # -- Hamiltonian and evolution ---------------------------------------------------

    def exchange_hamiltonian(self, couplings: Dict[Pair, float]) -> np.ndarray:
        """Module Hamiltonian (rad/ns) for the given pair -> strength (MHz) map."""
        dim = 2 ** self.num_qubits
        hamiltonian = np.zeros((dim, dim), dtype=complex)
        for (a, b), strength_mhz in couplings.items():
            g = 2.0 * np.pi * strength_mhz * 1e-3  # rad / ns
            term = _embed(_SIGMA_PLUS, a, self.num_qubits) @ _embed(
                _SIGMA_MINUS, b, self.num_qubits
            )
            hamiltonian += g * (term + term.conj().T)
        return hamiltonian

    def evolve(self, pumps: Sequence[PumpTone], duration_ns: float) -> np.ndarray:
        """Unitary generated by driving all ``pumps`` simultaneously.

        Uses the paper's sign convention ``U(t) = exp(+i H t)`` (Eq. 9), so
        that a single on-resonance pump of length ``pi / (2 n g)`` produces
        exactly the :class:`~repro.gates.NthRootISwapGate` matrix.
        """
        if duration_ns < 0.0:
            raise ValueError("duration must be non-negative")
        hamiltonian = self.exchange_hamiltonian(self.effective_couplings(pumps))
        eigenvalues, eigenvectors = np.linalg.eigh(hamiltonian)
        phases = np.exp(1j * eigenvalues * duration_ns)
        return (eigenvectors * phases) @ eigenvectors.conj().T

    # -- parallel gates ------------------------------------------------------------

    def pulse_length_for_root(self, root: int, strength_mhz: float = 0.5) -> float:
        """Pulse length (ns) for which one pump realises the ``root``-th root of iSWAP."""
        if root < 1:
            raise ValueError("root must be a positive integer")
        g = 2.0 * np.pi * strength_mhz * 1e-3
        return float((np.pi / (2.0 * root)) / g)

    def parallel_gate_unitary(
        self, pairs: Sequence[Pair], root: int = 2, strength_mhz: float = 0.5
    ) -> np.ndarray:
        """Drive one pump per pair simultaneously for an ``n``-root-iSWAP pulse."""
        pumps = [PumpTone(pair=tuple(sorted(pair)), strength_mhz=strength_mhz) for pair in pairs]
        duration = self.pulse_length_for_root(root, strength_mhz)
        return self.evolve(pumps, duration)

    def ideal_parallel_unitary(self, pairs: Sequence[Pair], root: int = 2) -> np.ndarray:
        """Product of ideal ``n``-root iSWAPs applied pair by pair (identity elsewhere).

        For disjoint pairs this equals the tensor product of the individual
        gates — the intended effect of driving the pumps in parallel.  For
        pairs sharing a qubit the gates do not commute, so the sequential
        product differs from the simultaneous drive; that gap is exactly
        what :meth:`parallel_gate_fidelity` measures.
        """
        angle = np.pi / (2.0 * root)
        dim = 2 ** self.num_qubits
        result = np.eye(dim, dtype=complex)
        for pair in pairs:
            a, b = tuple(sorted(pair))
            term = _embed(_SIGMA_PLUS, a, self.num_qubits) @ _embed(
                _SIGMA_MINUS, b, self.num_qubits
            )
            generator = term + term.conj().T
            eigenvalues, eigenvectors = np.linalg.eigh(generator)
            phases = np.exp(1j * eigenvalues * angle)
            gate = (eigenvectors * phases) @ eigenvectors.conj().T
            result = gate @ result
        return result

    def parallel_gate_fidelity(
        self, pairs: Sequence[Pair], root: int = 2, strength_mhz: float = 0.5
    ) -> float:
        """Process-style fidelity of the simultaneous drive against the ideal gates.

        Uses the phase-insensitive normalised Hilbert-Schmidt overlap
        |Tr(U_ideal^dagger U_driven)| / dim, the same measure as paper Eq. 11.
        """
        driven = self.parallel_gate_unitary(pairs, root=root, strength_mhz=strength_mhz)
        ideal = self.ideal_parallel_unitary(pairs, root=root)
        dim = driven.shape[0]
        return float(abs(np.trace(ideal.conj().T @ driven)) / dim)

    # -- three-mode gates --------------------------------------------------------------

    def three_mode_unitary(
        self, hub: int, partners: Tuple[int, int], strength_mhz: float = 0.5, duration_ns: Optional[float] = None
    ) -> np.ndarray:
        """Drive two pumps sharing ``hub`` simultaneously (a >=3-mode gate).

        With both exchanges active the single excitation on the hub spreads
        coherently over the two partners — the three-mode interaction the
        paper says the SNAIL can create with simultaneous drives.
        """
        a, b = partners
        if len({hub, a, b}) != 3:
            raise ValueError("hub and partners must be three distinct qubits")
        pumps = [
            PumpTone(pair=tuple(sorted((hub, a))), strength_mhz=strength_mhz),
            PumpTone(pair=tuple(sorted((hub, b))), strength_mhz=strength_mhz),
        ]
        if duration_ns is None:
            # With two equal drives the hub's excitation fully transfers to the
            # symmetric partner state after g_total t = pi / 2 with
            # g_total = sqrt(2) g.
            g = 2.0 * np.pi * strength_mhz * 1e-3
            duration_ns = (np.pi / 2.0) / (np.sqrt(2.0) * g)
        return self.evolve(pumps, duration_ns)

    def three_mode_excitation_spread(
        self, hub: int, partners: Tuple[int, int], strength_mhz: float = 0.5, duration_ns: Optional[float] = None
    ) -> Dict[int, float]:
        """Excitation probability per qubit after the three-mode drive from ``|1_hub>``."""
        unitary = self.three_mode_unitary(hub, partners, strength_mhz, duration_ns)
        dim = 2 ** self.num_qubits
        initial = np.zeros(dim, dtype=complex)
        initial[1 << hub] = 1.0
        final = unitary @ initial
        probabilities = np.abs(final) ** 2
        spread: Dict[int, float] = {}
        for qubit in range(self.num_qubits):
            mask = 1 << qubit
            spread[qubit] = float(
                sum(probabilities[index] for index in range(dim) if index & mask)
            )
        return spread
