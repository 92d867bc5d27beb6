"""Workload registry: the six parameterised benchmarks of the paper.

The paper's evaluation (Section 5) uses QuantumVolume, QFT and the CDKM
ripple-carry adder from Qiskit plus QAOA-Vanilla, TIM Hamiltonian
simulation and GHZ from SupermarQ, all parameterised by qubit count.  The
registry exposes them behind one uniform ``build(name, num_qubits, seed)``
interface used by the experiment harness and the benchmarks.

A sweep compares every design point on the same circuit instances, so
:func:`build_workload` keeps the last few built instances in
:data:`WORKLOAD_CACHE` and hands each caller its own copy.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.circuits.circuit import QuantumCircuit
from repro.linalg.cache import LRUCache
from repro.workloads.adder import adder_circuit_for_width
from repro.workloads.bernstein_vazirani import bernstein_vazirani_circuit
from repro.workloads.ghz import ghz_circuit
from repro.workloads.hamiltonian import tim_hamiltonian_circuit
from repro.workloads.qaoa import qaoa_vanilla_circuit
from repro.workloads.qft import qft_circuit
from repro.workloads.quantum_volume import quantum_volume_circuit
from repro.workloads.vqe import hardware_efficient_ansatz
from repro.workloads.wstate import w_state_circuit

#: Canonical workload names, matching the paper's figure panels.
QUANTUM_VOLUME = "QuantumVolume"
QFT = "QFT"
QAOA_VANILLA = "QAOAVanilla"
TIM_HAMILTONIAN = "TIMHamiltonian"
ADDER = "Adder"
GHZ = "GHZ"

#: Extension workloads (not part of the paper's six benchmark panels).
BERNSTEIN_VAZIRANI = "BernsteinVazirani"
VQE_ANSATZ = "VQEAnsatz"
W_STATE = "WState"

_BUILDERS: Dict[str, Callable[[int, int], QuantumCircuit]] = {
    QUANTUM_VOLUME: lambda n, seed: quantum_volume_circuit(n, seed=seed),
    QFT: lambda n, seed: qft_circuit(n),
    QAOA_VANILLA: lambda n, seed: qaoa_vanilla_circuit(n, seed=seed),
    TIM_HAMILTONIAN: lambda n, seed: tim_hamiltonian_circuit(n),
    ADDER: lambda n, seed: adder_circuit_for_width(n),
    GHZ: lambda n, seed: ghz_circuit(n),
    BERNSTEIN_VAZIRANI: lambda n, seed: bernstein_vazirani_circuit(n, seed=seed),
    VQE_ANSATZ: lambda n, seed: hardware_efficient_ansatz(n, seed=seed),
    W_STATE: lambda n, seed: w_state_circuit(n),
}

#: Workloads in the order the paper's figure columns use.
PAPER_WORKLOADS: List[str] = [
    QUANTUM_VOLUME,
    QFT,
    QAOA_VANILLA,
    TIM_HAMILTONIAN,
    ADDER,
    GHZ,
]

#: Additional workloads provided beyond the paper's evaluation set.
EXTENSION_WORKLOADS: List[str] = [
    BERNSTEIN_VAZIRANI,
    VQE_ANSATZ,
    W_STATE,
]


def available_workloads() -> List[str]:
    """All registered workload names."""
    return sorted(_BUILDERS)


#: Process-wide memo of :func:`build_workload`, keyed on
#: ``(name, num_qubits, seed, builder)``.  The builder object is part of
#: the key, so a workload re-registered with ``overwrite=True`` is never
#: served the old builder's circuit.  A sweep visits its design points
#: innermost, so every repeat of an instance follows its first build; each
#: pool worker keeps its own memo.
WORKLOAD_CACHE = LRUCache(maxsize=16)


class WorkloadWidthError(ValueError):
    """A builder rejected the width: bad input, unlike a compile that fails."""


def build_workload(name: str, num_qubits: int, seed: int = 0) -> QuantumCircuit:
    """Build a workload instance by name and width.

    Instances are memoized in :data:`WORKLOAD_CACHE`.  Every call returns
    a fresh shallow copy (instructions are immutable), so a caller that
    appends to its circuit never changes the next caller's.  A builder
    that raises caches nothing; its ``ValueError`` surfaces as a
    :class:`WorkloadWidthError`.
    """
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        )
    builder = _BUILDERS[name]
    key = (name, num_qubits, seed, builder)
    circuit = WORKLOAD_CACHE.get(key)
    if circuit is None:
        try:
            circuit = builder(num_qubits, seed)
        except ValueError as error:
            raise WorkloadWidthError(str(error)) from error
        WORKLOAD_CACHE.put(key, circuit)
    return circuit.copy()


def register_workload(
    name: str, builder: Callable[[int, int], QuantumCircuit], overwrite: bool = False
) -> None:
    """Register a custom workload builder (for user extensions).

    ``builder(num_qubits, seed)`` must be deterministic in its two
    arguments: :func:`build_workload` memoizes what it returns, and the
    runtime's result cache (``point_cache_key``) already keys points on
    ``(workload, size, seed)`` alone.  It may reject (``ValueError``) only
    the widths below some minimum, as every built-in builder does: the CLI
    checks a grid by building each workload at its smallest requested width.
    """
    if name in _BUILDERS and not overwrite:
        raise ValueError(f"workload {name!r} is already registered")
    _BUILDERS[name] = builder
