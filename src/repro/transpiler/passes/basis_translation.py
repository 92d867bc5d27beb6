"""Basis-translation pass: express every 2Q gate in the machine's native basis.

Two modes are provided, mirroring how the paper uses decomposition:

* ``mode="count"`` (default, used by all large sweeps): each two-qubit
  instruction is replaced by ``k`` back-to-back applications of the basis
  gate on the same physical pair, where ``k`` is the analytic coverage
  count for the instruction's canonical (Weyl) class — see
  :mod:`repro.decomposition.coverage`.  Interleaved single-qubit gates are
  not materialised because the paper treats them as free; every counting
  metric (total 2Q gates, critical-path 2Q gates, weighted pulse duration)
  is exact under this substitution.
* ``mode="synthesis"``: each two-qubit instruction is replaced by an
  explicit, verifiable circuit — the exact closed-form rule when one is
  registered, otherwise a numerically optimised template
  (:class:`~repro.decomposition.approximate.TemplateDecomposer`) whose
  fidelity is checked against ``synthesis_fidelity``.  Intended for small
  circuits, validation and the examples.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.decomposition.approximate import TemplateDecomposer
from repro.decomposition.basis import BasisGateSpec
from repro.decomposition.cache import GLOBAL_DECOMPOSITION_CACHE, DecompositionCache
from repro.linalg.cache import matrix_fingerprint
from repro.linalg.weyl import WeylCoordinates
from repro.transpiler.passmanager import PropertySet, TranspilerPass


class BasisTranslationError(RuntimeError):
    """Raised when a gate cannot be translated into the target basis."""


class BasisTranslation(TranspilerPass):
    """Translate all two-qubit gates into a native basis gate."""

    name = "basis_translation"

    def __init__(
        self,
        basis: BasisGateSpec,
        mode: str = "count",
        synthesis_fidelity: float = 1.0 - 1e-6,
        max_applications: int = 6,
        cache: Optional[DecompositionCache] = None,
    ):
        if mode not in ("count", "synthesis"):
            raise ValueError(f"unknown translation mode {mode!r}")
        self._basis = basis
        self._mode = mode
        self._synthesis_fidelity = float(synthesis_fidelity)
        self._max_applications = int(max_applications)
        # Memos are shared process-wide (every transpile call rebuilds its
        # passes, so per-instance caches would be cold on every sweep point).
        self._cache = cache if cache is not None else GLOBAL_DECOMPOSITION_CACHE
        self._decomposer: Optional[TemplateDecomposer] = None

    # -- pass entry point --------------------------------------------------------

    def run(self, circuit: QuantumCircuit, properties: PropertySet) -> QuantumCircuit:
        translated = QuantumCircuit(
            circuit.num_qubits, name=f"{circuit.name}[{self._basis.name}]"
        )
        # Gates and instructions are immutable: one basis-gate instance
        # serves the whole run, a fingerprint's count never changes, the
        # instructions that need no translation are re-emitted as they
        # are, and count mode appends one basis instruction per source
        # gate ``k`` times.  All of them are already valid on this register.
        basis_gate = self._basis.gate()
        append = translated._append_trusted
        counts: Dict[Hashable, int] = {}
        basis_gate_count = 0
        for instruction in circuit:
            gate = instruction.gate
            if not instruction.is_two_qubit:
                append(instruction)
                continue
            if gate.name == basis_gate.name and gate == basis_gate:
                append(instruction)
                basis_gate_count += 1
                continue
            fingerprint = self._fingerprint(instruction)
            if self._mode == "count":
                applications = counts.get(fingerprint)
                if applications is None:
                    applications = counts[fingerprint] = self._count(instruction, fingerprint)
                basis_instruction = Instruction(
                    basis_gate, instruction.qubits, induced=instruction.induced
                )
                for _ in range(applications):
                    append(basis_instruction)
                basis_gate_count += applications
            else:
                block = self._synthesize(instruction, fingerprint)
                for sub in block:
                    mapped = tuple(instruction.qubits[q] for q in sub.qubits)
                    translated.append(sub.gate, mapped, induced=instruction.induced)
                    if sub.is_two_qubit:
                        basis_gate_count += 1
        properties["basis"] = self._basis
        properties["translated_circuit"] = translated
        properties["basis_gate_count"] = basis_gate_count
        return translated

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _fingerprint(instruction: Instruction) -> Hashable:
        gate = instruction.gate
        if gate.name == "unitary":
            return ("unitary", matrix_fingerprint(gate.cached_matrix()))
        return (gate.name, tuple(round(p, 10) for p in gate.params))

    def _coordinates(self, instruction: Instruction, fingerprint: Hashable) -> WeylCoordinates:
        return self._cache.coordinates(instruction.gate.cached_matrix(), fingerprint=fingerprint)

    def _count(self, instruction: Instruction, fingerprint: Hashable) -> int:
        return self._cache.count(
            self._basis.name, self._coordinates(instruction, fingerprint), self._basis.count
        )

    def _synthesize(self, instruction: Instruction, fingerprint: Hashable) -> QuantumCircuit:
        coordinates = self._coordinates(instruction, fingerprint)
        # The synthesis configuration participates in the key so instances
        # with a stricter fidelity target never reuse a looser template.
        key = (
            fingerprint,
            round(self._synthesis_fidelity, 12),
            self._max_applications,
        )
        cached = self._cache.synthesis(self._basis.name, coordinates, key)
        if cached is not None:
            return cached
        if self._decomposer is None:
            self._decomposer = TemplateDecomposer(
                self._basis.gate(),
                convergence_threshold=self._synthesis_fidelity,
                restarts=4,
            )
        target = instruction.gate.matrix()
        start = max(1, self._count(instruction, fingerprint))
        result = self._decomposer.decompose_adaptive(
            target, max_applications=self._max_applications, start_applications=start
        )
        if result.fidelity < self._synthesis_fidelity:
            raise BasisTranslationError(
                f"could not synthesise {instruction.name!r} in basis "
                f"{self._basis.name!r}: best fidelity {result.fidelity:.6f}"
            )
        self._cache.store_synthesis(self._basis.name, coordinates, key, result.circuit)
        return result.circuit
