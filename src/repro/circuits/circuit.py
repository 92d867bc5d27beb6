"""A lightweight quantum circuit container.

The :class:`QuantumCircuit` stores an ordered list of
:class:`~repro.circuits.instruction.Instruction` objects and provides the
counting / depth machinery the paper's evaluation is built on: total gate
counts, two-qubit gate counts, and *critical-path* counts (the longest
dependency chain through the circuit, weighting only the instructions a
predicate selects — e.g. only SWAPs, or only two-qubit basis gates).

Every paper counter comes from one walk over the instructions
(:func:`_paper_counters`), cached on the circuit until the next append.
The per-metric walks it replaced are the test oracle
``reference_circuit_metrics`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.circuits.gate import Barrier, Gate, UnitaryGate
from repro.circuits.instruction import Instruction


class _PaperCounters(NamedTuple):
    """Every counter the metric views read, from one instruction walk."""

    size: int
    two_qubit: int
    swaps: int
    induced_swaps: int
    depth: float
    critical_swaps: int
    critical_induced_swaps: int
    critical_two_qubit: int
    weighted_duration: float


def _synchronise(frontier: List[float], qubits: Sequence[int], weight: float) -> None:
    """One step of :meth:`QuantumCircuit.depth` on one frontier."""
    end = max(frontier[q] for q in qubits) + weight
    for qubit in qubits:
        frontier[qubit] = end


def _paper_counters(instructions: Sequence[Instruction], num_qubits: int) -> _PaperCounters:
    """All paper counters in one pass, equal to the per-metric walks.

    Five longest-path frontiers advance together: plain depth (1 per
    non-barrier), all SWAPs, induced SWAPs, two-qubit gates (1 per
    selected instruction, else 0) and pulse duration
    (:meth:`Gate.duration`).  Each step adds the same weight to the same
    start as :meth:`QuantumCircuit.depth` would, so every value is
    bit-identical.  A zero-weight step on several qubits still
    synchronises them (barriers; non-SWAP gates on the SWAP frontiers);
    only a zero-weight single-qubit step is a no-op and is skipped.
    Weights are never negative, so frontiers never decrease and each
    longest path is the largest final frontier entry.
    """
    depth = [0.0] * num_qubits
    swap = [0.0] * num_qubits
    induced = [0.0] * num_qubits
    two = [0.0] * num_qubits
    duration = [0.0] * num_qubits
    size = two_qubit = swaps = induced_swaps = 0
    for instruction in instructions:
        gate = instruction.gate
        qubits = instruction.qubits
        name = gate.name
        if len(qubits) == 2 and name != "barrier":
            a, b = qubits
            size += 1
            two_qubit += 1
            x, y = depth[a], depth[b]
            depth[a] = depth[b] = (x if x > y else y) + 1.0
            x, y = two[a], two[b]
            two[a] = two[b] = (x if x > y else y) + 1.0
            x, y = duration[a], duration[b]
            duration[a] = duration[b] = (x if x > y else y) + gate.duration()
            x, y = swap[a], swap[b]
            if name == "swap":
                swaps += 1
                swap[a] = swap[b] = (x if x > y else y) + 1.0
                x, y = induced[a], induced[b]
                if instruction.induced:
                    induced_swaps += 1
                    induced[a] = induced[b] = (x if x > y else y) + 1.0
                elif x != y:
                    induced[a] = induced[b] = x if x > y else y
            else:
                if x != y:
                    swap[a] = swap[b] = x if x > y else y
                x, y = induced[a], induced[b]
                if x != y:
                    induced[a] = induced[b] = x if x > y else y
        elif len(qubits) == 1 and name != "barrier" and name != "swap":
            (qubit,) = qubits
            size += 1
            depth[qubit] += 1.0
            weight = gate.duration()
            if weight:
                duration[qubit] += weight
        else:
            # Barriers and gates on three or more qubits (never a two-qubit
            # gate): the general step on every frontier.
            barrier = name == "barrier"
            is_swap = name == "swap"
            is_induced_swap = is_swap and bool(instruction.induced)
            size += not barrier
            swaps += is_swap
            induced_swaps += is_induced_swap
            _synchronise(depth, qubits, 0.0 if barrier else 1.0)
            _synchronise(swap, qubits, 1.0 if is_swap else 0.0)
            _synchronise(induced, qubits, 1.0 if is_induced_swap else 0.0)
            _synchronise(two, qubits, 0.0)
            _synchronise(duration, qubits, gate.duration())
    return _PaperCounters(
        size=size,
        two_qubit=two_qubit,
        swaps=swaps,
        induced_swaps=induced_swaps,
        depth=max(depth),
        critical_swaps=int(max(swap)),
        critical_induced_swaps=int(max(induced)),
        critical_two_qubit=int(max(two)),
        weighted_duration=float(max(duration)),
    )


class QuantumCircuit:
    """An ordered sequence of gate applications on ``num_qubits`` qubits.

    Trusted appends: the public :meth:`append`, :meth:`extend` and
    :meth:`compose` cast and range-check every qubit.  Passes that only
    re-emit instructions they already hold (decomposition, routing, count
    translation, cancellation) use :meth:`_append_trusted`, which skips
    those checks, so its callers guarantee what they would: every qubit is
    an in-range Python ``int``.  NumPy integers are not allowed, since
    :func:`~repro.transpiler.batch.circuit_fingerprint` hashes
    ``repr(qubits)``.

    The paper counters are cached in ``_profile`` until the next append.
    """

    #: Cached :class:`_PaperCounters`; ``None`` until a metric is read.
    #: Declared here so circuits pickled without it still answer metrics.
    _profile: Optional[_PaperCounters] = None

    def __init__(self, num_qubits: int, name: Optional[str] = None):
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._name = name or f"circuit_{num_qubits}q"
        self._instructions: List[Instruction] = []
        self.metadata: Dict[str, object] = {}

    # -- basic structure ----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits in the circuit register."""
        return self._num_qubits

    @property
    def name(self) -> str:
        """Circuit name (used in reports and benchmark tables)."""
        return self._name

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The instruction list as an immutable tuple."""
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantumCircuit(name={self._name!r}, qubits={self._num_qubits}, "
            f"instructions={len(self._instructions)})"
        )

    def __getstate__(self) -> Dict[str, object]:
        # The counter cache is rebuilt on demand, so pickles keep the
        # plain container format.
        state = dict(self.__dict__)
        state.pop("_profile", None)
        return state

    # -- construction --------------------------------------------------------

    def append(
        self,
        gate: Gate,
        qubits: Sequence[int],
        induced: bool = False,
    ) -> "QuantumCircuit":
        """Append ``gate`` on ``qubits``; returns ``self`` for chaining."""
        qubits = tuple(int(q) for q in qubits)
        for qubit in qubits:
            if qubit < 0 or qubit >= self._num_qubits:
                raise ValueError(
                    f"qubit index {qubit} out of range for {self._num_qubits}-qubit circuit"
                )
        self._instructions.append(Instruction(gate, qubits, induced=induced))
        self._profile = None
        return self

    def _append_trusted(self, instruction: Instruction) -> None:
        """Append an instruction already valid on this register, unchecked.

        See the class docstring for the contract the caller keeps.
        """
        self._instructions.append(instruction)
        self._profile = None

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        """Append pre-built instructions (validated against this circuit)."""
        for instruction in instructions:
            self.append(instruction.gate, instruction.qubits, induced=instruction.induced)
        return self

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Shallow copy (instructions are immutable so sharing is safe)."""
        other = QuantumCircuit(self._num_qubits, name or self._name)
        other._instructions = list(self._instructions)
        other.metadata = dict(self.metadata)
        return other

    def compose(self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Append another circuit onto this one (optionally remapped)."""
        if qubits is None:
            if other.num_qubits > self._num_qubits:
                raise ValueError("composed circuit does not fit")
            qubits = range(other.num_qubits)
        mapping = {i: int(q) for i, q in enumerate(qubits)}
        for instruction in other:
            self.append(
                instruction.gate,
                tuple(mapping[q] for q in instruction.qubits),
                induced=instruction.induced,
            )
        return self

    def inverse(self) -> "QuantumCircuit":
        """Return the adjoint circuit (reversed order, inverted gates)."""
        inverted = QuantumCircuit(self._num_qubits, f"{self._name}_dg")
        for instruction in reversed(self._instructions):
            inverted.append(instruction.gate.inverse(), instruction.qubits)
        return inverted

    def remove_idle_qubits(self) -> "QuantumCircuit":
        """Return a copy restricted to the qubits that are actually used.

        Transpiled circuits live on the full device register even when the
        algorithm only touches a few physical qubits; this compaction makes
        them small enough for state-vector / density-matrix validation.
        The old-index -> new-index mapping is stored in
        ``metadata["idle_qubit_mapping"]``.
        """
        used = sorted({q for inst in self._instructions for q in inst.qubits})
        if not used:
            used = [0]
        mapping = {old: new for new, old in enumerate(used)}
        compact = QuantumCircuit(len(used), name=self._name)
        compact.metadata = dict(self.metadata)
        compact.metadata["idle_qubit_mapping"] = dict(mapping)
        for instruction in self._instructions:
            compact.append(
                instruction.gate,
                tuple(mapping[q] for q in instruction.qubits),
                induced=instruction.induced,
            )
        return compact

    # -- convenience gate builders -------------------------------------------

    def h(self, qubit: int) -> "QuantumCircuit":
        """Hadamard."""
        from repro.gates import HGate

        return self.append(HGate(), (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        """Pauli X."""
        from repro.gates import XGate

        return self.append(XGate(), (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        """Pauli Y."""
        from repro.gates import YGate

        return self.append(YGate(), (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        """Pauli Z."""
        from repro.gates import ZGate

        return self.append(ZGate(), (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        """S gate."""
        from repro.gates import SGate

        return self.append(SGate(), (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        """T gate."""
        from repro.gates import TGate

        return self.append(TGate(), (qubit,))

    def tdg(self, qubit: int) -> "QuantumCircuit":
        """T-dagger gate."""
        from repro.gates import TdgGate

        return self.append(TdgGate(), (qubit,))

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """X rotation."""
        from repro.gates import RXGate

        return self.append(RXGate(theta), (qubit,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Y rotation."""
        from repro.gates import RYGate

        return self.append(RYGate(theta), (qubit,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Z rotation."""
        from repro.gates import RZGate

        return self.append(RZGate(theta), (qubit,))

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Generic single-qubit gate."""
        from repro.gates import U3Gate

        return self.append(U3Gate(theta, phi, lam), (qubit,))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-NOT."""
        from repro.gates import CXGate

        return self.append(CXGate(), (control, target))

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Z."""
        from repro.gates import CZGate

        return self.append(CZGate(), (control, target))

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled-phase."""
        from repro.gates import CPhaseGate

        return self.append(CPhaseGate(lam), (control, target))

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """ZZ rotation."""
        from repro.gates import RZZGate

        return self.append(RZZGate(theta), (qubit_a, qubit_b))

    def rxx(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """XX rotation."""
        from repro.gates import RXXGate

        return self.append(RXXGate(theta), (qubit_a, qubit_b))

    def swap(self, qubit_a: int, qubit_b: int, induced: bool = False) -> "QuantumCircuit":
        """SWAP two qubits."""
        from repro.gates import SwapGate

        return self.append(SwapGate(), (qubit_a, qubit_b), induced=induced)

    def iswap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """iSWAP."""
        from repro.gates import ISwapGate

        return self.append(ISwapGate(), (qubit_a, qubit_b))

    def siswap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Square-root iSWAP (the SNAIL basis gate)."""
        from repro.gates import SqrtISwapGate

        return self.append(SqrtISwapGate(), (qubit_a, qubit_b))

    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        """Toffoli."""
        from repro.gates import CCXGate

        return self.append(CCXGate(), (control_a, control_b, target))

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int], label: str = "unitary") -> "QuantumCircuit":
        """Append an arbitrary unitary on the given qubits."""
        return self.append(UnitaryGate(matrix, label=label), tuple(qubits))

    def barrier(self, qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Append a barrier (ignored by all counting metrics)."""
        if qubits is None:
            qubits = range(self._num_qubits)
        return self.append(Barrier(len(tuple(qubits))), tuple(qubits))

    # -- counting and metrics --------------------------------------------------

    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names."""
        return dict(Counter(inst.name for inst in self._instructions))

    def _counters(self) -> _PaperCounters:
        """The paper counters, walked once and cached until the next append."""
        profile = self._profile
        if profile is None:
            profile = self._profile = _paper_counters(self._instructions, self._num_qubits)
        return profile

    def size(self) -> int:
        """Total number of instructions (barriers excluded)."""
        return self._counters().size

    def num_nonlocal_gates(self) -> int:
        """Number of instructions acting on two or more qubits."""
        return sum(
            1
            for inst in self._instructions
            if inst.num_qubits >= 2 and inst.name != "barrier"
        )

    def two_qubit_gate_count(self) -> int:
        """Number of two-qubit instructions."""
        return self._counters().two_qubit

    def swap_count(self, induced_only: bool = False) -> int:
        """Number of SWAP instructions, optionally only transpiler-induced ones."""
        counters = self._counters()
        return counters.induced_swaps if induced_only else counters.swaps

    def depth(self, weight: Optional[Callable[[Instruction], float]] = None) -> float:
        """Longest dependency path through the circuit.

        Args:
            weight: optional per-instruction weight; defaults to 1 for every
                non-barrier instruction (ordinary circuit depth).
        """
        if weight is None:
            return self._counters().depth
        frontier = [0.0] * self._num_qubits
        longest = 0.0
        for instruction in self._instructions:
            start = max(frontier[q] for q in instruction.qubits)
            end = start + weight(instruction)
            for qubit in instruction.qubits:
                frontier[qubit] = end
            longest = max(longest, end)
        return longest

    def critical_path_count(self, predicate: Callable[[Instruction], bool]) -> int:
        """Maximum number of predicate-selected instructions on any path.

        This is the quantity the paper calls "critical path SWAPs" (with the
        predicate selecting SWAP gates) and "pulse duration" / "critical path
        2Q gates" (with the predicate selecting two-qubit basis gates).
        """
        return int(self.depth(weight=lambda inst: 1.0 if predicate(inst) else 0.0))

    def critical_path_swaps(self, induced_only: bool = False) -> int:
        """Critical-path SWAP count (paper Figs. 4, 11, 12 bottom rows)."""
        counters = self._counters()
        return counters.critical_induced_swaps if induced_only else counters.critical_swaps

    def critical_path_two_qubit(self) -> int:
        """Critical-path two-qubit gate count (paper Figs. 13, 14 bottom rows)."""
        return self._counters().critical_two_qubit

    def weighted_duration(self) -> float:
        """Critical-path duration using each gate's relative pulse duration.

        Single-qubit gates contribute zero (the paper treats them as free);
        two-qubit gates contribute :meth:`Gate.duration`, so e.g. an
        ``n``-th-root iSWAP contributes ``1/n``.
        """
        return self._counters().weighted_duration

    # -- analysis ---------------------------------------------------------------

    def two_qubit_interactions(self) -> Counter:
        """Histogram of unordered qubit pairs touched by two-qubit gates."""
        pairs: Counter = Counter()
        for instruction in self._instructions:
            if instruction.is_two_qubit:
                pairs[tuple(sorted(instruction.qubits))] += 1
        return pairs

    def to_unitary(self) -> np.ndarray:
        """Full circuit unitary (little-endian register ordering).

        Intended for verification on small circuits; the cost is
        ``O(4^n)`` memory.
        """
        from repro.simulator.unitary import circuit_unitary

        return circuit_unitary(self)
