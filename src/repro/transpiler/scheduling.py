"""Gate-duration models and circuit scheduling.

The paper's duration metric is the *number* of two-qubit basis gates on the
critical path, with each ``n``-th-root iSWAP weighted ``1/n`` (Section 3.1
and 6.3).  This module generalises that to a wall-clock schedule:

* :class:`GateDurations` assigns a physical duration (in nanoseconds) to
  every gate, with presets for the three modulators the paper compares
  (SNAIL parametric drive, IBM cross-resonance, Google tunable coupler).
* :func:`schedule_asap` / :func:`schedule_alap` produce a
  :class:`Schedule` — start/stop times for every instruction under the
  as-soon-as-possible / as-late-as-possible disciplines.
* :class:`Schedule` reports total duration, per-qubit busy and idle time,
  and the parallelism profile, all of which feed the reliability study
  (:mod:`repro.core.reliability`).

Because the paper normalises away engineering maturity (Section 4.2), the
preset numbers are representative rather than calibrated: what matters for
the experiments is the *ratio* structure — e.g. that a SNAIL ``n``-th-root
iSWAP pulse scales like ``1/n`` of the full iSWAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.gates import NthRootISwapGate


@dataclass
class GateDurations:
    """Maps instructions to durations in nanoseconds.

    Attributes:
        one_qubit: duration of any single-qubit gate.
        two_qubit_default: duration of a two-qubit gate not otherwise listed.
        by_name: per-gate-name overrides (e.g. ``{"cx": 300.0}``).
        iswap_full: duration of a full iSWAP; ``n``-th-root iSWAP gates are
            scheduled at ``iswap_full / n`` (paper Eq. 9).
        name: label used in reports.
    """

    one_qubit: float = 25.0
    two_qubit_default: float = 300.0
    by_name: Dict[str, float] = field(default_factory=dict)
    iswap_full: float = 400.0
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.one_qubit < 0.0 or self.two_qubit_default <= 0.0 or self.iswap_full <= 0.0:
            raise ValueError("durations must be positive (1Q may be zero)")
        for gate_name, duration in self.by_name.items():
            if duration < 0.0:
                raise ValueError(f"duration for {gate_name!r} must be non-negative")

    # -- presets --------------------------------------------------------------

    @classmethod
    def snail(cls) -> "GateDurations":
        """SNAIL parametric modulator: 1Q 25 ns, full iSWAP 400 ns, roots scale 1/n."""
        return cls(
            one_qubit=25.0,
            two_qubit_default=400.0,
            by_name={"swap": 600.0, "iswap": 400.0, "siswap": 200.0},
            iswap_full=400.0,
            name="snail",
        )

    @classmethod
    def cross_resonance(cls) -> "GateDurations":
        """IBM CR modulator: echoed CR CNOT around 300-450 ns."""
        return cls(
            one_qubit=35.0,
            two_qubit_default=370.0,
            by_name={"cx": 370.0, "swap": 3 * 370.0},
            iswap_full=740.0,
            name="cr",
        )

    @classmethod
    def tunable_coupler(cls) -> "GateDurations":
        """Google fSim coupler: SYC pulses are short (~12-30 ns) but serialised."""
        return cls(
            one_qubit=25.0,
            two_qubit_default=32.0,
            by_name={"syc": 32.0, "fsim": 32.0, "swap": 3 * 32.0},
            iswap_full=64.0,
            name="fsim",
        )

    @classmethod
    def for_modulator(cls, modulator: str) -> "GateDurations":
        """Preset lookup by modulator name ("SNAIL", "CR" or "FSIM")."""
        presets: Dict[str, Callable[[], GateDurations]] = {
            "snail": cls.snail,
            "cr": cls.cross_resonance,
            "fsim": cls.tunable_coupler,
        }
        key = modulator.lower()
        if key not in presets:
            raise ValueError(
                f"unknown modulator {modulator!r}; options: {sorted(presets)}"
            )
        return presets[key]()

    # -- lookup -------------------------------------------------------------------

    def duration_of(self, instruction: Instruction) -> float:
        """Duration (ns) of one instruction."""
        gate = instruction.gate
        if gate.name == "barrier":
            return 0.0
        if isinstance(gate, NthRootISwapGate) and gate.name not in self.by_name:
            return self.iswap_full / gate.root
        if gate.name in self.by_name:
            return self.by_name[gate.name]
        if gate.num_qubits == 1:
            return self.one_qubit
        return self.two_qubit_default


@dataclass(frozen=True)
class TimedInstruction:
    """An instruction with its scheduled start and stop times (ns)."""

    instruction: Instruction
    start: float
    stop: float

    @property
    def duration(self) -> float:
        """Scheduled duration."""
        return self.stop - self.start


class Schedule:
    """A timed view of a circuit under a given duration model."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        timed_instructions: Sequence[TimedInstruction],
        durations: GateDurations,
        discipline: str,
    ):
        self._circuit = circuit
        self._timed = list(timed_instructions)
        self._durations = durations
        self._discipline = discipline

    # -- structure ------------------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        """The scheduled circuit."""
        return self._circuit

    @property
    def timed_instructions(self) -> List[TimedInstruction]:
        """Instructions with start/stop times, in start-time order."""
        return sorted(self._timed, key=lambda t: (t.start, t.stop))

    @property
    def discipline(self) -> str:
        """"asap" or "alap"."""
        return self._discipline

    def __len__(self) -> int:
        return len(self._timed)

    # -- aggregate metrics ------------------------------------------------------

    def total_duration(self) -> float:
        """Makespan of the schedule in nanoseconds."""
        return max((t.stop for t in self._timed), default=0.0)

    def _busy_times(self) -> List[float]:
        """Busy time of every qubit, from one pass over the instructions.

        Each qubit's durations are summed in instruction order by the
        builtin ``sum``, exactly as a per-qubit scan would sum them (a
        running ``+=`` would differ: ``sum`` compensates float rounding
        from Python 3.12 on).
        """
        durations: List[List[float]] = [[] for _ in range(self._circuit.num_qubits)]
        for timed in self._timed:
            duration = timed.duration
            for qubit in timed.instruction.qubits:
                durations[qubit].append(duration)
        return [sum(values) for values in durations]

    def qubit_busy_time(self, qubit: int) -> float:
        """Total time ``qubit`` spends inside gate pulses."""
        return self._busy_times()[qubit]

    def qubit_idle_time(self, qubit: int) -> float:
        """Time ``qubit`` spends idle between t=0 and the makespan."""
        return self.total_duration() - self.qubit_busy_time(qubit)

    def total_idle_time(self) -> float:
        """Sum of idle time over every qubit (the decoherence exposure)."""
        makespan = self.total_duration()
        return sum(makespan - busy for busy in self._busy_times())

    def average_parallelism(self) -> float:
        """Mean number of simultaneously running gates (barriers excluded)."""
        makespan = self.total_duration()
        if makespan <= 0.0:
            return 0.0
        busy_area = sum(t.duration for t in self._timed)
        return busy_area / makespan

    def two_qubit_duration(self) -> float:
        """Time spent in two-qubit pulses summed over all instructions."""
        return sum(t.duration for t in self._timed if t.instruction.is_two_qubit)

    def utilisation(self) -> float:
        """Fraction of qubit-time occupied by pulses (0..1)."""
        makespan = self.total_duration()
        if makespan <= 0.0:
            return 0.0
        total = makespan * self._circuit.num_qubits
        return sum(self._busy_times()) / total

    def timeline(self, resolution: int = 100) -> np.ndarray:
        """Number of concurrently running gates sampled on a uniform grid."""
        makespan = self.total_duration()
        grid = np.linspace(0.0, makespan, num=max(2, resolution))
        counts = np.zeros_like(grid)
        for timed in self._timed:
            if timed.duration <= 0.0:
                continue
            counts += (grid >= timed.start) & (grid < timed.stop)
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule({self._discipline}, instructions={len(self._timed)}, "
            f"duration={self.total_duration():.1f}ns)"
        )


def schedule_asap(circuit: QuantumCircuit, durations: GateDurations) -> Schedule:
    """Schedule every instruction as soon as its qubits are free."""
    frontier = [0.0] * circuit.num_qubits
    timed: List[TimedInstruction] = []
    for instruction in circuit:
        duration = durations.duration_of(instruction)
        start = max(frontier[q] for q in instruction.qubits)
        stop = start + duration
        for qubit in instruction.qubits:
            frontier[qubit] = stop
        timed.append(TimedInstruction(instruction, start, stop))
    return Schedule(circuit, timed, durations, discipline="asap")


def schedule_alap(circuit: QuantumCircuit, durations: GateDurations) -> Schedule:
    """Schedule every instruction as late as possible without stretching the makespan."""
    asap = schedule_asap(circuit, durations)
    makespan = asap.total_duration()
    frontier = [makespan] * circuit.num_qubits
    reversed_timed: List[TimedInstruction] = []
    for instruction in reversed(list(circuit)):
        duration = durations.duration_of(instruction)
        stop = min(frontier[q] for q in instruction.qubits)
        start = stop - duration
        for qubit in instruction.qubits:
            frontier[qubit] = start
        reversed_timed.append(TimedInstruction(instruction, start, stop))
    return Schedule(circuit, list(reversed(reversed_timed)), durations, discipline="alap")


def critical_path_duration(circuit: QuantumCircuit, durations: GateDurations) -> float:
    """Longest dependency chain measured in nanoseconds (no scheduling object)."""
    return float(circuit.depth(weight=durations.duration_of))
