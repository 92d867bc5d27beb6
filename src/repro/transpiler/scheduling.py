"""Gate-duration models and circuit scheduling.

The paper's duration metric is the *number* of two-qubit basis gates on the
critical path, with each ``n``-th-root iSWAP weighted ``1/n`` (Section 3.1
and 6.3).  This module generalises that to a wall-clock schedule:

* :class:`GateDurations` assigns a physical duration (in nanoseconds) to
  every gate, with presets for the three modulators the paper compares
  (SNAIL parametric drive, IBM cross-resonance, Google tunable coupler).
* :func:`schedule_asap` / :func:`schedule_alap` produce a
  :class:`Schedule` — start/stop times for every instruction under the
  as-soon-as-possible / as-late-as-possible disciplines.  Both walk the
  circuit once, ask :meth:`GateDurations.duration_of` once per gate
  object, and record two flat lists in circuit order: the start and the
  stop times.
* :class:`Schedule` reports total duration, per-qubit busy and idle time,
  and the parallelism profile from those lists, all of which feed the
  reliability study (:mod:`repro.core.reliability`).  It pairs them with
  the instructions as :class:`TimedInstruction` objects only when
  :attr:`Schedule.timed_instructions` is read.

Because the paper normalises away engineering maturity (Section 4.2), the
preset numbers are representative rather than calibrated: what matters for
the experiments is the *ratio* structure — e.g. that a SNAIL ``n``-th-root
iSWAP pulse scales like ``1/n`` of the full iSWAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

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
    """A timed view of a circuit under a given duration model.

    The schedule is the circuit plus two flat lists in circuit order: each
    instruction's start and stop time (ns).  Every aggregate reads the
    lists; :attr:`timed_instructions` pairs them with the instructions on
    first read.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        starts: Sequence[float],
        stops: Sequence[float],
        durations: GateDurations,
        discipline: str,
    ):
        self._circuit = circuit
        self._starts = list(starts)
        self._stops = list(stops)
        self._durations = durations
        self._discipline = discipline
        self._timed: Optional[List[TimedInstruction]] = None

    # -- structure ------------------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        """The scheduled circuit."""
        return self._circuit

    @property
    def timed_instructions(self) -> List[TimedInstruction]:
        """Instructions with start/stop times, in start-time order."""
        if self._timed is None:
            self._timed = [
                TimedInstruction(instruction, start, stop)
                for instruction, start, stop in zip(self._circuit, self._starts, self._stops)
            ]
        return sorted(self._timed, key=lambda t: (t.start, t.stop))

    @property
    def discipline(self) -> str:
        """"asap" or "alap"."""
        return self._discipline

    def __len__(self) -> int:
        return len(self._starts)

    # -- aggregate metrics ------------------------------------------------------

    def _spans(self) -> List[float]:
        """Each instruction's scheduled duration, ``stop - start``, in circuit order."""
        return [stop - start for start, stop in zip(self._starts, self._stops)]

    def total_duration(self) -> float:
        """Makespan of the schedule in nanoseconds."""
        return max(self._stops, default=0.0)

    def _busy_times(self) -> List[float]:
        """Busy time of every qubit, from one pass over the instructions.

        Each qubit's durations are summed in instruction order by the
        builtin ``sum``, exactly as a per-qubit scan would sum them (a
        running ``+=`` would differ: ``sum`` compensates float rounding
        from Python 3.12 on).
        """
        durations: List[List[float]] = [[] for _ in range(self._circuit.num_qubits)]
        for instruction, span in zip(self._circuit, self._spans()):
            for qubit in instruction.qubits:
                durations[qubit].append(span)
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
        return sum(self._spans()) / makespan

    def two_qubit_duration(self) -> float:
        """Time spent in two-qubit pulses summed over all instructions."""
        return sum(
            span
            for instruction, span in zip(self._circuit, self._spans())
            if instruction.is_two_qubit
        )

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
        for start, stop in zip(self._starts, self._stops):
            if stop - start <= 0.0:
                continue
            counts += (grid >= start) & (grid < stop)
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule({self._discipline}, instructions={len(self)}, "
            f"duration={self.total_duration():.1f}ns)"
        )


def _gate_durations(circuit: QuantumCircuit, durations: GateDurations) -> List[float]:
    """Every instruction's duration, with one ``duration_of`` per gate object.

    Keyed by ``id()``: the circuit holds every gate until the caller returns.
    """
    by_gate: Dict[int, float] = {}
    values = []
    for instruction in circuit:
        key = id(instruction.gate)
        duration = by_gate.get(key)
        if duration is None:
            duration = by_gate[key] = durations.duration_of(instruction)
        values.append(duration)
    return values


def schedule_asap(circuit: QuantumCircuit, durations: GateDurations) -> Schedule:
    """Schedule every instruction as soon as its qubits are free."""
    frontier = [0.0] * circuit.num_qubits
    starts: List[float] = []
    stops: List[float] = []
    for instruction, duration in zip(circuit, _gate_durations(circuit, durations)):
        qubits = instruction.qubits
        start = max(map(frontier.__getitem__, qubits))
        stop = start + duration
        for qubit in qubits:
            frontier[qubit] = stop
        starts.append(start)
        stops.append(stop)
    return Schedule(circuit, starts, stops, durations, discipline="asap")


def schedule_alap(circuit: QuantumCircuit, durations: GateDurations) -> Schedule:
    """Schedule every instruction as late as possible without stretching the makespan."""
    makespan = schedule_asap(circuit, durations).total_duration()
    frontier = [makespan] * circuit.num_qubits
    starts: List[float] = []
    stops: List[float] = []
    gate_durations = _gate_durations(circuit, durations)
    for instruction, duration in zip(reversed(circuit.instructions), reversed(gate_durations)):
        qubits = instruction.qubits
        stop = min(map(frontier.__getitem__, qubits))
        start = stop - duration
        for qubit in qubits:
            frontier[qubit] = start
        starts.append(start)
        stops.append(stop)
    starts.reverse()
    stops.reverse()
    return Schedule(circuit, starts, stops, durations, discipline="alap")


def critical_path_duration(circuit: QuantumCircuit, durations: GateDurations) -> float:
    """Longest dependency chain measured in nanoseconds (no scheduling object)."""
    return float(circuit.depth(weight=durations.duration_of))
