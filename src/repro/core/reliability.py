"""Wall-clock reliability estimation for co-design points.

The paper compares design points with two normalised surrogates: total 2Q
gate count (control-error-dominated machines) and critical-path pulse count
(decoherence-dominated machines).  This module closes the loop to physical
units: it transpiles a workload onto a backend, schedules the result with
the modulator's gate-duration preset, and combines gate errors with
T1/T2 decoherence over the schedule's idle time into an estimated
probability of success (EPS).

The EPS model is deliberately simple (products of per-gate fidelities and
per-qubit exponential decay over idle time) — the same first-order model
the paper's Eq. 12 uses — but because it consumes *scheduled* durations it
lets the experiments ask a question the paper leaves open: does the
co-design advantage survive when the modulators' very different pulse
lengths are taken into account?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.compile import transpile
from repro.transpiler.scheduling import GateDurations, Schedule, schedule_asap
from repro.transpiler.target import Target
from repro.workloads.registry import build_workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runner import ExperimentRunner

@dataclass(frozen=True)
class ReliabilityEstimate:
    """Reliability record for one (backend, workload instance) pair."""

    backend: str
    workload: str
    circuit_qubits: int
    total_2q: int
    critical_2q: int
    duration_ns: float
    total_idle_ns: float
    gate_success: float
    decoherence_success: float

    @property
    def success_probability(self) -> float:
        """Estimated probability of success (gate errors x decoherence)."""
        return self.gate_success * self.decoherence_success


@dataclass
class ReliabilityModel:
    """Physical parameters of the reliability estimate.

    Attributes:
        two_qubit_fidelity: average fidelity of one native two-qubit pulse.
        one_qubit_fidelity: average fidelity of one single-qubit pulse.
        t1_us: relaxation time in microseconds.
        t2_us: dephasing time in microseconds.
    """

    two_qubit_fidelity: float = 0.995
    one_qubit_fidelity: float = 0.9999
    t1_us: float = 100.0
    t2_us: float = 100.0

    def __post_init__(self) -> None:
        for fidelity in (self.two_qubit_fidelity, self.one_qubit_fidelity):
            if not 0.0 < fidelity <= 1.0:
                raise ValueError("gate fidelities must lie in (0, 1]")
        if not (self.t1_us > 0.0 and self.t2_us > 0.0):  # NaN fails too
            raise ValueError("T1 and T2 must be positive")
        if self.t2_us > 2.0 * self.t1_us + 1e-12:
            raise ValueError("physical relaxation requires T2 <= 2 * T1")

    # -- pieces -------------------------------------------------------------------

    def gate_success(self, circuit: QuantumCircuit) -> float:
        """Product of per-gate fidelities over a (physical) circuit."""
        success = 1.0
        for instruction in circuit:
            if instruction.name == "barrier":
                continue
            if instruction.num_qubits == 1:
                success *= self.one_qubit_fidelity
            else:
                success *= self.two_qubit_fidelity
        return float(success)

    def decoherence_success(self, schedule: Schedule) -> float:
        """Exponential idle-time decay accumulated over every qubit."""
        rate_per_ns = 0.5 * (1.0 / (self.t1_us * 1e3) + 1.0 / (self.t2_us * 1e3))
        return float(np.exp(-rate_per_ns * schedule.total_idle_time()))

    def to_noise_model(self, pulse_duration_ns: float = 100.0):
        """Channel-level noise model with the same physical parameters.

        Bridges the closed-form EPS surrogate to full density-matrix
        simulation: the gate fidelities become depolarising error rates and
        T1/T2 are rescaled from microseconds into pulse-duration units (one
        native 2Q pulse = ``pulse_duration_ns``), so a design point scored
        by :meth:`estimate` can be cross-checked against the vectorized
        :class:`~repro.noise.density_matrix.DensityMatrixSimulator` at
        widths up to its 14-qubit ceiling.
        """
        from repro.noise.circuit_noise import CircuitNoiseModel

        if pulse_duration_ns <= 0.0:
            raise ValueError("pulse_duration_ns must be positive")
        pulses_per_us = 1e3 / pulse_duration_ns
        return CircuitNoiseModel.from_gate_fidelity(
            self.two_qubit_fidelity,
            t1=self.t1_us * pulses_per_us,
            t2=self.t2_us * pulses_per_us,
            one_qubit_fidelity=self.one_qubit_fidelity,
        )

    # -- full estimate --------------------------------------------------------------

    def estimate(
        self,
        backend: Target,
        circuit: QuantumCircuit,
        durations: Optional[GateDurations] = None,
        layout_method: str = "dense",
        routing_method: str = "sabre",
        seed: int = 0,
    ) -> ReliabilityEstimate:
        """Transpile, schedule and score one circuit on one design point."""
        durations = durations or backend.gate_durations()
        result = transpile(
            circuit,
            backend,
            layout_method=layout_method,
            routing_method=routing_method,
            translation_mode="count",
            seed=seed,
        )
        return self.score_transpiled(backend, circuit, result, durations)

    def score_transpiled(
        self,
        backend: Target,
        circuit: QuantumCircuit,
        result,
        durations: Optional[GateDurations] = None,
    ) -> ReliabilityEstimate:
        """Score an already-transpiled circuit (no recompilation).

        ``result`` is the :func:`~repro.transpiler.compile.transpile`
        output for ``circuit`` on ``backend``; callers that need both the
        compiled circuit and its estimate (e.g.
        :func:`simulated_reliability_check`) transpile once and score here.
        """
        durations = durations or backend.gate_durations()
        # Schedule the routed circuit with per-gate 2Q counts expanded: the
        # translated circuit in "count" mode keeps original gate identities,
        # so schedule the translated circuit directly.
        schedule = schedule_asap(result.circuit, durations)
        return ReliabilityEstimate(
            backend=backend.name,
            workload=circuit.metadata.get("workload", circuit.name),
            circuit_qubits=circuit.num_qubits,
            total_2q=result.metrics.total_2q,
            critical_2q=result.metrics.critical_2q,
            duration_ns=schedule.total_duration(),
            total_idle_ns=schedule.total_idle_time(),
            gate_success=self.gate_success(result.circuit),
            decoherence_success=self.decoherence_success(schedule),
        )


def simulated_reliability_check(
    model: ReliabilityModel,
    backend: Target,
    circuit: QuantumCircuit,
    pulse_duration_ns: float = 100.0,
    seed: int = 0,
) -> dict:
    """Cross-check the closed-form EPS against a density-matrix simulation.

    Transpiles ``circuit`` onto the design point exactly as
    :meth:`ReliabilityModel.estimate` does, drops idle device qubits, and
    simulates the compiled circuit under the equivalent channel-level noise
    model (:meth:`ReliabilityModel.to_noise_model`).  Returns the
    closed-form estimate next to the simulated output fidelity so sweeps
    can assert the surrogate orders design points the same way the full
    noise simulation does.  Only usable when the compiled circuit fits the
    density-matrix ceiling (14 qubits after idle-qubit removal).
    """
    from repro.noise.circuit_noise import circuit_output_fidelity

    result = transpile(
        circuit,
        backend,
        layout_method="dense",
        routing_method="sabre",
        translation_mode="count",
        seed=seed,
    )
    estimate = model.score_transpiled(backend, circuit, result)
    compact = result.circuit.remove_idle_qubits()
    simulated = circuit_output_fidelity(
        compact, model.to_noise_model(pulse_duration_ns)
    )
    return {
        "backend": backend.name,
        "qubits": compact.num_qubits,
        "estimated_success": estimate.success_probability,
        "simulated_fidelity": simulated,
    }


def _estimate_backend(
    model: ReliabilityModel, backend: Target, circuit: QuantumCircuit, seed: int
) -> ReliabilityEstimate:
    """One backend's estimate (module-level so it pickles to workers)."""
    return model.estimate(backend, circuit, seed=seed)


def reliability_ranking(
    backends: Sequence[Target],
    workload: str,
    num_qubits: int,
    model: Optional[ReliabilityModel] = None,
    seed: int = 0,
    runner: Optional["ExperimentRunner"] = None,
) -> List[ReliabilityEstimate]:
    """Score every backend on one workload instance, best first.

    Backends are scored independently, so ``runner`` fans them out over
    worker processes without changing the ranking.
    """
    model = model or ReliabilityModel()
    circuit = build_workload(workload, num_qubits, seed=seed)
    tasks = [(model, backend, circuit, int(seed)) for backend in backends]
    if runner is None:
        from repro.runtime.runner import serial_runner

        runner = serial_runner()
    estimates = runner.map(
        _estimate_backend, tasks, labels=[backend.name for backend in backends]
    )
    return sorted(estimates, key=lambda e: -e.success_probability)


def format_reliability_report(estimates: Sequence[ReliabilityEstimate]) -> str:
    """Text table: one row per backend, best first."""
    header = (
        f"{'backend':<24}{'2Q':>7}{'crit2Q':>8}{'dur(ns)':>10}{'idle(ns)':>11}"
        f"{'gate':>8}{'decoh':>8}{'EPS':>8}"
    )
    lines = ["Reliability ranking", header, "-" * len(header)]
    for estimate in estimates:
        lines.append(
            f"{estimate.backend:<24}{estimate.total_2q:>7}{estimate.critical_2q:>8}"
            f"{estimate.duration_ns:>10.0f}{estimate.total_idle_ns:>11.0f}"
            f"{estimate.gate_success:>8.3f}{estimate.decoherence_success:>8.3f}"
            f"{estimate.success_probability:>8.3f}"
        )
    return "\n".join(lines)
