"""Batch transpilation through the experiment runtime.

``transpile_batch`` compiles many circuits onto one target through an
:class:`repro.runtime.runner.ExperimentRunner`: the caller's runner fans
the independent compilations out over its process pool with ordered
collection, and its :class:`repro.runtime.cache.ResultCache` memoizes
repeated (circuit, target, schedule) points.  Without a runner the batch
compiles serially and uncached; the function never builds a pool or reads
a cache directory itself.  It is the bulk counterpart of
:func:`repro.transpiler.compile.transpile`: same results, less wall-clock
on multi-circuit workloads (a sweep's worth of QV instances, a QASM corpus,
a levels ablation).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.compile import TranspileResult, transpile
from repro.transpiler.target import Target

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runner import ExperimentRunner


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Stable content digest of a circuit (name, width, every instruction).

    Two circuits with identical gate sequences fingerprint identically
    across processes and sessions (unlike ``id``/``hash``), which makes the
    digest usable in result-cache keys.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{circuit.name}|{circuit.num_qubits}".encode("utf-8"))
    for instruction in circuit:
        token = (
            instruction.name,
            tuple(instruction.qubits),
            tuple(getattr(instruction.gate, "params", ())),
            bool(instruction.induced),
        )
        hasher.update(repr(token).encode("utf-8"))
    return hasher.hexdigest()


def batch_cache_key(
    circuit: QuantumCircuit,
    target: Target,
    optimization_level: int,
    layout_method: Optional[str],
    routing_method: Optional[str],
    translation_mode: Optional[str],
    seed: int,
) -> Hashable:
    """Full cache key of one batch compilation point."""
    return (
        "transpile",
        circuit_fingerprint(circuit),
        target.cache_key(),
        int(optimization_level),
        layout_method,
        routing_method,
        translation_mode,
        int(seed),
    )


def _transpile_task(
    circuit: QuantumCircuit,
    target: Target,
    optimization_level: int,
    layout_method: Optional[str],
    routing_method: Optional[str],
    translation_mode: Optional[str],
    seed: int,
) -> TranspileResult:
    """One batch element (module-level so it pickles to worker processes)."""
    return transpile(
        circuit,
        target,
        layout_method=layout_method,
        routing_method=routing_method,
        translation_mode=translation_mode,
        seed=seed,
        optimization_level=optimization_level,
    )


def transpile_batch(
    circuits: Sequence[QuantumCircuit],
    target: Target,
    optimization_level: int = 1,
    layout_method: Optional[str] = None,
    routing_method: Optional[str] = None,
    translation_mode: Optional[str] = None,
    seed: int = 0,
    runner: Optional["ExperimentRunner"] = None,
    progress: Optional[callable] = None,
) -> List[TranspileResult]:
    """Transpile every circuit onto ``target``, in input order.

    Args:
        circuits: the algorithm circuits.
        target: the design point.
        optimization_level / layout_method / routing_method /
        translation_mode / seed: forwarded to :func:`transpile` for every
            circuit.
        runner: optional :class:`repro.runtime.ExperimentRunner`; its
            process pool fans the compilations out and its result cache
            serves repeated points.  ``None`` compiles serially, uncached.
        progress: optional callable invoked with a status string per
            compiled circuit.

    Returns:
        One :class:`TranspileResult` per circuit, aligned with the input.

    Raises:
        repro.runtime.PoisonTaskError: the runner's failure policy
            quarantined a compilation that kept crashing or hanging its
            worker; the others are finished (and cached) by then.
    """
    circuits = list(circuits)
    if runner is None:
        # Imported lazily: the runtime package builds on core, which builds
        # on this package, so a module-level import would be cyclic.
        from repro.runtime.runner import serial_runner

        runner = serial_runner()
    tasks = [
        (
            circuit,
            target,
            int(optimization_level),
            layout_method,
            routing_method,
            translation_mode,
            int(seed),
        )
        for circuit in circuits
    ]
    keys = None
    if runner.result_cache is not None:
        keys = [
            batch_cache_key(
                circuit,
                target,
                optimization_level,
                layout_method,
                routing_method,
                translation_mode,
                seed,
            )
            for circuit in circuits
        ]
    labels = [f"{circuit.name} on {target.name}" for circuit in circuits]
    return runner.map(_transpile_task, tasks, keys=keys, labels=labels, progress=progress)
