"""Batch transpilation through the experiment runtime.

``transpile_batch`` compiles many circuits onto one target by fanning the
independent compilations out through a
:class:`repro.runtime.runner.ExperimentRunner` (process-pool parallelism
with ordered collection and a serial twin) and memoizing repeated
(circuit, target, schedule) points in a
:class:`repro.runtime.cache.ResultCache`.  It is the bulk counterpart of
:func:`repro.transpiler.compile.transpile`: same results, less wall-clock
on multi-circuit workloads (a sweep's worth of QV instances, a QASM corpus,
a levels ablation).
"""

from __future__ import annotations

import hashlib
from typing import Hashable, List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.compile import TranspileResult, transpile
from repro.transpiler.target import Target


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
    runner: Optional[object] = None,
    progress: Optional[callable] = None,
    cache_dir: Optional[str] = None,
    parallel: bool = False,
    workers: Optional[int] = None,
) -> List[TranspileResult]:
    """Transpile every circuit onto ``target``, in input order.

    Args:
        circuits: the algorithm circuits.
        target: the design point.
        optimization_level / layout_method / routing_method /
        translation_mode / seed: forwarded to :func:`transpile` for every
            circuit.
        runner: optional :class:`repro.runtime.ExperimentRunner`; when
            given, compilations fan out over its process pool and repeated
            points hit its result cache.  ``None`` builds a private runner
            from ``parallel`` / ``workers`` / ``cache_dir`` (serial by
            default) and shuts it down afterwards.
        progress: optional callable invoked with a status string per
            circuit.
        cache_dir: directory for a disk-backed result cache shared across
            processes (only used when ``runner`` is ``None``; a provided
            runner brings its own cache).  ``REPRO_CACHE_DIR`` supplies a
            default.  With ``parallel=True`` the cache dir is plumbed into
            every pool worker, which consults and populates it directly.
        parallel / workers: fan the batch out over a process pool when no
            ``runner`` is given (ignored otherwise).

    Returns:
        One :class:`TranspileResult` per circuit, aligned with the input.
    """
    circuits = list(circuits)
    owns_runner = False
    if runner is None:
        # Imported lazily: the runtime package builds on core, which builds
        # on this package, so a module-level import would be cyclic.
        from repro.runtime.disk_cache import cache_dir_from_env, resolve_result_cache
        from repro.runtime.runner import ExperimentRunner

        directory = cache_dir if cache_dir is not None else cache_dir_from_env()
        cache = resolve_result_cache(directory) if directory is not None else None
        runner = ExperimentRunner(
            parallel=parallel, max_workers=workers, result_cache=cache
        )
        owns_runner = True
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
    if getattr(runner, "result_cache", None) is not None:
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
    try:
        return runner.map(
            _transpile_task, tasks, keys=keys, labels=labels, progress=progress
        )
    finally:
        if owns_runner:
            runner.close()
