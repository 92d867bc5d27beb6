"""Benchmark: every paper counter from one cached circuit walk.

:class:`~repro.circuits.circuit.QuantumCircuit` reads size, two-qubit and
SWAP counts, depth, critical-path SWAPs and two-qubit gates and the
weighted pulse duration from one walk over its instructions.  Before, each
came from its own counting loop or longest-path walk; those walks are the
test-only oracle ``reference_circuit_metrics`` (``tests/oracles.py``).

The circuits are the routed and translated outputs of the six paper
workloads at 40 qubits on Heavy-Hex+CX at seed 3: 9,935 routed and 26,012
translated gates.  The benchmark asserts that every value is identical and
that the one walk (through the public views, cache cleared) is at least
2.5x faster than the per-metric walks, and emits ``speedup_vs_four_walks``.
Each side is timed over several interleaved rounds and the fastest round
counts, so a burst of host noise does not decide the ratio.
"""

from __future__ import annotations

import time

from oracles import CIRCUIT_METRIC_VIEWS, reference_circuit_metrics
from repro.core.codesign import LARGE_DESIGN_POINTS
from repro.transpiler import transpile
from repro.workloads import build_workload
from repro.workloads.registry import PAPER_WORKLOADS

SIZE = 40
SEED = 3
ROUNDS = 5
MIN_SPEEDUP = 2.5


def _circuits():
    (heavy_hex_cx,) = [point for point in LARGE_DESIGN_POINTS if point.label == "Heavy-Hex-CX"]
    target = heavy_hex_cx.target("large")
    routed, translated = [], []
    for workload in PAPER_WORKLOADS:
        result = transpile(build_workload(workload, SIZE, seed=SEED), target, seed=SEED)
        routed.append(result.routed_circuit)
        translated.append(result.circuit)
    return routed, translated


def _one_walk(circuits):
    start = time.perf_counter()
    values = []
    for circuit in circuits:
        circuit._profile = None  # time the walk, not the cache
        values.append({key: view(circuit) for key, view in CIRCUIT_METRIC_VIEWS.items()})
    return values, time.perf_counter() - start


def _per_metric_walks(circuits):
    start = time.perf_counter()
    values = [reference_circuit_metrics(circuit) for circuit in circuits]
    return values, time.perf_counter() - start


def test_bench_circuit_core(benchmark, emit):
    routed, translated = _circuits()
    circuits = routed + translated
    walk_seconds, reference_seconds = [], []
    for _ in range(ROUNDS):
        values, seconds = _one_walk(circuits)
        walk_seconds.append(seconds)
        reference, seconds = _per_metric_walks(circuits)
        reference_seconds.append(seconds)
    benchmark.pedantic(_one_walk, args=(circuits,), rounds=1, iterations=1)

    assert values == reference
    speedup = min(reference_seconds) / max(min(walk_seconds), 1e-9)
    emit(
        benchmark,
        f"One metrics walk vs per-metric walks (paper workloads, {SIZE} qubits, Heavy-Hex+CX)",
        {
            "circuits": len(circuits),
            "routed_gates": sum(len(circuit) for circuit in routed),
            "translated_gates": sum(len(circuit) for circuit in translated),
            "one_walk_seconds": round(min(walk_seconds), 4),
            "per_metric_walks_seconds": round(min(reference_seconds), 4),
            "speedup_vs_four_walks": round(speedup, 2),
        },
    )
    assert speedup >= MIN_SPEEDUP
