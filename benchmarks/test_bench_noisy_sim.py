"""Benchmark: the vectorized density-matrix engine.

Two claims are exercised:

* the local-contraction engine beats the legacy full-expansion engine of
  the test-only oracle ``ReferenceDensityMatrixSimulator``
  (``tests/oracles.py``) by at least 5x wall-clock on an 8-qubit noisy
  Quantum Volume circuit (in practice ~40x), with matching output states;
* wall-clock vs qubit count is reported for ideal and noisy runs up to a
  width the legacy engine could not reach (its default ceiling was 10
  qubits), demonstrating the raised ceilings.

The regenerated series land in ``extra_info`` and therefore in the
``BENCH_*.json`` artifacts of the smoke and nightly CI jobs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from oracles import ReferenceDensityMatrixSimulator
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.density_matrix import DensityMatrixSimulator
from repro.workloads import quantum_volume_circuit

SEED = 3
SPEEDUP_WIDTH = 8
#: Scaling grid: the quick configuration stops at 10 qubits so the smoke CI
#: job stays fast; REPRO_FULL=1 extends to 12, past the legacy ceiling.
SCALING_WIDTHS_QUICK = (4, 6, 8, 10)
SCALING_WIDTHS_FULL = (4, 6, 8, 10, 12)


def _noise_model() -> CircuitNoiseModel:
    return CircuitNoiseModel(
        one_qubit_error=0.001, two_qubit_error=0.01, t1=100.0, t2=90.0
    )


def _timed_run(simulator_cls, width: int, noisy: bool) -> tuple:
    circuit = quantum_volume_circuit(width, seed=SEED)
    simulator = simulator_cls()
    model = _noise_model() if noisy else None
    start = time.perf_counter()
    state = simulator.run(circuit, noise_model=model)
    return time.perf_counter() - start, state


def test_bench_noisy_sim_speedup_vs_legacy(benchmark, run_once, emit):
    fast_seconds, fast_state = run_once(
        benchmark, _timed_run, DensityMatrixSimulator, SPEEDUP_WIDTH, True
    )
    slow_seconds, slow_state = _timed_run(
        ReferenceDensityMatrixSimulator, SPEEDUP_WIDTH, True
    )
    speedup = slow_seconds / max(fast_seconds, 1e-9)
    emit(
        benchmark,
        f"Vectorized vs full-expansion engine (noisy QV-{SPEEDUP_WIDTH})",
        {
            "qubits": SPEEDUP_WIDTH,
            "local_seconds": round(fast_seconds, 4),
            "expand_seconds": round(slow_seconds, 4),
            "speedup": round(speedup, 1),
        },
    )
    assert np.max(np.abs(fast_state.matrix - slow_state.matrix)) < 1e-10
    # The acceptance bar: local contractions beat full expansion >= 5x.
    assert speedup >= 5.0


def test_bench_noisy_sim_scaling(benchmark, run_once, emit):
    widths = SCALING_WIDTHS_FULL if os.environ.get("REPRO_FULL") else SCALING_WIDTHS_QUICK

    def _scale():
        rows = {}
        for width in widths:
            ideal_seconds, _ = _timed_run(DensityMatrixSimulator, width, noisy=False)
            noisy_seconds, state = _timed_run(DensityMatrixSimulator, width, noisy=True)
            rows[width] = {
                "ideal_seconds": round(ideal_seconds, 4),
                "noisy_seconds": round(noisy_seconds, 4),
                "trace": round(state.trace(), 9),
            }
        return rows

    rows = run_once(benchmark, _scale)
    emit(benchmark, "Density-matrix wall-clock vs qubit count (QV)", rows)
    for width, row in rows.items():
        assert abs(row["trace"] - 1.0) < 1e-6, f"trace drift at {width} qubits"
