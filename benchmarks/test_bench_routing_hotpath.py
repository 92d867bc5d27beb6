"""Benchmark: routing hot path and the cross-process result cache.

Four claims are exercised:

* the SABRE step loop routes a 48-qubit corral QV circuit at least 3x
  faster than the per-candidate Python-loop scorer of the test-only
  oracle (``tests/oracles.py``), with a bit-identical SWAP sequence at the
  same seed; the speed-up over the oracle's broadcast-scorer run loop
  (the production router before the step loop) is recorded, not gated;
* the noise-aware router, which runs the same step loop with its own
  scorer, routes that circuit under a seeded random noise model at least
  3x faster than its oracle (the router's pre-merge loop with the
  per-candidate scorer), with a bit-identical SWAP sequence;
* a second *process* rerunning a sweep against a shared ``--cache-dir``
  performs zero transpilations (every point is a disk hit) and finishes
  at least 5x faster than the cold run;
* the same holds for the in-process equivalent (two fresh
  :class:`~repro.runtime.PersistentResultCache` instances over one
  directory), without the interpreter-startup noise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from oracles import ReferenceNoiseAwareRouting, ReferenceSabreRouting
from repro.core.noise import NoiseModel
from repro.core.pipeline import run_sweep
from repro.runtime import ExperimentRunner, PersistentResultCache
from repro.topology import corral_topology
from repro.transpiler import (
    DenseLayout,
    NoiseAwareRouting,
    PropertySet,
    SabreRouting,
    make_target,
)
from repro.workloads import quantum_volume_circuit

_SRC = Path(__file__).resolve().parent.parent / "src"

ROUTER_SEED = 7
ROUTER_QUBITS = 48  # Corral with 24 posts — the acceptance-bar device
NOISE_SEED = 3

SWEEP_WORKLOADS = ("QuantumVolume", "GHZ")
SWEEP_SIZES = (12, 16, 20)
SWEEP_SEED = 11

#: The CLI sweep is heavy enough that compute dominates interpreter
#: startup in the cold/warm ratio (a warm run is about 1.3 s of startup
#: and disk hits on a 2-vCPU host, so the cold run must stay well above
#: 5x that as the compiler gets faster).
CLI_SWEEP = [
    "swaps",
    "--scale",
    "large",
    "--sizes",
    "24",
    "32",
    "40",
    "48",
    "--workloads",
    "QuantumVolume",
    "QFT",
]


def _device():
    return corral_topology(ROUTER_QUBITS // 2, (1, 1))


def _route(router, **options):
    coupling_map = _device()
    circuit = quantum_volume_circuit(ROUTER_QUBITS, seed=ROUTER_SEED)
    properties = PropertySet()
    DenseLayout(coupling_map).run(circuit, properties)
    start = time.perf_counter()
    routed = router(coupling_map, seed=ROUTER_SEED, **options).run(circuit, properties)
    elapsed = time.perf_counter() - start
    return routed, properties["routing_swaps"], elapsed


def test_bench_routing_vectorized_speedup(benchmark, emit):
    routed, swaps, seconds = _route(SabreRouting)
    reference_routed, reference_swaps, reference_seconds = _route(ReferenceSabreRouting)
    _, _, parent_loop_seconds = _route(ReferenceSabreRouting, engine="vector")
    benchmark.pedantic(_route, args=(SabreRouting,), rounds=1, iterations=1)

    # Same seed, same scorer semantics: the SWAP sequence must be
    # bit-identical, not merely equal in count.
    assert swaps == reference_swaps
    assert [(inst.name, inst.qubits) for inst in routed] == [
        (inst.name, inst.qubits) for inst in reference_routed
    ]
    speedup = reference_seconds / max(seconds, 1e-9)
    emit(
        benchmark,
        f"SABRE step loop vs per-candidate oracle ({ROUTER_QUBITS}-qubit corral QV)",
        {
            "qubits": ROUTER_QUBITS,
            "routing_swaps": int(swaps),
            "reference_seconds": round(reference_seconds, 3),
            "step_loop_seconds": round(seconds, 3),
            "speedup": round(speedup, 2),
            "parent_loop_seconds": round(parent_loop_seconds, 3),
            "speedup_vs_parent_loop": round(parent_loop_seconds / max(seconds, 1e-9), 2),
        },
    )
    assert speedup >= 3.0


def test_bench_noise_aware_routing_speedup(benchmark, emit):
    noise_model = NoiseModel.random(_device(), seed=NOISE_SEED)
    routed, swaps, seconds = _route(NoiseAwareRouting, noise_model=noise_model)
    reference_routed, reference_swaps, reference_seconds = _route(
        ReferenceNoiseAwareRouting, noise_model=noise_model
    )
    benchmark.pedantic(
        _route,
        args=(NoiseAwareRouting,),
        kwargs={"noise_model": noise_model},
        rounds=1,
        iterations=1,
    )

    assert swaps == reference_swaps
    assert [(inst.name, inst.qubits) for inst in routed] == [
        (inst.name, inst.qubits) for inst in reference_routed
    ]
    speedup = reference_seconds / max(seconds, 1e-9)
    emit(
        benchmark,
        f"Noise-aware step loop vs pre-merge oracle ({ROUTER_QUBITS}-qubit corral QV)",
        {
            "qubits": ROUTER_QUBITS,
            "noise_seed": NOISE_SEED,
            "routing_swaps": int(swaps),
            "reference_seconds": round(reference_seconds, 3),
            "step_loop_seconds": round(seconds, 3),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 3.0


def _disk_sweep(cache_dir) -> tuple:
    runner = ExperimentRunner(
        parallel=False, result_cache=PersistentResultCache(cache_dir)
    )
    targets = [
        make_target(corral_topology(12, (1, 1)), "siswap", name="corral-24q-siswap"),
        make_target(corral_topology(16, (1, 1)), "siswap", name="corral-32q-siswap"),
    ]
    start = time.perf_counter()
    result = run_sweep(SWEEP_WORKLOADS, SWEEP_SIZES, targets, seed=SWEEP_SEED, runner=runner)
    elapsed = time.perf_counter() - start
    return result, runner.result_cache.stats(), elapsed


def test_bench_disk_cache_cross_instance_warm(benchmark, emit, tmp_path):
    cold, cold_stats, cold_seconds = _disk_sweep(tmp_path)
    # A fresh cache instance over the same directory models a new process:
    # the memory LRU starts empty, every point must come off disk.
    warm, warm_stats, warm_seconds = _disk_sweep(tmp_path)
    benchmark.pedantic(lambda: _disk_sweep(tmp_path), rounds=1, iterations=1)

    assert [r.as_dict() for r in warm] == [r.as_dict() for r in cold]
    assert warm_stats.computed == 0
    assert warm_stats.disk_hits == len(cold)
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    emit(
        benchmark,
        "Disk-cache warm rerun (fresh cache instance, shared directory)",
        {
            "points": len(cold),
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "speedup": round(speedup, 1),
            "cold": str(cold_stats),
            "warm": str(warm_stats),
        },
    )
    assert speedup >= 5.0


def test_bench_disk_cache_cli_cross_process(benchmark, emit, tmp_path):
    """Two real CLI processes sharing ``--cache-dir``: warm does no work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro", *CLI_SWEEP, "--cache-dir", str(tmp_path)]

    def _invoke():
        started = time.perf_counter()
        process = subprocess.run(command, capture_output=True, text=True, env=env)
        elapsed = time.perf_counter() - started
        assert process.returncode == 0, process.stderr
        return process, elapsed

    cold_process, cold_seconds = _invoke()
    warm_process, warm_seconds = _invoke()
    benchmark.pedantic(_invoke, rounds=1, iterations=1)

    assert cold_process.stdout == warm_process.stdout
    cache_line = warm_process.stderr.strip().splitlines()[-1]
    assert " 0 transpiled" in cache_line, cache_line
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    emit(
        benchmark,
        "Cold vs warm CLI process on a shared --cache-dir",
        {
            "command": " ".join(CLI_SWEEP),
            "cold_seconds": round(cold_seconds, 2),
            "warm_seconds": round(warm_seconds, 2),
            "speedup": round(speedup, 1),
            "warm_cache_line": cache_line,
        },
    )
    assert speedup >= 5.0
