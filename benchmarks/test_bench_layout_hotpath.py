"""Benchmark: layout hot path and a parallel rerun on a warm result cache.

Companion of ``test_bench_routing_hotpath.py`` for three claims:

* the vectorized :class:`DenseLayout` scorer lays a batch of 48-qubit
  corral QV circuits out at least 3x faster than the legacy Python-loop
  scorer of the test-only oracle ``ReferenceDenseLayout``
  (``tests/oracles.py``), selecting bit-identical layouts;
* the in-tree VF2 search
  (:func:`~repro.transpiler.passes.vf2_layout.first_monomorphism`) runs
  every search of the ``l3-noisy`` grid (seed 1) at least 20x faster than
  networkx's ``GraphMatcher`` (the oracle
  ``reference_first_monomorphism``) and returns the same embeddings: it
  visits candidates in networkx's order but skips the pairs that cannot
  complete an embedding (degree, triangle and reachability bounds);
* a parallel (``--workers N``) rerun against a warm shared cache dir
  performs **zero** transpiles: the parent serves every point off disk
  before dispatch, and its ``CacheStats`` count the disk hits.

The DAGs are prebuilt outside the timed region (they are shared with the
routing stage in a real pipeline and identical for both scorers), so the
timer isolates exactly the subset-search + ranking work that was
vectorized.
"""

from __future__ import annotations

import time
import warnings

from l3_noisy_grid import vf2_searches
from oracles import ReferenceDenseLayout, reference_first_monomorphism
from repro.circuits.dag import DAGCircuit
from repro.core.pipeline import run_sweep
from repro.runtime import ExperimentRunner, PersistentResultCache
from repro.topology import corral_topology
from repro.transpiler import DenseLayout, PropertySet, make_target
from repro.transpiler.passes.vf2_layout import first_monomorphism
from repro.workloads import quantum_volume_circuit

LAYOUT_QUBITS = 48  # Corral with 24 posts — the acceptance-bar device
LAYOUT_BATCH = 10  # one sweep's worth of QV instances

SWEEP_WORKLOADS = ("QuantumVolume", "GHZ")
SWEEP_SIZES = (12, 16, 20)
SWEEP_SEED = 11
SWEEP_WORKERS = 4


def _layout_batch(layout_cls):
    # A fresh CouplingMap per scorer: the densest-subset memo never leaks
    # across the comparison.
    coupling_map = corral_topology(LAYOUT_QUBITS // 2, (1, 1))
    prepared = []
    for seed in range(LAYOUT_BATCH):
        circuit = quantum_volume_circuit(LAYOUT_QUBITS, seed=seed)
        properties = PropertySet()
        DAGCircuit.shared(circuit, properties)  # prebuilt, as routing shares it
        prepared.append((circuit, properties))
    layout_pass = layout_cls(coupling_map)
    start = time.perf_counter()
    layouts = []
    for circuit, properties in prepared:
        layout_pass.run(circuit, properties)
        layouts.append(properties["layout"].to_dict())
    elapsed = time.perf_counter() - start
    return layouts, elapsed


def test_bench_dense_layout_vectorized_speedup(benchmark, emit):
    vector_layouts, vector_seconds = _layout_batch(DenseLayout)
    reference_layouts, reference_seconds = _layout_batch(ReferenceDenseLayout)
    benchmark.pedantic(_layout_batch, args=(DenseLayout,), rounds=1, iterations=1)

    # Same circuits, same device: layout selection must be bit-identical,
    # not merely equally good.
    assert vector_layouts == reference_layouts
    speedup = reference_seconds / max(vector_seconds, 1e-9)
    emit(
        benchmark,
        f"Vectorized DenseLayout vs legacy scorer "
        f"({LAYOUT_QUBITS}-qubit corral QV x{LAYOUT_BATCH})",
        {
            "qubits": LAYOUT_QUBITS,
            "circuits": LAYOUT_BATCH,
            "reference_seconds": round(reference_seconds, 4),
            "vector_seconds": round(vector_seconds, 4),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 3.0


VF2_SEED = 1  # the l3-noisy benchmark seed whose grid is searched


def _search_all(search, graphs):
    start = time.perf_counter()
    mappings = [search(device, pattern) for device, pattern in graphs]
    return mappings, time.perf_counter() - start


def test_bench_vf2_search(benchmark, emit):
    """Every search the pre-check lets through on the l3-noisy grid."""
    searches = vf2_searches(VF2_SEED)
    # Each search gets the graphs it takes: adjacency mappings for the
    # in-tree search, networkx graphs with the same orders for the oracle.
    graphs = [(device.adjacency(), pattern) for _, device, pattern, _ in searches]
    reference_graphs = [(device.graph, reference) for _, device, _, reference in searches]
    mappings, seconds = _search_all(first_monomorphism, graphs)
    reference, reference_seconds = _search_all(reference_first_monomorphism, reference_graphs)
    benchmark.pedantic(_search_all, args=(first_monomorphism, graphs), rounds=1, iterations=1)

    # Same first embedding, insertion order included: the layout the pass
    # derives from it must not depend on which search ran.
    assert [None if m is None else list(m.items()) for m in mappings] == [
        None if m is None else list(m.items()) for m in reference
    ]
    speedup = reference_seconds / max(seconds, 1e-9)
    emit(
        benchmark,
        f"In-tree VF2 search vs networkx GraphMatcher (l3-noisy grid, seed {VF2_SEED})",
        {
            "searches": len(searches),
            "embeddings": sum(m is not None for m in mappings),
            "networkx_seconds": round(reference_seconds, 4),
            "search_seconds": round(seconds, 4),
            "speedup_vs_networkx": round(speedup, 2),
        },
    )
    assert speedup >= 20.0


def _parallel_sweep(cache_dir):
    runner = ExperimentRunner(
        parallel=True,
        max_workers=SWEEP_WORKERS,
        result_cache=PersistentResultCache(cache_dir),
    )
    targets = [
        make_target(corral_topology(12, (1, 1)), "siswap", name="corral-24q-siswap"),
        make_target(corral_topology(16, (1, 1)), "siswap", name="corral-32q-siswap"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # sandbox pool fallback
        with runner:
            start = time.perf_counter()
            result = run_sweep(
                SWEEP_WORKLOADS, SWEEP_SIZES, targets, seed=SWEEP_SEED, runner=runner
            )
            elapsed = time.perf_counter() - start
    return result, runner.result_cache.stats(), elapsed


def test_bench_parallel_rerun_on_warm_cache_transpiles_nothing(benchmark, emit, tmp_path):
    """A warm parallel rerun serves every point from disk, in the parent."""
    cold, cold_stats, cold_seconds = _parallel_sweep(tmp_path)
    warm, warm_stats, warm_seconds = _parallel_sweep(tmp_path)
    benchmark.pedantic(lambda: _parallel_sweep(tmp_path), rounds=1, iterations=1)

    assert [r.as_dict() for r in warm] == [r.as_dict() for r in cold]
    # The acceptance bar: zero transpiles on the parallel warm rerun, every
    # point a disk hit in the parent's CacheStats.
    assert warm_stats.computed == 0
    assert warm_stats.disk_hits == len(cold.records)
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    emit(
        benchmark,
        f"Parallel (--workers {SWEEP_WORKERS}) rerun on a warm shared cache dir",
        {
            "points": len(cold.records),
            "workers": SWEEP_WORKERS,
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "speedup": round(speedup, 1),
            "cold": str(cold_stats),
            "warm": str(warm_stats),
        },
    )
    assert speedup >= 2.0
