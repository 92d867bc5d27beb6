"""Tests for the unitary, decomposition and result caches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.gate import UnitaryGate
from repro.decomposition import DecompositionCache, sqiswap_basis
from repro.gates import CXGate, CZGate, RZGate, SqrtISwapGate
from repro.linalg import LRUCache
from repro.linalg.random import random_unitary
from repro.linalg.weyl import weyl_coordinates
from repro.runtime import ResultCache
from repro.transpiler import BasisTranslation, PropertySet


class TestLRUCache:
    def test_get_or_create_and_hit_counters(self):
        cache = LRUCache(maxsize=4)
        assert cache.get_or_create("a", lambda: 1) == 1
        assert cache.get_or_create("a", lambda: 2) == 1
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses >= 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_least_recently_used_eviction(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes the LRU entry
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestUnitaryCache:
    def test_cached_matrix_equals_matrix(self):
        for gate in (CXGate(), SqrtISwapGate(), RZGate(0.3)):
            assert np.array_equal(gate.cached_matrix(), gate.matrix())

    def test_instances_share_one_entry(self):
        first = CXGate().cached_matrix()
        second = CXGate().cached_matrix()
        assert first is second  # same frozen buffer, keyed on (name, params)

    def test_cached_matrix_is_frozen(self):
        matrix = CXGate().cached_matrix()
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_parametrised_gates_keyed_by_params(self):
        assert not np.array_equal(
            RZGate(0.1).cached_matrix(), RZGate(0.2).cached_matrix()
        )

    def test_unitary_gate_cached_matrix(self):
        matrix = random_unitary(4, np.random.default_rng(5))
        gate = UnitaryGate(matrix)
        assert np.allclose(gate.cached_matrix(), matrix)
        with pytest.raises(ValueError):
            gate.cached_matrix()[0, 0] = 0.0


class TestDecompositionCache:
    def test_coordinates_cached_once(self):
        cache = DecompositionCache()
        matrix = CXGate().matrix()
        first = cache.coordinates(matrix)
        second = cache.coordinates(matrix)
        assert first == second
        stats = cache.stats()["coordinates"]
        assert stats.hits == 1 and stats.currsize == 1

    def test_locally_equivalent_gates_share_count_entry(self):
        cache = DecompositionCache()
        basis = sqiswap_basis()
        cx_coords = cache.coordinates(CXGate().matrix())
        cz_coords = cache.coordinates(CZGate().matrix())
        count_cx = cache.count(basis.name, cx_coords, basis.count)
        count_cz = cache.count(basis.name, cz_coords, basis.count)
        # CX and CZ share the canonical class (pi/4, 0, 0) -> one entry.
        assert count_cx == count_cz
        assert cache.stats()["counts"].currsize == 1

    def test_synthesis_cache_round_trip(self):
        cache = DecompositionCache()
        basis = sqiswap_basis()
        coords = weyl_coordinates(CXGate().matrix())
        assert cache.synthesis(basis.name, coords, "fp") is None
        circuit = QuantumCircuit(2)
        cache.store_synthesis(basis.name, coords, "fp", circuit)
        assert cache.synthesis(basis.name, coords, "fp") is circuit
        # Keyed on the exact fingerprint: a locally equivalent target with a
        # different fingerprint must not inherit this circuit.
        assert cache.synthesis(basis.name, coords, "other-fp") is None

    def test_translation_results_identical_across_shared_cache(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.swap(1, 2)
        cache = DecompositionCache()
        cold = BasisTranslation(sqiswap_basis(), cache=cache).run(
            circuit, PropertySet()
        )
        warm = BasisTranslation(sqiswap_basis(), cache=cache).run(
            circuit, PropertySet()
        )
        assert cold.count_ops() == warm.count_ops()
        assert [inst.qubits for inst in cold] == [inst.qubits for inst in warm]


class TestResultCache:
    def test_round_trip_returns_equal_copy(self):
        from repro.core.pipeline import run_point
        from repro.topology.registry import small_topologies
        from repro.transpiler import make_target

        target = make_target(
            small_topologies()["Corral1,1"], "siswap", name="Corral1,1-siswap"
        )
        record = run_point("GHZ", 5, target, seed=1)
        cache = ResultCache()
        cache.put("key", record)
        cached = cache.get("key")
        assert cached is not record
        assert cached.as_dict() == record.as_dict()
        # Mutating the returned extras must not corrupt the cached copy.
        cached.extra["workload"] = "tampered"
        assert cache.get("key").as_dict() == record.as_dict()

    def test_missing_key_returns_none(self):
        assert ResultCache().get("absent") is None
