"""The workload memo: shared builds, private copies, no stale or failed entries."""

from __future__ import annotations

import pytest

from repro.circuits import QuantumCircuit
from repro.workloads import build_workload, register_workload
from repro.workloads.registry import _BUILDERS, WORKLOAD_CACHE


@pytest.fixture
def scratch_workload():
    """A test-only registry name, removed (with its memo entries) afterwards."""
    name = "MemoTestWorkload"
    yield name
    _BUILDERS.pop(name, None)
    WORKLOAD_CACHE.clear()


def _line(num_qubits: int, seed: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name=f"line-{num_qubits}")
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.metadata["seed"] = seed
    return circuit


class TestCopies:
    def test_equal_but_distinct(self):
        first = build_workload("QuantumVolume", 6, seed=4)
        second = build_workload("QuantumVolume", 6, seed=4)
        assert first is not second
        assert first.instructions == second.instructions
        assert first.name == second.name
        assert first.metadata == second.metadata
        assert first.metadata is not second.metadata

    def test_appending_leaves_the_next_call_unchanged(self):
        first = build_workload("GHZ", 5)
        expected = first.instructions
        first.cx(0, 4)
        first.metadata["touched"] = True
        again = build_workload("GHZ", 5)
        assert again.instructions == expected
        assert "touched" not in again.metadata

    def test_memoized_build_equals_a_fresh_build(self, scratch_workload):
        calls = []

        def builder(num_qubits, seed):
            calls.append((num_qubits, seed))
            return _line(num_qubits, seed)

        register_workload(scratch_workload, builder)
        circuits = [build_workload(scratch_workload, 4, seed=1) for _ in range(3)]
        assert calls == [(4, 1)]
        fresh = _line(4, 1)
        for circuit in circuits:
            assert circuit.instructions == fresh.instructions
            assert circuit.metadata == fresh.metadata
            assert circuit.depth() == fresh.depth()


class TestKeys:
    def test_seed_and_width_are_part_of_the_key(self):
        assert build_workload("QuantumVolume", 6, seed=1).instructions != build_workload(
            "QuantumVolume", 6, seed=2
        ).instructions
        assert build_workload("GHZ", 5).num_qubits == 5
        assert build_workload("GHZ", 6).num_qubits == 6

    def test_overwritten_builder_is_served(self, scratch_workload):
        register_workload(scratch_workload, _line)
        assert len(build_workload(scratch_workload, 4)) == 3

        def longer(num_qubits, seed):
            circuit = _line(num_qubits, seed)
            circuit.h(0)
            return circuit

        register_workload(scratch_workload, longer, overwrite=True)
        assert len(build_workload(scratch_workload, 4)) == 4


class TestFailures:
    def test_builder_errors_are_raised_again_not_cached(self, scratch_workload):
        calls = []

        def picky(num_qubits, seed):
            calls.append(num_qubits)
            if num_qubits < 3:
                raise ValueError("needs three qubits")
            return _line(num_qubits, seed)

        register_workload(scratch_workload, picky)
        for _ in range(2):
            with pytest.raises(ValueError, match="needs three qubits"):
                build_workload(scratch_workload, 2)
        assert calls == [2, 2]
        assert len(build_workload(scratch_workload, 3)) == 2


class TestBound:
    def test_memo_stays_bounded(self):
        maxsize = WORKLOAD_CACHE.stats().maxsize
        for size in range(2, maxsize + 10):
            build_workload("GHZ", size)
            assert len(WORKLOAD_CACHE) <= maxsize
        assert len(WORKLOAD_CACHE) == maxsize
        builder = _BUILDERS["GHZ"]
        assert ("GHZ", maxsize + 9, 0, builder) in WORKLOAD_CACHE
        assert ("GHZ", 2, 0, builder) not in WORKLOAD_CACHE
