"""Tests for the basis-translation pass."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.decomposition import DecompositionCache, cx_basis, sqiswap_basis, syc_basis
from repro.linalg.random import random_unitary
from repro.simulator import circuits_equivalent
from repro.topology import corral_topology
from repro.transpiler import (
    BasisTranslation,
    BasisTranslationError,
    DenseLayout,
    PropertySet,
    SabreRouting,
)
from repro.transpiler.passes.decompose_multi import DecomposeMultiQubit
from repro.workloads import build_workload, quantum_volume_circuit

PAPER_WORKLOADS = ("QuantumVolume", "QFT", "QAOAVanilla", "TIMHamiltonian", "Adder", "GHZ")
BASES = {"cx": cx_basis, "siswap": sqiswap_basis, "syc": syc_basis}


def _independent_translation(circuit, basis):
    """Count mode by definition: every 2Q instruction becomes
    ``basis.count(matrix)`` copies of the basis gate on the same qubits, in
    order (no fingerprint, no cache); everything else passes through."""
    expected = []
    for instruction in circuit:
        if instruction.is_two_qubit:
            copies = basis.count(instruction.gate.cached_matrix())
            expected += [(basis.gate(), instruction.qubits, instruction.induced)] * copies
        else:
            expected.append((instruction.gate, instruction.qubits, instruction.induced))
    return expected


def _near_duplicates_circuit():
    """2Q gates whose fingerprints collide with an earlier gate's: parameters
    and matrix entries differing only below the 1e-10 rounding."""
    circuit = QuantumCircuit(4)
    first, second = random_unitary(4, 21), random_unitary(4, 22)
    phase = np.exp(1j * 3e-12)
    circuit.unitary(first, (0, 1)).unitary(second, (2, 3)).unitary(first, (1, 2))
    circuit.unitary(first * phase, (3, 0)).unitary(second, (0, 2))
    circuit.rzz(0.3, 0, 1).rzz(0.3 + 4e-11, 2, 3).cp(1.1, 1, 3).cp(1.1 - 3e-11, 0, 2)
    circuit.rxx(0.7, 1, 0).cx(0, 1).siswap(2, 3).swap(1, 3, induced=True)
    return circuit


class TestCountMode:
    def test_cx_passes_through_in_cx_basis(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        translated = BasisTranslation(cx_basis()).run(circuit, PropertySet())
        assert translated.count_ops() == {"cx": 1}

    def test_swap_costs_three_in_cx_and_siswap(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        for basis, name in ((cx_basis(), "cx"), (sqiswap_basis(), "siswap")):
            translated = BasisTranslation(basis).run(circuit, PropertySet())
            assert translated.two_qubit_gate_count() == 3, name

    def test_cx_costs_two_siswap(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        translated = BasisTranslation(sqiswap_basis()).run(circuit, PropertySet())
        assert translated.count_ops() == {"siswap": 2}

    def test_random_su4_costs_three_cx(self):
        circuit = QuantumCircuit(2)
        circuit.unitary(random_unitary(4, 11), (0, 1))
        translated = BasisTranslation(cx_basis()).run(circuit, PropertySet())
        assert translated.two_qubit_gate_count() == 3

    def test_random_su4_costs_four_syc(self):
        circuit = QuantumCircuit(2)
        circuit.unitary(random_unitary(4, 12), (0, 1))
        translated = BasisTranslation(syc_basis()).run(circuit, PropertySet())
        assert translated.two_qubit_gate_count() == 4

    def test_one_qubit_gates_untouched(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).rz(0.2, 1).cx(0, 1)
        translated = BasisTranslation(sqiswap_basis()).run(circuit, PropertySet())
        counts = translated.count_ops()
        assert counts["h"] == 1 and counts["rz"] == 1

    def test_basis_gate_count_recorded(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).swap(1, 2)
        properties = PropertySet()
        BasisTranslation(sqiswap_basis()).run(circuit, properties)
        assert properties["basis_gate_count"] == 2 + 3

    def test_translated_gates_act_on_same_pair(self):
        circuit = QuantumCircuit(4)
        circuit.cx(2, 3)
        translated = BasisTranslation(sqiswap_basis()).run(circuit, PropertySet())
        pairs = {inst.qubits for inst in translated if inst.is_two_qubit}
        assert pairs == {(2, 3)}

    def test_induced_flag_propagates(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1, induced=True)
        translated = BasisTranslation(cx_basis()).run(circuit, PropertySet())
        assert all(inst.induced for inst in translated if inst.is_two_qubit)

    def test_coverage_cache_reused(self):
        circuit = quantum_volume_circuit(4, seed=1)
        cache = DecompositionCache()
        translation = BasisTranslation(sqiswap_basis(), cache=cache)
        translation.run(circuit, PropertySet())
        # Each distinct SU(4) block maps to one count entry, and a second
        # run over the same circuit is served entirely from the cache.
        counts = cache.stats()["counts"]
        assert counts.currsize == circuit.two_qubit_gate_count()
        BasisTranslation(sqiswap_basis(), cache=cache).run(circuit, PropertySet())
        assert cache.stats()["counts"].currsize == counts.currsize
        assert cache.stats()["counts"].hits >= circuit.two_qubit_gate_count()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            BasisTranslation(cx_basis(), mode="exact")


class TestCountModeMatchesIndependentCount:
    """Count mode against the definition, on the circuits the sweeps translate."""

    def _check(self, circuit, basis_name):
        basis = BASES[basis_name]()
        properties = PropertySet()
        # A fresh cache, then a warm rerun: neither may change the output.
        translation = BasisTranslation(basis, cache=DecompositionCache())
        expected = _independent_translation(circuit, basis)
        for _ in range(2):
            translated = translation.run(circuit, properties)
            assert [
                (inst.gate, inst.qubits, inst.induced) for inst in translated
            ] == expected
            assert [inst.name for inst in translated] == [
                gate.name for gate, _, _ in expected
            ]
            assert properties["basis_gate_count"] == sum(
                1 for gate, _, _ in expected if gate.name == basis.name
            )

    @pytest.mark.parametrize("basis_name", sorted(BASES))
    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    def test_routed_paper_workloads(self, workload, basis_name):
        coupling_map = corral_topology(8, (1, 1))
        circuit = DecomposeMultiQubit().run(build_workload(workload, 12, seed=3), PropertySet())
        properties = PropertySet()
        DenseLayout(coupling_map).run(circuit, properties)
        routed = SabreRouting(coupling_map, seed=3).run(circuit, properties)
        assert any(inst.induced for inst in routed)
        self._check(routed, basis_name)

    @pytest.mark.parametrize("basis_name", sorted(BASES))
    def test_unitaries_and_parameters_below_fingerprint_rounding(self, basis_name):
        self._check(_near_duplicates_circuit(), basis_name)


class TestSynthesisMode:
    @pytest.mark.parametrize("basis_factory", [cx_basis, sqiswap_basis])
    def test_named_gate_synthesis_is_equivalent(self, basis_factory):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.swap(0, 1)
        translated = BasisTranslation(basis_factory(), mode="synthesis").run(
            circuit, PropertySet()
        )
        assert circuits_equivalent(circuit, translated, atol=1e-4)

    @pytest.mark.slow
    def test_random_unitary_synthesis_is_equivalent(self):
        circuit = QuantumCircuit(2)
        circuit.unitary(random_unitary(4, 21), (0, 1))
        translated = BasisTranslation(sqiswap_basis(), mode="synthesis").run(
            circuit, PropertySet()
        )
        assert circuits_equivalent(circuit, translated, atol=1e-4)

    def test_synthesis_respects_coverage_counts(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        translated = BasisTranslation(sqiswap_basis(), mode="synthesis").run(
            circuit, PropertySet()
        )
        assert translated.two_qubit_gate_count() == 2

    def test_unreachable_fidelity_raises(self):
        # With a single application allowed, a generic SU(4) cannot be
        # synthesised to the requested fidelity.
        circuit = QuantumCircuit(2)
        circuit.unitary(random_unitary(4, 22), (0, 1))
        translation = BasisTranslation(
            sqiswap_basis(), mode="synthesis", max_applications=1
        )
        with pytest.raises(BasisTranslationError):
            translation.run(circuit, PropertySet())
