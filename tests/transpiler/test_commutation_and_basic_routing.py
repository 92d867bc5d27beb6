"""Tests for CommutativeCancellation and BasicRouting."""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from l3_noisy_grid import pass_inputs
from oracles import (
    REFERENCE_COMMUTATION_CACHE,
    ReferenceCommutativeCancellation,
    _reference_joint_unitary,
    reference_instructions_commute,
    reference_pair_verdict,
)

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import UnitaryGate
from repro.circuits.instruction import Instruction
from repro.gates import (
    CCXGate,
    CPhaseGate,
    CXGate,
    CZGate,
    FSimGate,
    NthRootISwapGate,
    RXGate,
    RZGate,
    RZZGate,
    SqrtISwapGate,
    SwapGate,
    XGate,
)
from repro.linalg.fidelity import hilbert_schmidt_fidelity
from repro.linalg.random import random_two_qubit_unitary
from repro.topology import CouplingMap, get_topology
from repro.transpiler import transpile
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.passes import commutation
from repro.transpiler.passes.commutation import (
    COMMUTATION_CACHE,
    GATE_MATRIX_CACHE,
    CommutativeCancellation,
    instructions_commute,
    pair_verdict,
)
from repro.transpiler.passes.layout_passes import TrivialLayout
from repro.transpiler.passes.routing_extra import BasicRouting
from repro.workloads import build_workload


class TestCommutationPredicate:
    def test_disjoint_gates_commute(self):
        assert instructions_commute(
            Instruction(CXGate(), (0, 1)), Instruction(CXGate(), (2, 3))
        )

    def test_rz_commutes_with_cx_control(self):
        assert instructions_commute(
            Instruction(RZGate(0.3), (0,)), Instruction(CXGate(), (0, 1))
        )

    def test_rz_does_not_commute_with_cx_target(self):
        assert not instructions_commute(
            Instruction(RZGate(0.3), (1,)), Instruction(CXGate(), (0, 1))
        )

    def test_x_commutes_with_cx_target(self):
        assert instructions_commute(
            Instruction(XGate(), (1,)), Instruction(CXGate(), (0, 1))
        )

    def test_cz_gates_commute_with_each_other(self):
        assert instructions_commute(
            Instruction(CZGate(), (0, 1)), Instruction(CZGate(), (1, 2))
        )

    def test_overlapping_cx_do_not_commute(self):
        assert not instructions_commute(
            Instruction(CXGate(), (0, 1)), Instruction(CXGate(), (1, 2))
        )

    def test_diagonal_gates_commute_without_joint_unitaries(self, monkeypatch):
        def refuse(first, second):
            raise AssertionError("joint unitaries built")

        monkeypatch.setattr(commutation, "_joint_unitary", refuse)
        assert instructions_commute(
            Instruction(CPhaseGate(0.4), (0, 1)), Instruction(RZZGate(0.7), (1, 2))
        )
        # A non-diagonal partner still takes the numeric check.
        with pytest.raises(AssertionError, match="joint unitaries"):
            instructions_commute(
                Instruction(CPhaseGate(0.4), (0, 1)), Instruction(RXGate(0.7), (1,))
            )


class TestCommutativeCancellation:
    def run_pass(self, circuit: QuantumCircuit) -> QuantumCircuit:
        return CommutativeCancellation().run(circuit, PropertySet())

    def test_adjacent_inverse_pair_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        assert len(self.run_pass(circuit)) == 0

    def test_pair_separated_by_commuting_gate_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.7, 0)  # commutes with the CX control
        circuit.cx(0, 1)
        result = self.run_pass(circuit)
        assert result.count_ops() == {"rz": 1}

    def test_pair_blocked_by_non_commuting_gate_survives(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.x(0)  # does not commute with the CX control
        circuit.cx(0, 1)
        result = self.run_pass(circuit)
        assert result.count_ops().get("cx") == 2

    def test_swap_pair_separated_by_unrelated_gate_cancels(self):
        circuit = QuantumCircuit(3)
        circuit.swap(0, 1)
        circuit.cx(1, 2)
        circuit.swap(0, 1)
        # CX(1,2) does not commute with SWAP(0,1): they share qubit 1 and
        # exchanging it matters, so the SWAPs must survive.
        result = self.run_pass(circuit)
        assert result.count_ops().get("swap") == 2

    def test_swap_pair_on_untouched_qubits_cancels(self):
        circuit = QuantumCircuit(4)
        circuit.swap(0, 1)
        circuit.cx(2, 3)
        circuit.swap(0, 1)
        result = self.run_pass(circuit)
        assert "swap" not in result.count_ops()

    def test_rotation_inverse_pair_cancels(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.4, 0)
        circuit.rz(-0.4, 0)
        assert len(self.run_pass(circuit)) == 0

    def test_property_records_cancelled_count(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        properties = PropertySet()
        CommutativeCancellation().run(circuit, properties)
        assert properties["commutative_cancelled"] == 2

    def test_barriers_block_cancellation(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.barrier()
        circuit.cx(0, 1)
        result = self.run_pass(circuit)
        assert result.count_ops().get("cx") == 2

    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_pass_preserves_circuit_unitary(self, seed):
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(3)
        for _ in range(12):
            kind = rng.integers(4)
            if kind == 0:
                circuit.rz(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(3)))
            elif kind == 1:
                circuit.h(int(rng.integers(3)))
            elif kind == 2:
                a, b = rng.choice(3, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                circuit.cz(int(a), int(b))
        optimized = self.run_pass(circuit)
        fidelity = hilbert_schmidt_fidelity(circuit.to_unitary(), optimized.to_unitary())
        assert fidelity == pytest.approx(1.0, abs=1e-9)


class TestLookBack:
    """The look-back window: the 20 most recent live instructions."""

    def test_no_entry_on_the_same_qubits_asks_nothing(self, monkeypatch):
        calls = []

        def counted(first, second):
            calls.append((first, second))
            return pair_verdict(first, second)

        monkeypatch.setattr(commutation, "pair_verdict", counted)
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.rz(0.3, 1)
        circuit.cx(1, 2)
        circuit.h(2)
        circuit.cx(2, 3)
        circuit.cx(1, 0)  # (1, 0) is another tuple than (0, 1)
        circuit.cx(3, 2)
        result = CommutativeCancellation().run(circuit, PropertySet())
        assert calls == []
        assert list(result) == list(circuit)

    @pytest.mark.parametrize("between, cancels", [(19, True), (20, False)])
    def test_partner_must_be_within_twenty_live_entries(self, between, cancels):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        for step in range(between):
            circuit.rz(0.1 * (step + 1), 2)  # disjoint, and no two cancel
        circuit.cx(0, 1)
        result = CommutativeCancellation().run(circuit, PropertySet())
        assert result.count_ops() == ({"rz": between} if cancels else {"rz": between, "cx": 2})

    def test_emptied_slot_does_not_count_toward_the_window(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.x(2)
        circuit.x(2)  # cancels the X above and empties its slot
        for step in range(19):
            circuit.rz(0.1 * (step + 1), 2)
        circuit.cx(0, 1)  # the CX above is the 20th live entry
        result = CommutativeCancellation().run(circuit, PropertySet())
        assert result.count_ops() == {"rz": 19}


angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
gates = st.one_of(
    st.sampled_from(
        [CXGate(), CZGate(), SwapGate(), SqrtISwapGate(), NthRootISwapGate(4), CCXGate()]
    ),
    st.builds(FSimGate, angles, angles),
    st.builds(RZGate, angles),
    st.builds(RXGate, angles),
    st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: UnitaryGate(random_two_qubit_unitary(seed))
    ),
)


@st.composite
def overlapping_pairs(draw):
    """Two instructions on qubits 0-3 that share at least one qubit.

    A third of the pairs put the gate's inverse on the same tuple, so
    INVERSE verdicts show up, and a third put the gate or its inverse on
    the reversed tuple; with CCX in the mix the joint sets reach 3 and 4
    qubits.
    """
    first_gate = draw(gates)
    first = Instruction(
        first_gate, tuple(draw(st.permutations([0, 1, 2, 3]))[: first_gate.num_qubits])
    )
    kind = draw(st.sampled_from(["inverse", "reversed", "any"]))
    if kind == "inverse":
        second = Instruction(first_gate.inverse(), first.qubits)
    elif kind == "reversed":
        second_gate = draw(st.sampled_from([first_gate, first_gate.inverse()]))
        second = Instruction(second_gate, first.qubits[::-1])
    else:
        second_gate = draw(gates)
        second = Instruction(
            second_gate, tuple(draw(st.permutations([0, 1, 2, 3]))[: second_gate.num_qubits])
        )
    assume(set(first.qubits) & set(second.qubits))
    return first, second


def _cold() -> None:
    COMMUTATION_CACHE.clear()
    GATE_MATRIX_CACHE.clear()


def _refuse(first, second):
    raise AssertionError("joint unitaries built")


class TestVerdictMemo:
    @given(pair=overlapping_pairs())
    @settings(max_examples=200, deadline=None)
    def test_memo_matches_numeric_cold_and_warm(self, pair):
        first, second = pair
        expected = reference_pair_verdict(first, second)
        _cold()
        assert pair_verdict(first, second) == expected
        assert pair_verdict(first, second) == expected
        assert instructions_commute(first, second) == reference_instructions_commute(
            first, second
        )
        # Fresh gate objects on relabelled qubits with the same relative
        # order share the key, so this is a hit that must still be right.
        relabel = {0: 3, 1: 5, 2: 8, 3: 9}
        moved = [
            Instruction(copy.deepcopy(inst.gate), tuple(relabel[q] for q in inst.qubits))
            for inst in (first, second)
        ]
        hits = COMMUTATION_CACHE.stats().hits
        assert pair_verdict(*moved) == reference_pair_verdict(*moved) == expected
        assert COMMUTATION_CACHE.stats().hits == hits + 1

    @given(pair=overlapping_pairs())
    @settings(max_examples=100, deadline=None)
    def test_joint_unitary_matches_tensordot_expansion(self, pair):
        first, second = pair
        assume(first.qubits != second.qubits)
        expanded = commutation._joint_unitary(
            commutation._entry(first), commutation._entry(second)
        )
        for matrix, reference in zip(expanded, _reference_joint_unitary(first, second)):
            assert np.array_equal(matrix, reference)

    def test_pair_on_one_tuple_builds_no_joint_unitary(self, monkeypatch):
        monkeypatch.setattr(commutation, "_joint_unitary", _refuse)
        _cold()
        pairs = [
            (CXGate(), CXGate(), (0, 1)),  # inverse
            (CXGate(), SqrtISwapGate(), (1, 0)),  # blocks
            (SwapGate(), SwapGate(), (3, 1)),  # inverse, reversed order
            (RXGate(0.3), RZGate(0.2), (2,)),  # blocks
            (FSimGate(0.4, 0.1), FSimGate(0.4, 0.1).inverse(), (2, 0)),  # inverse
            (CCXGate(), CCXGate(), (2, 0, 1)),  # inverse
            (CCXGate(), UnitaryGate(np.diag(np.exp(1j * np.arange(8)))), (1, 2, 0)),  # blocks
            (RXGate(0.3), RXGate(0.9), (1,)),  # commutes, not diagonal
        ]
        for gate_a, gate_b, qubits in pairs:
            first, second = Instruction(gate_a, qubits), Instruction(gate_b, qubits)
            assert pair_verdict(first, second) == reference_pair_verdict(first, second)

    def test_disjoint_pairs_commute_without_an_entry(self):
        COMMUTATION_CACHE.clear()
        first, second = Instruction(CXGate(), (0, 1)), Instruction(CXGate(), (2, 3))
        assert pair_verdict(first, second) == commutation.COMMUTES
        assert len(COMMUTATION_CACHE) == 0

    def test_distinct_unitary_gates_never_share_an_entry(self):
        COMMUTATION_CACHE.clear()
        matrix = random_two_qubit_unitary(11)
        unitaries = [
            UnitaryGate(matrix),
            UnitaryGate(random_two_qubit_unitary(12)),
            UnitaryGate(matrix * np.exp(1e-13j)),
        ]
        partner = Instruction(CXGate(), (0, 1))
        for gate in unitaries:
            pair_verdict(partner, Instruction(gate, (0, 1)))
        assert len(COMMUTATION_CACHE) == len(unitaries)

    def test_parameters_are_compared_exactly(self):
        COMMUTATION_CACHE.clear()
        partner = Instruction(CXGate(), (0, 1))
        theta = 0.3
        assert theta + 1e-13 != theta
        for angle in (theta, theta + 1e-13):
            pair_verdict(Instruction(RZGate(angle), (1,)), partner)
        assert len(COMMUTATION_CACHE) == 2

    def test_cache_stays_bounded(self):
        COMMUTATION_CACHE.clear()
        maxsize = COMMUTATION_CACHE.stats().maxsize
        partner = Instruction(CXGate(), (0, 1))
        for step in range(maxsize + 20):
            pair_verdict(Instruction(RZGate(1e-3 * step), (0,)), partner)
        assert len(COMMUTATION_CACHE) == maxsize


def _same_output(circuit, passes):
    """Both passes' instructions (by identity) and cancelled counts are equal."""
    outputs = []
    for transpiler_pass in passes:
        properties = PropertySet()
        result = transpiler_pass.run(circuit, properties)
        outputs.append((result, properties["commutative_cancelled"]))
    (result, cancelled), (reference, reference_cancelled) = outputs
    return cancelled == reference_cancelled and len(result) == len(reference) and all(
        a is b for a, b in zip(result, reference)
    )


class TestReferenceParity:
    """The pass against the one it replaced, on every ``l3-noisy`` commutation input."""

    @pytest.mark.parametrize(
        "seed",
        [1, pytest.param(2, marks=pytest.mark.slow), pytest.param(3, marks=pytest.mark.slow)],
    )
    def test_l3_noisy_inputs_match_the_reference_pass(self, seed):
        _cold()
        REFERENCE_COMMUTATION_CACHE.clear()
        inputs = pass_inputs(seed, "commutative_cancellation")
        assert len(inputs) == 92
        for label, _, circuit in inputs:
            passes = (CommutativeCancellation(), ReferenceCommutativeCancellation())
            assert _same_output(circuit, passes), label

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_circuits_match_the_reference_pass(self, seed):
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(4)
        for _ in range(40):
            kind = int(rng.integers(6))
            a, b, c = (int(q) for q in rng.choice(4, size=3, replace=False))
            if kind == 0:
                circuit.rz(float(rng.choice([0.5, -0.5, 1.0])), a)
            elif kind == 1:
                circuit.h(a)
            elif kind == 2:
                circuit.cx(a, b)
            elif kind == 3:
                circuit.swap(a, b)
            elif kind == 4:
                circuit.ccx(a, b, c)
            else:
                circuit.barrier()
        passes = (CommutativeCancellation(), ReferenceCommutativeCancellation())
        assert _same_output(circuit, passes)


class TestBasicRouting:
    def route(self, circuit: QuantumCircuit, device: CouplingMap):
        properties = PropertySet()
        TrivialLayout(device).run(circuit, properties)
        routed = BasicRouting(device).run(circuit, properties)
        return routed, properties

    def test_adjacent_gate_needs_no_swaps(self):
        device = CouplingMap.line(3)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        routed, properties = self.route(circuit, device)
        assert properties["routing_swaps"] == 0
        assert routed.swap_count(induced_only=True) == 0

    def test_distant_gate_inserts_path_swaps(self):
        device = CouplingMap.line(5)
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        routed, properties = self.route(circuit, device)
        assert properties["routing_swaps"] == 3
        # After routing every 2Q gate acts on coupled qubits.
        for instruction in routed:
            if instruction.is_two_qubit:
                assert device.has_edge(*instruction.qubits)

    def test_single_qubit_gates_pass_through(self):
        device = CouplingMap.line(3)
        circuit = QuantumCircuit(3)
        circuit.h(2)
        routed, _ = self.route(circuit, device)
        assert routed.count_ops() == {"h": 1}

    def test_final_layout_tracks_swaps(self):
        device = CouplingMap.line(4)
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        _, properties = self.route(circuit, device)
        final = properties["final_layout"]
        initial = properties["layout"]
        assert final.to_dict() != initial.to_dict()

    def test_basic_routing_available_via_transpile(self):
        device = get_topology("Square-Lattice", scale="small")
        circuit = build_workload("QFT", 8)
        result = transpile(circuit, device, basis_name="cx", routing_method="basic")
        assert result.metrics.total_swaps > 0

    def test_sabre_not_worse_than_basic_on_average(self):
        """The ablation claim: the lookahead router uses no more SWAPs than the naive one."""
        device = get_topology("Square-Lattice", scale="small")
        circuit = build_workload("QuantumVolume", 12, seed=5)
        basic = transpile(circuit, device, basis_name="cx", routing_method="basic")
        sabre = transpile(circuit, device, basis_name="cx", routing_method="sabre")
        assert sabre.metrics.total_swaps <= basic.metrics.total_swaps * 1.5

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_routed_circuit_preserves_two_qubit_gate_count(self, seed):
        device = get_topology("Heavy-Hex", scale="small")
        circuit = build_workload("QuantumVolume", 8, seed=seed)
        properties = PropertySet()
        TrivialLayout(device).run(circuit, properties)
        routed = BasicRouting(device).run(circuit, properties)
        original_2q = circuit.two_qubit_gate_count()
        routed_non_swap = sum(
            1 for inst in routed if inst.is_two_qubit and not (inst.name == "swap" and inst.induced)
        )
        assert routed_non_swap == original_2q
