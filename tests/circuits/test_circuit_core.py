"""The lean circuit core: one cached metrics walk and the trusted appends.

Every public metric view of :class:`QuantumCircuit` must equal the
per-metric walk it replaced (``reference_circuit_metrics`` in
``tests/oracles.py``) exactly, with ``==``; the cache must follow every
append; and every instruction the transpiler emits through the unchecked
append paths must still pass the public checks.
"""

from __future__ import annotations

import pickle
import random

import pytest

from oracles import CIRCUIT_METRIC_VIEWS, reference_circuit_metrics
from repro.circuits import Barrier, Instruction, QuantumCircuit
from repro.core.codesign import LARGE_DESIGN_POINTS, SMALL_DESIGN_POINTS
from repro.core.noise import NoiseModel
from repro.gates import (
    CCXGate,
    CXGate,
    HGate,
    NthRootISwapGate,
    RZGate,
    SwapGate,
)
from repro.transpiler import transpile
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import TranspilerPass
from repro.transpiler.registry import _REGISTRY, register_pass
from repro.workloads import build_workload, ghz_circuit
from repro.workloads.registry import PAPER_WORKLOADS


def _views(circuit: QuantumCircuit):
    return {key: view(circuit) for key, view in CIRCUIT_METRIC_VIEWS.items()}


def _assert_views_match(circuit: QuantumCircuit) -> None:
    expected = reference_circuit_metrics(circuit)
    measured = _views(circuit)
    assert measured == expected
    # Same types too: ``depth`` and ``weighted_duration`` stay floats.
    assert {k: type(v) for k, v in measured.items()} == {
        k: type(v) for k, v in expected.items()
    }


def _random_circuit(seed: int, num_qubits: int = 7, length: int = 120) -> QuantumCircuit:
    """Barriers (full and partial), 1Q/2Q/3Q gates, induced and algorithmic
    SWAPs and fractional iSWAP durations, in seeded random order."""
    rng = random.Random(seed)
    circuit = QuantumCircuit(num_qubits, name=f"random-{seed}")
    one_qubit = [HGate(), RZGate(0.25)]
    two_qubit = [CXGate(), NthRootISwapGate(2), NthRootISwapGate(3)]
    for _ in range(length):
        kind = rng.random()
        if kind < 0.2:
            circuit.append(rng.choice(one_qubit), (rng.randrange(num_qubits),))
        elif kind < 0.5:
            circuit.append(rng.choice(two_qubit), rng.sample(range(num_qubits), 2))
        elif kind < 0.75:
            circuit.append(SwapGate(), rng.sample(range(num_qubits), 2), induced=rng.random() < 0.5)
        elif kind < 0.85:
            circuit.append(CCXGate(), rng.sample(range(num_qubits), 3))
        else:
            width = rng.randint(1, num_qubits)
            circuit.append(Barrier(width), rng.sample(range(num_qubits), width))
    return circuit


@pytest.fixture(scope="module")
def paper_grid():
    """Routed and final circuits of the six paper workloads on the five
    large design points (24 qubits, the Fig. 14 level-1 flow)."""
    circuits = []
    for point in LARGE_DESIGN_POINTS:
        target = point.target("large")
        for workload in PAPER_WORKLOADS:
            result = transpile(build_workload(workload, 24, seed=5), target, seed=5)
            circuits.append((f"{workload}@{point.label}", result))
    return circuits


class TestViewsMatchReference:
    def test_paper_workloads_on_large_design_points(self, paper_grid):
        assert len(paper_grid) == 30
        for label, result in paper_grid:
            for circuit in (result.routed_circuit, result.circuit):
                assert _views(circuit) == reference_circuit_metrics(circuit), label

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_circuits(self, seed):
        _assert_views_match(_random_circuit(seed))

    def test_circuit_with_no_instructions(self):
        circuit = QuantumCircuit(3)
        _assert_views_match(circuit)
        assert circuit.depth() == 0.0 and circuit.size() == 0

    def test_barriers_synchronise_the_swap_frontiers(self):
        """A barrier carries the SWAP chain from qubit 1 over to qubit 2."""
        circuit = QuantumCircuit(4)
        circuit.swap(0, 1, induced=True)
        circuit.barrier([1, 2])
        circuit.swap(2, 3, induced=True)
        _assert_views_match(circuit)
        assert circuit.critical_path_swaps(induced_only=True) == 2
        assert circuit.critical_path_swaps() == 2

    def test_non_swap_gates_synchronise_the_swap_frontiers(self):
        circuit = QuantumCircuit(4)
        circuit.swap(0, 1)
        circuit.cx(1, 2)
        circuit.swap(2, 3, induced=True)
        _assert_views_match(circuit)
        assert circuit.critical_path_swaps() == 2
        assert circuit.critical_path_swaps(induced_only=True) == 1

    def test_fractional_durations_add_in_path_order(self):
        circuit = QuantumCircuit(3)
        for _ in range(5):
            circuit.append(NthRootISwapGate(3), (0, 1))
            circuit.append(NthRootISwapGate(3), (1, 2))
        _assert_views_match(circuit)

    @pytest.mark.parametrize("seed", range(5))
    def test_general_walks_agree_with_the_views(self, seed):
        """``depth(weight=...)`` and ``critical_path_count`` keep the general
        walk; given the views' weights they return the views' values."""
        circuit = _random_circuit(seed)
        assert circuit.depth(
            weight=lambda inst: 0.0 if inst.name == "barrier" else 1.0
        ) == circuit.depth()
        assert circuit.depth(weight=lambda inst: inst.gate.duration()) == (
            circuit.weighted_duration()
        )
        assert circuit.critical_path_count(lambda inst: inst.name == "swap") == (
            circuit.critical_path_swaps()
        )
        assert circuit.critical_path_count(lambda inst: inst.is_two_qubit) == (
            circuit.critical_path_two_qubit()
        )


class TestCache:
    def _base(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1)
        assert circuit.depth() == 2.0  # fills the cache
        return circuit

    @pytest.mark.parametrize(
        "grow",
        [
            lambda c: c.cx(1, 2),
            lambda c: c.append(CXGate(), (1, 2)),
            lambda c: c.extend([Instruction(CXGate(), (1, 2))]),
            lambda c: c.compose(QuantumCircuit(2).cx(0, 1), qubits=[1, 2]),
            lambda c: c._append_trusted(Instruction(CXGate(), (1, 2))),
        ],
        ids=["builder", "append", "extend", "compose", "trusted"],
    )
    def test_every_append_path_clears_the_cache(self, grow):
        circuit = self._base()
        grow(circuit)
        assert circuit.depth() == 3.0
        _assert_views_match(circuit)

    def test_copy_does_not_see_later_appends(self):
        circuit = self._base()
        clone = circuit.copy()
        clone.cx(1, 2)
        assert circuit.depth() == 2.0 and clone.depth() == 3.0

    def test_pickle_without_profile_still_reports_metrics(self):
        circuit = _random_circuit(3)
        expected = reference_circuit_metrics(circuit)
        circuit.depth()  # cached on the original ...
        restored = pickle.loads(pickle.dumps(circuit))
        # ... but pickles keep the plain container format.
        assert "_profile" not in restored.__dict__
        assert _views(restored) == expected

    def test_state_from_an_older_pickle_loads(self):
        """A circuit state with no ``_profile`` key, as earlier versions wrote."""
        circuit = _random_circuit(4)
        state = {key: value for key, value in circuit.__dict__.items() if key != "_profile"}
        restored = QuantumCircuit.__new__(QuantumCircuit)
        restored.__dict__.update(state)
        assert _views(restored) == reference_circuit_metrics(circuit)


class TestTrustedAppends:
    def test_extend_keeps_the_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            QuantumCircuit(2).extend([Instruction(CXGate(), (0, 5))])


def _targets():
    targets = []
    for point in SMALL_DESIGN_POINTS:
        target = point.target("small")
        targets.append(target)
        targets.append(target.with_noise(NoiseModel.random(target.coupling_map, seed=2)))
    return targets


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_transpiled_instructions_pass_the_public_checks(level):
    """Routed and final circuits hold only re-validatable instructions on
    in-range Python ``int`` qubits (``circuit_fingerprint`` hashes their
    ``repr``)."""
    for target in _targets():
        for workload in PAPER_WORKLOADS:
            result = transpile(
                build_workload(workload, 10, seed=1), target, seed=1, optimization_level=level
            )
            for circuit in (result.routed_circuit, result.circuit):
                for instruction in circuit:
                    assert type(instruction.qubits) is tuple
                    assert all(
                        type(q) is int and 0 <= q < circuit.num_qubits
                        for q in instruction.qubits
                    ), instruction
                    Instruction(instruction.gate, instruction.qubits, induced=instruction.induced)


class _PartialLayout(TranspilerPass):
    """A user layout pass that leaves the last virtual qubit unmapped."""

    name = "partial_layout"

    def __init__(self, coupling_map):
        self._coupling_map = coupling_map

    def run(self, circuit, properties):
        properties["layout"] = Layout.trivial(circuit.num_qubits - 1)
        properties["coupling_map"] = self._coupling_map
        return circuit


@pytest.mark.parametrize("routing_method", ["sabre", "noise_aware"])
def test_routers_refuse_a_layout_that_leaves_a_used_qubit_unmapped(routing_method):
    """The routers emit unchecked, so an unmapped qubit is refused up front."""

    @register_pass("layout", "partial")
    def _partial(target, seed=0):
        return _PartialLayout(target.coupling_map)

    try:
        target = SMALL_DESIGN_POINTS[0].target("small")
        with pytest.raises(ValueError, match=r"leaves virtual qubits \[4\] unmapped"):
            transpile(
                ghz_circuit(5), target, layout_method="partial", routing_method=routing_method
            )
        # A qubit that no instruction touches may stay unmapped.
        idle_last = QuantumCircuit(5)
        idle_last.h(0).cx(0, 1).cx(1, 2).cx(2, 3)
        result = transpile(
            idle_last, target, layout_method="partial", routing_method=routing_method
        )
        assert result.routed_circuit.two_qubit_gate_count() >= 3
    finally:
        del _REGISTRY["layout"]["partial"]
