"""Tests for gate-duration models and ASAP/ALAP scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from l3_noisy_grid import pass_inputs
from oracles import reference_schedule_alap, reference_schedule_asap

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.gates import (
    CCXGate,
    CXGate,
    FSimGate,
    HGate,
    NthRootISwapGate,
    RZGate,
    SqrtISwapGate,
    SwapGate,
    SycamoreGate,
)
from repro.transpiler.passes.schedule_analysis import ScheduleAnalysis
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.scheduling import (
    GateDurations,
    critical_path_duration,
    schedule_alap,
    schedule_asap,
)
from repro.workloads import build_workload


def layered_circuit() -> QuantumCircuit:
    """Two parallel CX layers plus a dependent third gate."""
    circuit = QuantumCircuit(4, name="layered")
    circuit.cx(0, 1)
    circuit.cx(2, 3)
    circuit.cx(1, 2)
    return circuit


class TestGateDurations:
    def test_rejects_negative_durations(self):
        with pytest.raises(ValueError):
            GateDurations(one_qubit=-1.0)
        with pytest.raises(ValueError):
            GateDurations(two_qubit_default=0.0)
        with pytest.raises(ValueError):
            GateDurations(by_name={"cx": -5.0})

    def test_presets_exist_for_all_modulators(self):
        for modulator in ("snail", "CR", "FSIM"):
            durations = GateDurations.for_modulator(modulator)
            assert durations.two_qubit_default > 0.0

    def test_unknown_modulator_raises(self):
        with pytest.raises(ValueError):
            GateDurations.for_modulator("laser")

    def test_nth_root_iswap_scales_inversely_with_n(self):
        durations = GateDurations(iswap_full=400.0)
        full = durations.duration_of(Instruction(NthRootISwapGate(1), (0, 1)))
        half = durations.duration_of(Instruction(NthRootISwapGate(2), (0, 1)))
        quarter = durations.duration_of(Instruction(NthRootISwapGate(4), (0, 1)))
        assert full == pytest.approx(400.0)
        assert half == pytest.approx(200.0)
        assert quarter == pytest.approx(100.0)

    def test_by_name_override_wins(self):
        durations = GateDurations(by_name={"cx": 123.0})
        assert durations.duration_of(Instruction(CXGate(), (0, 1))) == pytest.approx(123.0)

    def test_one_qubit_duration(self):
        durations = GateDurations(one_qubit=17.0)
        assert durations.duration_of(Instruction(HGate(), (0,))) == pytest.approx(17.0)

    def test_barrier_is_free(self):
        circuit = QuantumCircuit(2)
        circuit.barrier()
        (barrier,) = circuit.instructions
        assert GateDurations().duration_of(barrier) == 0.0

    def test_snail_preset_siswap_is_half_iswap(self):
        durations = GateDurations.snail()
        siswap = durations.duration_of(Instruction(SqrtISwapGate(), (0, 1)))
        iswap = durations.duration_of(Instruction(NthRootISwapGate(1), (0, 1)))
        assert siswap == pytest.approx(iswap / 2.0)


class TestAsapSchedule:
    def test_parallel_gates_start_together(self):
        schedule = schedule_asap(layered_circuit(), GateDurations(two_qubit_default=100.0))
        starts = [t.start for t in schedule.timed_instructions]
        assert starts[0] == pytest.approx(0.0)
        assert starts[1] == pytest.approx(0.0)
        assert starts[2] == pytest.approx(100.0)

    def test_total_duration_equals_critical_path(self):
        durations = GateDurations(two_qubit_default=100.0)
        circuit = layered_circuit()
        schedule = schedule_asap(circuit, durations)
        assert schedule.total_duration() == pytest.approx(
            critical_path_duration(circuit, durations)
        )

    def test_empty_circuit_has_zero_duration(self):
        schedule = schedule_asap(QuantumCircuit(2), GateDurations())
        assert schedule.total_duration() == 0.0
        assert schedule.average_parallelism() == 0.0
        assert schedule.utilisation() == 0.0

    def test_busy_plus_idle_equals_makespan(self):
        circuit = build_workload("GHZ", 5)
        durations = GateDurations.snail()
        schedule = schedule_asap(circuit, durations)
        for qubit in range(circuit.num_qubits):
            total = schedule.qubit_busy_time(qubit) + schedule.qubit_idle_time(qubit)
            assert total == pytest.approx(schedule.total_duration())

    def test_swap_heavier_than_cx_under_cr_preset(self):
        durations = GateDurations.cross_resonance()
        swap = durations.duration_of(Instruction(SwapGate(), (0, 1)))
        cx = durations.duration_of(Instruction(CXGate(), (0, 1)))
        assert swap == pytest.approx(3 * cx)


class TestAlapSchedule:
    def test_same_makespan_as_asap(self):
        circuit = build_workload("QFT", 5)
        durations = GateDurations.snail()
        asap = schedule_asap(circuit, durations)
        alap = schedule_alap(circuit, durations)
        assert alap.total_duration() == pytest.approx(asap.total_duration())

    def test_alap_starts_never_earlier_than_asap(self):
        circuit = layered_circuit()
        durations = GateDurations(two_qubit_default=50.0)
        asap = {id(t.instruction): t.start for t in schedule_asap(circuit, durations).timed_instructions}
        for timed in schedule_alap(circuit, durations).timed_instructions:
            assert timed.start >= asap[id(timed.instruction)] - 1e-9

    def test_final_gate_is_pushed_to_the_end(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.h(2)
        durations = GateDurations(one_qubit=10.0, two_qubit_default=100.0)
        alap = schedule_alap(circuit, durations)
        h_timing = [t for t in alap.timed_instructions if t.instruction.name == "h"][0]
        assert h_timing.stop == pytest.approx(alap.total_duration())


class TestScheduleMetrics:
    def test_average_parallelism_of_parallel_layer(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        schedule = schedule_asap(circuit, GateDurations(two_qubit_default=100.0))
        assert schedule.average_parallelism() == pytest.approx(2.0)

    def test_utilisation_bounds(self):
        circuit = build_workload("QuantumVolume", 6, seed=3)
        schedule = schedule_asap(circuit, GateDurations.snail())
        assert 0.0 < schedule.utilisation() <= 1.0

    def test_two_qubit_duration_counts_only_2q(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        durations = GateDurations(one_qubit=10.0, two_qubit_default=100.0)
        schedule = schedule_asap(circuit, durations)
        assert schedule.two_qubit_duration() == pytest.approx(100.0)

    def test_timeline_peaks_match_parallelism(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        schedule = schedule_asap(circuit, GateDurations(two_qubit_default=100.0))
        assert schedule.timeline(resolution=50).max() == pytest.approx(2.0)

    def test_repr_and_len(self):
        circuit = layered_circuit()
        schedule = schedule_asap(circuit, GateDurations())
        assert len(schedule) == 3


class TestScheduleProperties:
    @given(seed=st.integers(min_value=0, max_value=200), width=st.integers(min_value=2, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_no_qubit_overlap_in_asap_schedule(self, seed, width):
        circuit = build_workload("QuantumVolume", width, seed=seed)
        schedule = schedule_asap(circuit, GateDurations.snail())
        per_qubit = {q: [] for q in range(width)}
        for timed in schedule.timed_instructions:
            for qubit in timed.instruction.qubits:
                per_qubit[qubit].append((timed.start, timed.stop))
        for intervals in per_qubit.values():
            intervals.sort()
            for (start_a, stop_a), (start_b, _) in zip(intervals, intervals[1:]):
                assert start_b >= stop_a - 1e-9

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_alap_preserves_dependency_order(self, seed):
        circuit = build_workload("QuantumVolume", 5, seed=seed)
        schedule = schedule_alap(circuit, GateDurations.snail())
        last_stop = {q: -np.inf for q in range(circuit.num_qubits)}
        for timed in schedule.timed_instructions:
            for qubit in timed.instruction.qubits:
                assert timed.start >= last_stop[qubit] - 1e-9
            for qubit in timed.instruction.qubits:
                last_stop[qubit] = max(last_stop[qubit], timed.stop)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_makespan_at_least_any_single_qubit_busy_time(self, seed):
        circuit = build_workload("QAOAVanilla", 6, seed=seed)
        schedule = schedule_asap(circuit, GateDurations.cross_resonance())
        for qubit in range(circuit.num_qubits):
            assert schedule.total_duration() >= schedule.qubit_busy_time(qubit) - 1e-9

    @given(
        seed=st.integers(min_value=0, max_value=200),
        workload=st.sampled_from(["QuantumVolume", "QFT", "Adder", "TIMHamiltonian"]),
        discipline=st.sampled_from([schedule_asap, schedule_alap]),
    )
    @settings(max_examples=20, deadline=None)
    def test_aggregates_equal_per_qubit_scan_exactly(self, seed, workload, discipline):
        circuit = build_workload(workload, 6, seed=seed)
        schedule = discipline(circuit, GateDurations.snail())
        makespan = schedule.total_duration()
        # The per-qubit rescan the one-pass aggregates replaced, in
        # instruction order (float sums depend on the order).
        position = {id(instruction): index for index, instruction in enumerate(circuit)}
        timed = sorted(schedule.timed_instructions, key=lambda t: position[id(t.instruction)])
        scanned = [
            sum(t.duration for t in timed if q in t.instruction.qubits)
            for q in range(circuit.num_qubits)
        ]
        idle = [schedule.qubit_idle_time(q) for q in range(circuit.num_qubits)]
        assert [schedule.qubit_busy_time(q) for q in range(circuit.num_qubits)] == scanned
        assert schedule.total_idle_time() == sum(idle)
        assert schedule.total_idle_time() == sum(makespan - busy for busy in scanned)
        assert schedule.utilisation() == sum(scanned) / (makespan * circuit.num_qubits)


PRESETS = {
    "snail": GateDurations.snail,
    "cr": GateDurations.cross_resonance,
    "fsim": GateDurations.tunable_coupler,
}


@st.composite
def scheduled_circuits(draw):
    """Random circuits of 1-, 2- and 3-qubit gates, barriers and n-th-root iSWAPs.

    Instructions draw their gates from a small pool, so gate objects
    repeat as they do in translated circuits.
    """
    width = draw(st.integers(min_value=3, max_value=6))
    angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
    pool = [
        HGate(),
        RZGate(draw(angles)),
        CXGate(),
        SwapGate(),
        SqrtISwapGate(),
        SycamoreGate(),
        FSimGate(draw(angles), draw(angles)),
        CCXGate(),
    ] + [NthRootISwapGate(n) for n in draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))]
    circuit = QuantumCircuit(width)
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        qubits = draw(st.permutations(range(width)))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            circuit.barrier(qubits[: draw(st.integers(min_value=1, max_value=width))])
            continue
        gate = draw(st.sampled_from(pool))
        circuit.append(gate, qubits[: gate.num_qubits])
    return circuit


class TestReferenceParity:
    """The flat-list schedules against the TimedInstruction loops they replaced."""

    @given(
        circuit=scheduled_circuits(),
        preset=st.sampled_from(sorted(PRESETS)),
        disciplines=st.sampled_from(
            [(schedule_asap, reference_schedule_asap), (schedule_alap, reference_schedule_alap)]
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_schedules_agree_bit_for_bit(self, circuit, preset, disciplines):
        durations = PRESETS[preset]()
        scheduler, reference_scheduler = disciplines
        schedule = scheduler(circuit, durations)
        reference = reference_scheduler(circuit, durations)
        timed = schedule.timed_instructions
        reference_timed = reference.timed_instructions
        assert len(timed) == len(reference_timed) == len(schedule) == len(circuit)
        for ours, theirs in zip(timed, reference_timed):
            assert ours.instruction is theirs.instruction
            assert (ours.start, ours.stop) == (theirs.start, theirs.stop)
        for name in (
            "total_duration",
            "total_idle_time",
            "average_parallelism",
            "utilisation",
            "two_qubit_duration",
        ):
            assert getattr(schedule, name)() == getattr(reference, name)(), name
        assert np.array_equal(schedule.timeline(37), reference.timeline(37))

    def test_timed_instructions_are_built_once(self):
        schedule = schedule_asap(layered_circuit(), GateDurations())
        first = schedule.timed_instructions
        assert [a is b for a, b in zip(first, schedule.timed_instructions)] == [True] * 3

    def test_schedule_analysis_matches_reference_on_l3_noisy(self):
        inputs = pass_inputs(1, "schedule_analysis")
        assert len(inputs) == 92
        for label, target, circuit in inputs:
            properties = PropertySet()
            ScheduleAnalysis(target.gate_durations()).run(circuit, properties)
            reference = reference_schedule_asap(circuit, target.gate_durations())
            assert properties["scheduled_duration_ns"] == reference.total_duration(), label
            assert properties["scheduled_idle_ns"] == reference.total_idle_time(), label
            assert properties["scheduled_parallelism"] == reference.average_parallelism(), label
