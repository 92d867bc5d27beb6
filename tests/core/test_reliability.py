"""Tests for the wall-clock reliability model and ranking."""

import pytest

from repro.core.reliability import (
    ReliabilityModel,
    format_reliability_report,
    reliability_ranking,
    simulated_reliability_check,
)
from repro.topology import get_topology
from repro.transpiler import make_target
from repro.workloads import build_workload


def target_for(topology: str, basis: str, name=None):
    return make_target(get_topology(topology, scale="small"), basis, name=name)


class TestReliabilityModel:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReliabilityModel(two_qubit_fidelity=0.0)
        with pytest.raises(ValueError):
            ReliabilityModel(t1_us=-1.0)
        with pytest.raises(ValueError):
            ReliabilityModel(t1_us=10.0, t2_us=30.0)

    def test_gate_success_counts_two_qubit_gates(self):
        model = ReliabilityModel(two_qubit_fidelity=0.99, one_qubit_fidelity=1.0)
        circuit = build_workload("GHZ", 4)
        assert model.gate_success(circuit) == pytest.approx(0.99 ** 3)

    def test_to_noise_model_rescales_decoherence_to_pulse_units(self):
        model = ReliabilityModel(
            two_qubit_fidelity=0.99, one_qubit_fidelity=1.0, t1_us=50.0, t2_us=40.0
        )
        noise = model.to_noise_model(pulse_duration_ns=100.0)
        # 50 us / 100 ns per pulse = 500 pulse units.
        assert noise.t1 == pytest.approx(500.0)
        assert noise.t2 == pytest.approx(400.0)
        assert noise.two_qubit_error == pytest.approx((1.0 - 0.99) * 5.0 / 4.0)
        assert noise.one_qubit_error == pytest.approx(0.0)
        with pytest.raises(ValueError):
            model.to_noise_model(pulse_duration_ns=0.0)

    def test_simulated_check_tracks_the_closed_form_estimate(self):
        backend = target_for("Corral1,1", "siswap")
        model = ReliabilityModel(two_qubit_fidelity=0.995)
        circuit = build_workload("GHZ", 5, seed=1)
        row = simulated_reliability_check(model, backend, circuit, seed=1)
        assert 0.0 < row["estimated_success"] <= 1.0
        assert 0.0 < row["simulated_fidelity"] <= 1.0 + 1e-9
        assert row["qubits"] <= 14

    def test_estimate_has_consistent_fields(self):
        backend = target_for("Corral1,1", "siswap")
        model = ReliabilityModel()
        circuit = build_workload("QuantumVolume", 8, seed=2)
        estimate = model.estimate(backend, circuit, seed=2)
        assert estimate.total_2q >= estimate.critical_2q > 0
        assert estimate.duration_ns > 0.0
        assert 0.0 < estimate.success_probability <= 1.0
        assert estimate.success_probability == pytest.approx(
            estimate.gate_success * estimate.decoherence_success
        )

    def test_shorter_t1_means_lower_success(self):
        backend = target_for("Tree", "siswap")
        circuit = build_workload("QFT", 8)
        healthy = ReliabilityModel(t1_us=200.0, t2_us=200.0).estimate(backend, circuit)
        frail = ReliabilityModel(t1_us=5.0, t2_us=5.0).estimate(backend, circuit)
        assert frail.success_probability < healthy.success_probability

    def test_durations_follow_the_modulator(self):
        snail = target_for("Tree", "siswap").gate_durations()
        cr = target_for("Heavy-Hex", "cx").gate_durations()
        fsim = target_for("Square-Lattice", "syc").gate_durations()
        assert snail.name == "snail"
        assert cr.name == "cr"
        assert fsim.name == "fsim"


class TestReliabilityRanking:
    def test_ranking_sorted_best_first(self):
        backends = [
            target_for("Heavy-Hex", "cx", name="Heavy-Hex-CX"),
            target_for("Corral1,1", "siswap", name="Corral1,1-siswap"),
        ]
        ranking = reliability_ranking(backends, "QuantumVolume", 10, seed=3)
        assert len(ranking) == 2
        assert ranking[0].success_probability >= ranking[1].success_probability

    def test_codesigned_machine_wins_on_qv(self):
        """The paper's conclusion restated in wall-clock reliability terms."""
        backends = [
            target_for("Heavy-Hex", "cx", name="Heavy-Hex-CX"),
            target_for("Corral1,1", "siswap", name="Corral1,1-siswap"),
        ]
        ranking = reliability_ranking(backends, "QuantumVolume", 12, seed=3)
        assert ranking[0].backend == "Corral1,1-siswap"

    def test_report_contains_every_backend(self):
        backends = [
            target_for("Heavy-Hex", "cx", name="Heavy-Hex-CX"),
            target_for("Tree", "siswap", name="Tree-siswap"),
        ]
        ranking = reliability_ranking(backends, "GHZ", 8)
        report = format_reliability_report(ranking)
        assert "Heavy-Hex-CX" in report
        assert "Tree-siswap" in report
