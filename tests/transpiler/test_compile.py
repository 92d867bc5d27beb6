"""Tests for the end-to-end transpile() entry point."""

import pytest

from repro.decomposition import get_basis, sqiswap_basis
from repro.topology import hypercube, square_lattice
from repro.transpiler import (
    PassManager,
    PropertySet,
    Target,
    TranspileMetrics,
    build_staged_pass_manager,
    format_metrics_table,
    transpile,
)
from repro.workloads import ghz_circuit, quantum_volume_circuit


class TestTranspile:
    def test_metrics_fields_populated(self, grid_4x4):
        result = transpile(quantum_volume_circuit(6, seed=1), grid_4x4, basis_name="cx", seed=3)
        metrics = result.metrics
        assert metrics.circuit_qubits == 6
        assert metrics.topology == grid_4x4.name
        assert metrics.basis == "cx"
        assert metrics.total_2q >= metrics.critical_2q > 0
        assert metrics.total_swaps >= metrics.critical_swaps >= 0
        assert metrics.depth > 0

    def test_final_circuit_respects_topology(self, grid_4x4):
        result = transpile(quantum_volume_circuit(8, seed=2), grid_4x4, basis_name="siswap")
        for instruction in result.circuit:
            if instruction.is_two_qubit:
                assert grid_4x4.has_edge(*instruction.qubits)

    def test_final_circuit_uses_only_basis_2q_gates(self, grid_4x4):
        result = transpile(quantum_volume_circuit(8, seed=2), grid_4x4, basis_name="siswap")
        two_qubit_names = {
            inst.name for inst in result.circuit if inst.is_two_qubit
        }
        assert two_qubit_names == {"siswap"}

    def test_basis_object_can_be_passed_directly(self, grid_4x4):
        result = transpile(ghz_circuit(5), grid_4x4, basis=sqiswap_basis())
        assert result.metrics.basis == "siswap"

    def test_oversized_circuit_rejected(self, grid_4x4):
        with pytest.raises(ValueError):
            transpile(ghz_circuit(20), grid_4x4)

    def test_weighted_duration_reflects_pulse_length(self, grid_4x4):
        circuit = quantum_volume_circuit(6, seed=5)
        cx_result = transpile(circuit, grid_4x4, basis_name="cx", seed=1)
        sis_result = transpile(circuit, grid_4x4, basis_name="siswap", seed=1)
        # Identical routing (same seed/layout); each sqrt(iSWAP) pulse is
        # half an iSWAP so the weighted duration must be smaller than the
        # plain critical-path count.
        assert sis_result.metrics.weighted_duration < sis_result.metrics.critical_2q
        assert cx_result.metrics.weighted_duration == pytest.approx(
            float(cx_result.metrics.critical_2q)
        )

    def test_unknown_methods_rejected(self, grid_4x4):
        with pytest.raises(ValueError):
            transpile(ghz_circuit(4), grid_4x4, layout_method="best")
        with pytest.raises(ValueError):
            transpile(ghz_circuit(4), grid_4x4, routing_method="magic")

    def test_alternative_routing_and_layout(self, grid_4x4):
        result = transpile(
            quantum_volume_circuit(6, seed=7),
            grid_4x4,
            layout_method="interaction",
            routing_method="stochastic",
        )
        assert result.metrics.routing_method == "stochastic"
        assert result.metrics.layout_method == "interaction"

    def test_richer_topology_gives_fewer_2q_gates(self):
        """The co-design effect on a denser topology (paper Fig. 13)."""
        circuit = quantum_volume_circuit(12, seed=4)
        lattice_result = transpile(circuit, square_lattice(4, 4), basis_name="cx", seed=1)
        corral_result = transpile(circuit, hypercube(4), basis_name="siswap", seed=1)
        assert corral_result.metrics.total_2q < lattice_result.metrics.total_2q

    def test_pass_manager_construction(self, grid_4x4):
        manager = build_staged_pass_manager(
            Target(grid_4x4, get_basis("cx")), optimization_level=1
        )
        assert isinstance(manager, PassManager)
        assert len(manager.passes) == 4

    def test_pass_timings_recorded(self, grid_4x4):
        result = transpile(ghz_circuit(5), grid_4x4)
        timings = result.properties["pass_timings"]
        assert "sabre_routing" in timings and "basis_translation" in timings


class TestMetricsFormatting:
    def test_as_dict_flattens_extra(self):
        metrics = TranspileMetrics(
            circuit_name="c",
            circuit_qubits=4,
            topology="t",
            basis="cx",
            total_swaps=1,
            critical_swaps=1,
            total_2q=2,
            critical_2q=2,
            weighted_duration=2.0,
            total_gates=5,
            depth=4,
            extra={"workload": "GHZ"},
        )
        record = metrics.as_dict()
        assert record["workload"] == "GHZ"
        assert "extra" not in record

    def test_format_table(self, grid_4x4):
        result = transpile(ghz_circuit(4), grid_4x4)
        table = format_metrics_table([result.metrics])
        assert "total_swaps" in table and grid_4x4.name in table

    def test_format_empty(self):
        assert format_metrics_table([]) == "(no data)"


class TestPassManagerInfra:
    def test_property_set_require(self):
        properties = PropertySet()
        with pytest.raises(KeyError):
            properties.require("layout")
        properties["layout"] = 1
        assert properties.require("layout") == 1

    def test_custom_pass_sequence(self, grid_4x4):
        from repro.transpiler import DenseLayout, SabreRouting

        manager = PassManager([DenseLayout(grid_4x4), SabreRouting(grid_4x4)])
        properties = PropertySet()
        routed = manager.run(ghz_circuit(6), properties)
        assert properties["final_circuit"] is routed
