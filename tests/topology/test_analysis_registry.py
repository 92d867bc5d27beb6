"""Tests for topology analysis and the named registry (Tables 1 and 2)."""

import pytest

from repro.core.codesign import SMALL_DESIGN_POINTS, design_points, design_targets
from repro.experiments.paper_values import TABLE1, TABLE2
from repro.topology import (
    format_properties_table,
    get_topology,
    large_topologies,
    properties_table,
    small_topologies,
    topology_properties,
    available_topologies,
)
from repro.topology import registry as topology_registry
from repro.transpiler import Target


class TestAnalysis:
    def test_properties_fields(self, hypercube_4d):
        props = topology_properties(hypercube_4d)
        assert props.num_qubits == 16
        assert props.diameter == 4
        assert props.average_connectivity == pytest.approx(4.0)
        row = props.as_row()
        assert row["qubits"] == 16 and row["avg_connectivity"] == 4.0

    def test_properties_table_and_formatting(self):
        registry = small_topologies()
        rows = properties_table(registry)
        rendered = format_properties_table(rows)
        assert "Corral1,1" in rendered
        assert len(rows) == len(registry)


class TestRegistry:
    def test_small_registry_membership(self):
        names = available_topologies("small")
        for expected in ("Heavy-Hex", "Tree", "Tree-RR", "Corral1,1", "Corral1,2", "Hypercube"):
            assert expected in names

    def test_large_registry_membership(self):
        names = available_topologies("large")
        assert "Lattice+AltDiagonals" in names
        assert "Corral1,1" not in names  # the paper does not scale the corral

    def test_get_topology_and_unknown(self):
        assert get_topology("Tree", "small").num_qubits == 20
        with pytest.raises(KeyError):
            get_topology("NotATopology", "small")

    def test_all_registered_topologies_are_connected(self):
        for registry in (small_topologies(), large_topologies()):
            for name, cmap in registry.items():
                assert cmap.is_connected(), name

    def test_lookups_build_only_what_they_name(self, monkeypatch):
        built = []
        for scale, builders in topology_registry._BUILDERS.items():
            for name, build in builders.items():

                def counting(build=build, key=(scale, name)):
                    built.append(key)
                    return build()

                monkeypatch.setitem(builders, name, counting)
        assert get_topology("Tree", "large").name == "Tree"
        assert built == [("large", "Tree")]
        assert "Tree" in available_topologies("small")
        assert built == [("large", "Tree")]
        assert list(small_topologies()) == [name for _, name in built[1:]]
        assert get_topology("Tree", "large") is not get_topology("Tree", "large")

    @pytest.mark.parametrize("scale", ["Small", "medium", "bogus", ""])
    def test_unknown_scale_rejected(self, scale):
        lookups = [
            lambda: get_topology("Heavy-Hex", scale=scale),
            lambda: available_topologies(scale),
            lambda: Target.from_names("Heavy-Hex", "cx", scale=scale),
            lambda: SMALL_DESIGN_POINTS[0].target(scale),
            lambda: design_points(scale),
            lambda: design_targets(scale),
        ]
        for lookup in lookups:
            with pytest.raises(ValueError, match="'small' and 'large'"):
                lookup()


class TestAgainstPaperTables:
    """Structural reproduction of paper Tables 1 and 2.

    Exact agreement is asserted for the constructions that are fully
    pinned down by the paper (square lattices, hypercube, Tree, Tree-RR,
    Corrals); the trimmed hex-family instances are only checked loosely
    because the paper does not specify the exact 20/84-qubit patches.
    """

    EXACT_SMALL = ["Square-Lattice", "Tree", "Tree-RR", "Corral1,1", "Corral1,2", "Hypercube"]
    EXACT_LARGE = ["Square-Lattice", "Lattice+AltDiagonals", "Hypercube"]

    @pytest.mark.parametrize("name", EXACT_SMALL)
    def test_table1_exact_rows(self, name):
        registry = small_topologies()
        props = topology_properties(registry[name])
        qubits, diameter, avg_distance, avg_connectivity = TABLE1[name]
        assert props.num_qubits == qubits
        assert props.diameter == pytest.approx(diameter)
        assert props.average_distance == pytest.approx(avg_distance, abs=0.01)
        assert props.average_connectivity == pytest.approx(avg_connectivity, abs=0.01)

    @pytest.mark.parametrize("name", EXACT_LARGE)
    def test_table2_exact_rows(self, name):
        registry = large_topologies()
        props = topology_properties(registry[name])
        qubits, diameter, avg_distance, avg_connectivity = TABLE2[name]
        assert props.num_qubits == qubits
        assert props.diameter == pytest.approx(diameter)
        assert props.average_distance == pytest.approx(avg_distance, abs=0.01)
        assert props.average_connectivity == pytest.approx(avg_connectivity, abs=0.01)

    @pytest.mark.parametrize("name", ["Heavy-Hex", "Hex-Lattice"])
    def test_table1_hex_rows_are_close(self, name):
        registry = small_topologies()
        props = topology_properties(registry[name])
        qubits, diameter, avg_distance, avg_connectivity = TABLE1[name]
        assert props.num_qubits == qubits
        assert props.diameter == pytest.approx(diameter, abs=3)
        assert props.average_connectivity == pytest.approx(avg_connectivity, abs=0.3)

    def test_table2_ordering_of_connectivity(self):
        """The qualitative ordering of Table 2 must hold."""
        registry = large_topologies()
        connectivity = {
            name: topology_properties(cmap).average_connectivity
            for name, cmap in registry.items()
        }
        assert connectivity["Heavy-Hex"] < connectivity["Hex-Lattice"]
        assert connectivity["Hex-Lattice"] < connectivity["Square-Lattice"]
        assert connectivity["Square-Lattice"] < connectivity["Tree"]
        assert connectivity["Tree"] < connectivity["Hypercube"]

    def test_table2_ordering_of_avg_distance(self):
        registry = large_topologies()
        distance = {
            name: topology_properties(cmap).average_distance
            for name, cmap in registry.items()
        }
        assert distance["Hypercube"] < distance["Tree-RR"] <= distance["Tree"]
        assert distance["Tree"] < distance["Square-Lattice"]
        assert distance["Square-Lattice"] < distance["Heavy-Hex"]
