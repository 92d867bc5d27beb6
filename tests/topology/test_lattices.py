"""Tests for the baseline lattice topologies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from oracles import reference_heavy_hex_lattice, reference_hex_lattice

import repro
from repro.topology import (
    heavy_hex_lattice,
    hex_lattice,
    hypercube,
    square_lattice,
    square_lattice_alt_diagonals,
    trimmed_hypercube,
)


class TestSquareLattice:
    def test_4x4_shape(self):
        lattice = square_lattice(4, 4)
        assert lattice.num_qubits == 16
        assert lattice.num_edges() == 24
        assert lattice.diameter() == 6

    def test_7x12_matches_paper_table2(self):
        lattice = square_lattice(7, 12)
        assert lattice.num_qubits == 84
        assert lattice.diameter() == 17
        assert lattice.average_connectivity() == pytest.approx(2 * 149 / 84)

    def test_degrees_bounded_by_four(self):
        lattice = square_lattice(5, 5)
        assert max(lattice.degree(q) for q in range(25)) == 4

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            square_lattice(0, 3)


class TestAltDiagonals:
    def test_adds_edges_over_plain_grid(self):
        plain = square_lattice(4, 4)
        diag = square_lattice_alt_diagonals(4, 4)
        assert diag.num_edges() > plain.num_edges()
        assert diag.num_qubits == plain.num_qubits

    def test_84_qubit_connectivity_matches_paper(self):
        diag = square_lattice_alt_diagonals(7, 12)
        assert diag.average_connectivity() == pytest.approx(5.12, abs=0.01)

    def test_contains_diagonal_edge(self):
        diag = square_lattice_alt_diagonals(3, 3)
        assert diag.has_edge(0, 4)  # (0,0) -- (1,1)


class TestHexFamilies:
    @pytest.mark.parametrize("size", [20, 40, 84])
    def test_hex_lattice_size_and_connectivity(self, size):
        lattice = hex_lattice(size)
        assert lattice.num_qubits == size
        assert lattice.is_connected()
        assert lattice.average_connectivity() <= 3.0 + 1e-9

    @pytest.mark.parametrize("size", [20, 84])
    def test_heavy_hex_size_and_sparsity(self, size):
        lattice = heavy_hex_lattice(size)
        assert lattice.num_qubits == size
        assert lattice.is_connected()
        # Heavy-hex is sparser than the plain hexagonal lattice.
        assert lattice.average_connectivity() < hex_lattice(size).average_connectivity() + 1e-9

    def test_heavy_hex_has_degree_two_bridge_qubits(self):
        lattice = heavy_hex_lattice(30)
        degrees = [lattice.degree(q) for q in range(30)]
        assert 2 in degrees
        assert max(degrees) <= 3

    def test_trim_too_small_parent_rejected(self):
        from repro.topology.lattices import _trim_to_size

        path = {0: {1: None}, 1: {0: None, 2: None}, 2: {1: None}}
        with pytest.raises(ValueError):
            _trim_to_size(path, 10)


def _adjacency(coupling_map):
    return {qubit: list(neighbours) for qubit, neighbours in coupling_map.adjacency().items()}


#: Prints ``heavy_hex_lattice(k).adjacency()`` for k = 1..10 as JSON.
_HEAVY_HEX_ADJACENCY = """
import json
from repro.topology import heavy_hex_lattice
print(json.dumps([list(heavy_hex_lattice(k).adjacency().values()) for k in range(1, 11)]))
"""


class TestNetworkxParity:
    """The ports build networkx's hex families: same edges, same adjacency order."""

    @pytest.mark.parametrize(
        "build, reference",
        [(hex_lattice, reference_hex_lattice), (heavy_hex_lattice, reference_heavy_hex_lattice)],
        ids=["hex", "heavy-hex"],
    )
    def test_sizes_1_to_130(self, build, reference):
        for size in range(1, 131):
            lattice, expected = build(size), reference(size)
            assert lattice.edges() == expected.edges(), size
            if build is heavy_hex_lattice and 3 <= size <= 5:
                # networkx's adjacency order depends on PYTHONHASHSEED here.
                continue
            assert _adjacency(lattice) == nx.to_dict_of_lists(expected.graph), size

    def test_heavy_hex_ignores_hash_seed(self):
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "3"):
            completed = subprocess.run(
                [sys.executable, "-c", _HEAVY_HEX_ADJACENCY],
                capture_output=True,
                text=True,
                env=dict(env, PYTHONHASHSEED=hash_seed),
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(json.loads(completed.stdout))
        assert outputs[0] == outputs[1]


class TestHypercube:
    def test_4d_properties(self):
        cube = hypercube(4)
        assert cube.num_qubits == 16
        assert cube.diameter() == 4
        assert cube.average_connectivity() == pytest.approx(4.0)
        assert cube.average_distance() == pytest.approx(2.0)

    def test_3d_structure(self):
        cube = hypercube(3)
        assert cube.num_edges() == 12
        assert all(cube.degree(q) == 3 for q in range(8))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            hypercube(0)

    def test_trimmed_hypercube_84(self):
        cube = trimmed_hypercube(84)
        assert cube.num_qubits == 84
        assert cube.is_connected()
        assert cube.diameter() == 7
        assert cube.average_connectivity() == pytest.approx(6.0, abs=0.05)

    def test_trimmed_power_of_two_equals_full(self):
        assert trimmed_hypercube(16).num_edges() == hypercube(4).num_edges()
