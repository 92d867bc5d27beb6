"""Tests for the noise-aware router."""

import pickle

import numpy as np
import pytest
from l3_noisy_grid import noisy_targets
from oracles import reference_weighted_distance

from repro.circuits.circuit import QuantumCircuit
from repro.core.noise import NoiseModel
from repro.topology import CouplingMap, get_topology, large_topologies, small_topologies
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.passes.layout_passes import TrivialLayout
from repro.transpiler.passes.noise_aware_routing import COST_TABLE_CACHE, NoiseAwareRouting
from repro.workloads import build_workload


def route(circuit, device, noise_model, seed=0):
    properties = PropertySet()
    TrivialLayout(device).run(circuit, properties)
    routed = NoiseAwareRouting(device, noise_model=noise_model, seed=seed).run(
        circuit, properties
    )
    return routed, properties


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            NoiseAwareRouting(noise_weight=-1.0)
        with pytest.raises(ValueError):
            NoiseAwareRouting(fidelity_floor=1.5)

    def test_edge_cost_is_one_for_perfect_edges(self):
        router = NoiseAwareRouting()
        perfect = NoiseModel.uniform(fidelity=1.0 - 1e-12)
        assert router.edge_cost(perfect, 0, 1) == pytest.approx(1.0, abs=1e-6)

    def test_edge_cost_grows_as_fidelity_drops(self):
        router = NoiseAwareRouting(noise_weight=2.0, fidelity_floor=0.9)
        noisy = NoiseModel(edge_fidelity={(0, 1): 0.92}, default_fidelity=0.999)
        assert router.edge_cost(noisy, 0, 1) > router.edge_cost(noisy, 2, 3)


def _registered_topologies():
    return [
        pytest.param(device, id=f"{scale}-{name}")
        for scale, registry in (("small", small_topologies()), ("large", large_topologies()))
        for name, device in registry.items()
    ]


class TestWeightedDistance:
    """The min-plus relaxation equals networkx's all-pairs Dijkstra bit for bit."""

    @pytest.mark.parametrize("device", _registered_topologies())
    def test_matches_dijkstra_on_registry_topologies(self, device):
        router = NoiseAwareRouting()
        models = [NoiseModel.uniform()] + [NoiseModel.random(device, seed=s) for s in range(10)]
        for model in models:
            assert np.array_equal(
                router._weighted_distance(device, model),
                reference_weighted_distance(router, device, model),
            )

    @pytest.mark.parametrize(
        "device",
        [
            CouplingMap([(0, 1), (2, 3), (1, 4)], num_qubits=6),
            CouplingMap([], num_qubits=3),
            CouplingMap.full(7),
        ],
        ids=["disconnected", "edgeless", "full"],
    )
    def test_matches_dijkstra_on_edge_cases(self, device):
        for router in (NoiseAwareRouting(noise_weight=0.0), NoiseAwareRouting(noise_weight=5.0)):
            model = NoiseModel.random(device, seed=2, spread=0.1)
            assert np.array_equal(
                router._weighted_distance(device, model),
                reference_weighted_distance(router, device, model),
            )


def _fresh_tables(router, device, noise_model):
    """Both cost tables computed from scratch, bypassing the cache."""
    return (
        router._weighted_distance(device, noise_model),
        3.0 * router._edge_cost_matrix(device, noise_model),
    )


def _equal_tables(tables, expected):
    return all(np.array_equal(table, other) for table, other in zip(tables, expected))


class TestCostTableCache:
    """Cost tables are built once per content, bounded and read-only."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        COST_TABLE_CACHE.clear()
        yield
        COST_TABLE_CACHE.clear()

    def test_tables_equal_fresh_dijkstra_on_l3_noisy_targets(self):
        # Seeds share devices but not noise models, so a key that missed
        # the fidelities would serve one seed's tables to another.
        router = NoiseAwareRouting()
        for seed in (1, 2, 3):
            for target in noisy_targets(seed):
                device, model = target.coupling_map, target.noise_model
                cold = router._cost_tables(device, model)
                warm = router._cost_tables(device, model)
                assert warm[0] is cold[0] and warm[1] is cold[1]
                assert _equal_tables(cold, _fresh_tables(router, device, model)), target.name
        stats = COST_TABLE_CACHE.stats()
        assert (stats.misses, stats.hits) == (33, 33)

    def test_mutated_noise_model_gets_new_tables(self):
        device = get_topology("Heavy-Hex", scale="small")
        model = NoiseModel.random(device, seed=4)
        router = NoiseAwareRouting()
        before = router._cost_tables(device, model)
        model.edge_fidelity[device.edges()[0]] = 0.91
        after = router._cost_tables(device, model)
        assert not np.array_equal(before[1], after[1])
        assert _equal_tables(after, _fresh_tables(router, device, model))
        model.default_fidelity = 0.95
        model.edge_fidelity.pop(device.edges()[1])
        assert _equal_tables(
            router._cost_tables(device, model), _fresh_tables(router, device, model)
        )

    def test_equal_content_copy_hits(self):
        device = get_topology("Tree", scale="large")
        model = NoiseModel.random(device, seed=5)
        tables = NoiseAwareRouting()._cost_tables(device, model)
        copy_device, copy_model = pickle.loads(pickle.dumps((device, model)))
        hits = COST_TABLE_CACHE.stats().hits
        copied = NoiseAwareRouting()._cost_tables(copy_device, copy_model)
        assert copied[0] is tables[0] and copied[1] is tables[1]
        assert COST_TABLE_CACHE.stats().hits == hits + 1

    def test_reversed_edge_keys_share_one_entry(self):
        device = CouplingMap.line(5)
        forward = NoiseModel(edge_fidelity={(0, 1): 0.91, (3, 4): 0.95})
        backward = NoiseModel(edge_fidelity={(4, 3): 0.95, (1, 0): 0.91})
        tables = NoiseAwareRouting()._cost_tables(device, forward)
        shared = NoiseAwareRouting()._cost_tables(device, backward)
        assert shared[0] is tables[0] and shared[1] is tables[1]
        assert len(COST_TABLE_CACHE) == 1
        assert tables[1][0, 1] > tables[1][1, 2]

    def test_cost_parameters_are_part_of_the_key(self):
        device = get_topology("Square-Lattice", scale="small")
        model = NoiseModel.random(device, seed=6, spread=0.02)
        default = NoiseAwareRouting()._cost_tables(device, model)
        heavier = NoiseAwareRouting(noise_weight=5.0)._cost_tables(device, model)
        assert not np.array_equal(default[1], heavier[1])
        assert _equal_tables(
            heavier, _fresh_tables(NoiseAwareRouting(noise_weight=5.0), device, model)
        )

    def test_bounded_and_read_only(self):
        device = CouplingMap.line(5)
        router = NoiseAwareRouting()
        maxsize = COST_TABLE_CACHE.stats().maxsize
        for step in range(maxsize + 3):
            tables = router._cost_tables(device, NoiseModel.uniform(fidelity=0.99 - 1e-3 * step))
        assert len(COST_TABLE_CACHE) == maxsize
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 1] = 0.0

    def test_routing_after_mutation_matches_a_fresh_model(self):
        device = get_topology("Square-Lattice", scale="small")
        circuit = build_workload("QFT", 10, seed=2)
        model = NoiseModel.random(device, seed=7)
        route(circuit, device, model)
        for edge in device.edges()[::2]:
            model.edge_fidelity[edge] = 0.9
        mutated, _ = route(circuit, device, model)
        COST_TABLE_CACHE.clear()
        fresh, _ = route(circuit, device, pickle.loads(pickle.dumps(model)))
        assert [(i.gate.name, i.qubits) for i in mutated] == [
            (i.gate.name, i.qubits) for i in fresh
        ]


class TestRoutingBehaviour:
    def test_produces_executable_circuits(self):
        device = get_topology("Square-Lattice", scale="small")
        circuit = build_workload("QFT", 8)
        routed, properties = route(circuit, device, NoiseModel.uniform())
        for instruction in routed:
            if instruction.is_two_qubit:
                assert device.has_edge(*instruction.qubits)
        assert properties["routing_swaps"] == routed.swap_count(induced_only=True)

    def test_uniform_noise_swap_counts_are_reasonable(self):
        device = get_topology("Heavy-Hex", scale="small")
        circuit = build_workload("QuantumVolume", 10, seed=4)
        routed, properties = route(circuit, device, NoiseModel.uniform())
        assert 0 < properties["routing_swaps"] < 10 * circuit.two_qubit_gate_count()

    def test_adjacent_circuit_needs_no_swaps(self):
        device = CouplingMap.line(4)
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        routed, properties = route(circuit, device, NoiseModel.uniform())
        assert properties["routing_swaps"] == 0

    def test_avoids_a_catastrophically_bad_edge(self):
        """A ring gives two equal-length routes; the router must pick the clean one."""
        device = CouplingMap.ring(4)
        # Route 0 -> 2 goes either via qubit 1 or via qubit 3; poison edge (0, 1).
        noise = NoiseModel(
            edge_fidelity={(0, 1): 0.90, (1, 2): 0.99, (2, 3): 0.99, (0, 3): 0.99},
            default_fidelity=0.99,
        )
        circuit = QuantumCircuit(4)
        circuit.cx(0, 2)
        routed, _ = route(circuit, device, noise)
        used_edges = {
            tuple(sorted(inst.qubits)) for inst in routed if inst.name == "swap"
        }
        assert (0, 1) not in used_edges

    def test_noise_aware_beats_noise_blind_success_probability(self):
        """On a device with one bad region, noise-aware routing gives better EPS."""
        device = get_topology("Square-Lattice", scale="small")
        noise = NoiseModel.random(device, mean_fidelity=0.99, spread=0.02, seed=3)
        circuit = build_workload("QuantumVolume", 8, seed=6)
        aware, _ = route(circuit, device, noise, seed=1)
        blind, _ = route(circuit, device, NoiseModel.uniform(), seed=1)
        aware_success = noise.circuit_success_probability(aware)
        blind_success = noise.circuit_success_probability(blind)
        # Allow a small tolerance: the aware router must not be meaningfully worse.
        assert aware_success >= blind_success * 0.98

    def test_seed_reproducibility(self):
        device = get_topology("Hex-Lattice", scale="small")
        circuit = build_workload("QAOAVanilla", 8, seed=2)
        noise = NoiseModel.random(device, seed=5)
        first, _ = route(circuit, device, noise, seed=9)
        second, _ = route(circuit, device, noise, seed=9)
        assert [i.qubits for i in first] == [i.qubits for i in second]

    def test_noise_model_from_properties_is_used(self):
        device = CouplingMap.ring(4)
        circuit = QuantumCircuit(4)
        circuit.cx(0, 2)
        properties = PropertySet()
        TrivialLayout(device).run(circuit, properties)
        properties["noise_model"] = NoiseModel(
            edge_fidelity={(0, 1): 0.90}, default_fidelity=0.999
        )
        routed = NoiseAwareRouting(device).run(circuit, properties)
        used_edges = {
            tuple(sorted(inst.qubits)) for inst in routed if inst.name == "swap"
        }
        assert (0, 1) not in used_edges


class TestNoiseAwareLayout:
    def test_rejects_oversized_circuit(self):
        from repro.transpiler.passes.noise_aware_routing import NoiseAwareLayout

        device = CouplingMap.line(3)
        with pytest.raises(ValueError):
            NoiseAwareLayout(device).run(build_workload("GHZ", 5), PropertySet())

    def test_produces_full_layout(self):
        from repro.transpiler.passes.noise_aware_routing import NoiseAwareLayout

        device = get_topology("Square-Lattice", scale="small")
        circuit = build_workload("GHZ", 6)
        properties = PropertySet()
        NoiseAwareLayout(device).run(circuit, properties)
        layout = properties["layout"]
        assert len(layout) == 6
        assert len(set(layout.to_dict().values())) == 6

    def test_avoids_the_low_fidelity_region(self):
        from repro.transpiler.passes.noise_aware_routing import NoiseAwareLayout

        device = CouplingMap.line(8)
        # Edges on the left half are poor; the right half is clean.
        noise = NoiseModel(
            edge_fidelity={(i, i + 1): (0.90 if i < 3 else 0.999) for i in range(7)},
            default_fidelity=0.999,
        )
        circuit = build_workload("GHZ", 4)
        properties = PropertySet()
        NoiseAwareLayout(device, noise_model=noise).run(circuit, properties)
        occupied = set(properties["layout"].to_dict().values())
        # The four seats should sit inside the clean right half {3..7}.
        assert occupied <= set(range(3, 8))

    def test_whole_device_circuits_use_every_qubit(self):
        from repro.transpiler.passes.noise_aware_routing import NoiseAwareLayout

        device = CouplingMap.ring(6)
        circuit = build_workload("GHZ", 6)
        properties = PropertySet()
        NoiseAwareLayout(device).run(circuit, properties)
        assert sorted(properties["layout"].to_dict().values()) == list(range(6))

    def test_layout_feeds_noise_model_to_downstream_passes(self):
        from repro.transpiler.passes.noise_aware_routing import NoiseAwareLayout

        device = get_topology("Heavy-Hex", scale="small")
        noise = NoiseModel.random(device, seed=2)
        properties = PropertySet()
        NoiseAwareLayout(device, noise_model=noise).run(build_workload("GHZ", 5), properties)
        assert properties["noise_model"] is noise

    def test_end_to_end_with_noise_aware_routing(self):
        from repro.transpiler.passes.noise_aware_routing import (
            NoiseAwareLayout,
            NoiseAwareRouting,
        )

        device = get_topology("Square-Lattice", scale="small")
        noise = NoiseModel.random(device, mean_fidelity=0.99, spread=0.01, seed=7)
        circuit = build_workload("QuantumVolume", 8, seed=1)
        properties = PropertySet()
        NoiseAwareLayout(device, noise_model=noise).run(circuit, properties)
        routed = NoiseAwareRouting(device).run(circuit, properties)
        for instruction in routed:
            if instruction.is_two_qubit:
                assert device.has_edge(*instruction.qubits)
