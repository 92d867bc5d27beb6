"""Tests for the Target design-point abstraction."""

import pickle
from dataclasses import replace

import pytest

from repro.core import Backend, make_backend
from repro.core.noise import NoiseModel
from repro.core.pipeline import run_sweep
from repro.decomposition import get_basis
from repro.runtime import ResultCache
from repro.runtime.runner import serial_runner
from repro.topology import corral_topology, square_lattice
from repro.transpiler import Target, make_target
from repro.transpiler.scheduling import GateDurations
from repro.workloads import ghz_circuit


class TestConstruction:
    def test_default_name(self):
        target = Target(square_lattice(4, 4), get_basis("cx"))
        assert "cx" in target.name
        assert target.num_qubits == 16

    def test_make_target(self):
        target = make_target(corral_topology(8, (1, 1)), "siswap", name="Corral")
        assert target.name == "Corral"
        assert target.basis.name == "siswap"

    def test_properties_row(self):
        target = make_target(square_lattice(4, 4), "cx")
        props = target.properties()
        assert props.num_qubits == 16
        assert props.average_connectivity == pytest.approx(3.0)

    def test_picklable(self):
        target = Target.from_names("corral-1-1", "sqiswap")
        clone = pickle.loads(pickle.dumps(target))
        assert clone.name == target.name
        assert clone.cache_key() == target.cache_key()


class TestFromNames:
    def test_exact_registry_name(self):
        target = Target.from_names("Corral1,1", "siswap")
        assert target.coupling_map.name == "Corral1,1"

    @pytest.mark.parametrize("spelling", ["corral-1-1", "corral_1_1", "CORRAL1,1"])
    def test_punctuation_insensitive(self, spelling):
        target = Target.from_names(spelling, "siswap")
        assert target.coupling_map.name == "Corral1,1"

    def test_basis_aliases(self):
        assert Target.from_names("Hypercube", "sqiswap").basis.name == "siswap"
        assert Target.from_names("Hypercube", "sqrt_iswap").basis.name == "siswap"

    def test_scales(self):
        small = Target.from_names("Tree", "siswap", scale="small")
        large = Target.from_names("Tree", "siswap", scale="large")
        assert small.num_qubits < large.num_qubits

    def test_unknown_topology_lists_options(self):
        with pytest.raises(ValueError, match="Corral1,1"):
            Target.from_names("moebius", "cx")

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            Target.from_names("Tree", "nosuchgate")


class TestDurationsAndNoise:
    def test_durations_default_to_modulator_preset(self):
        snail = Target.from_names("Corral1,1", "siswap")
        cr = Target.from_names("Heavy-Hex", "cx")
        assert snail.gate_durations().name == "snail"
        assert cr.gate_durations().name == "cr"

    def test_explicit_durations_win(self):
        custom = GateDurations(one_qubit=1.0, two_qubit_default=2.0, name="unit")
        target = Target.from_names("Tree", "siswap", durations=custom)
        assert target.gate_durations().name == "unit"

    def test_reliability_estimate_honours_explicit_durations(self):
        from repro.core import ReliabilityModel

        fast = GateDurations(one_qubit=1.0, two_qubit_default=2.0, iswap_full=2.0)
        target = Target.from_names("Tree", "siswap", durations=fast)
        preset = Target.from_names("Tree", "siswap")
        model = ReliabilityModel()
        circuit = ghz_circuit(6)
        assert (
            model.estimate(target, circuit, seed=0).duration_ns
            < model.estimate(preset, circuit, seed=0).duration_ns
        )

    def test_with_noise(self):
        base = Target.from_names("Tree", "siswap")
        noisy = base.with_noise(NoiseModel.random(base.coupling_map, seed=1))
        assert base.noise_model is None
        assert noisy.noise_model is not None
        assert noisy.cache_key() != base.cache_key()


class TestBackendInterop:
    def test_from_backend_round_trip(self):
        backend = make_backend(square_lattice(4, 4), "cx", name="Square-CX")
        target = Target.from_backend(backend)
        assert target.name == "Square-CX"
        assert target.basis.name == "cx"
        assert backend.to_target().cache_key() == target.cache_key()

    def test_from_backend_is_identity_on_targets(self):
        target = Target.from_names("Tree", "siswap")
        assert Target.from_backend(target) is target

    def test_backend_transpile_warns_and_matches_target(self):
        backend = Backend(square_lattice(4, 4), get_basis("siswap"))
        circuit = ghz_circuit(6)
        with pytest.warns(DeprecationWarning, match="Target"):
            legacy = backend.transpile(circuit, seed=4)
        modern = backend.to_target().transpile(circuit, seed=4)
        assert legacy.metrics == modern.metrics

    def test_target_transpile_shortcut(self):
        target = Target.from_names("Corral1,1", "siswap")
        result = target.transpile(ghz_circuit(6), seed=1)
        assert result.metrics.basis == "siswap"
        assert result.metrics.total_2q > 0


class TestCacheKey:
    def test_same_name_different_graph_distinct(self):
        first = make_target(square_lattice(4, 4), "cx", name="shared")
        second = make_target(corral_topology(8, (1, 1)), "cx", name="shared")
        assert first.cache_key() != second.cache_key()

    def test_deterministic(self):
        a = Target.from_names("Hypercube", "siswap")
        b = Target.from_names("Hypercube", "siswap")
        assert a.cache_key() == b.cache_key()

    def test_preset_durations_key_unchanged(self):
        # Existing cache directories and checkpoint manifests hold this key.
        assert Target.from_names("Corral1,1", "siswap").cache_key() == (
            "Corral1,1-siswap",
            "siswap",
            16,
            "855bf8601d1cebdc",
            "e3b0c44298fc1c14",
        )

    def test_durations_distinguish_keys(self):
        base = Target.from_names("Corral1,1", "siswap", durations=GateDurations.snail())
        slower = Target.from_names(
            "Corral1,1", "siswap", durations=replace(GateDurations.snail(), iswap_full=800.0)
        )
        relabelled = Target.from_names(
            "Corral1,1", "siswap", durations=replace(GateDurations.snail(), name="renamed")
        )
        assert base.cache_key() != slower.cache_key()
        assert base.cache_key() != Target.from_names("Corral1,1", "siswap").cache_key()
        assert base.cache_key() == relabelled.cache_key()

    def test_result_cache_keeps_schedules_apart(self):
        """Two targets differing only in durations each get their own schedule."""
        fast = Target.from_names("Corral1,1", "siswap")
        slow = Target.from_names(
            "Corral1,1",
            "siswap",
            durations=GateDurations(
                one_qubit=100.0,
                two_qubit_default=2000.0,
                by_name={"swap": 3000.0, "siswap": 1000.0},
                iswap_full=2000.0,
            ),
        )
        runner = serial_runner(result_cache=ResultCache())
        cached = [
            run_sweep(["GHZ"], [8], [target], optimization_level=3, runner=runner).records[0]
            for target in (fast, slow)
        ]
        fresh = run_sweep(["GHZ"], [8], [slow], optimization_level=3).records[0]
        assert cached[1].extra["duration_ns"] == fresh.extra["duration_ns"]
        assert cached[1].extra["duration_ns"] != cached[0].extra["duration_ns"]
