"""Tests of the top-level package surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Imports the package and compiles at levels 1 and 3 (VF2 layout and
#: noise-aware routing on a noisy target), then lists the scipy modules.
_COMPILE_AND_LIST_SCIPY = """
import sys

import repro
from repro.core.noise import NoiseModel
from repro.transpiler import Target, transpile
from repro.workloads import build_workload

target = Target.from_names("Corral1,1", "siswap")
transpile(build_workload("QFT", 8, seed=1), target, optimization_level=1)
noisy = target.with_noise(NoiseModel.random(target.coupling_map, seed=1))
for workload in ("GHZ", "QFT"):
    result = transpile(build_workload(workload, 8, seed=1), noisy, optimization_level=3)
    assert result.properties["perfect_layout"] is (workload == "GHZ")
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

#: Imports the package and the CLI, resolves every registry topology at
#: both scales and compiles at levels 0-3 (level 3 on a noisy target, so
#: VF2 layout and noise-aware routing run), then lists which of networkx
#: and scipy got imported.
_COLD_START_AND_LIST_GRAPH_LIBRARIES = """
import sys

import repro
import repro.cli
from repro.core.noise import NoiseModel
from repro.topology import available_topologies, get_topology
from repro.transpiler import Target, transpile
from repro.workloads import build_workload

for scale in ("small", "large"):
    for name in available_topologies(scale):
        get_topology(name, scale)
target = Target.from_names("Heavy-Hex", "cx")
for level in (0, 1, 2):
    result = transpile(build_workload("QFT", 8, seed=1), target, optimization_level=level)
    assert result.metrics.total_swaps > 0
noisy = target.with_noise(NoiseModel.random(target.coupling_map, seed=1))
result = transpile(build_workload("QFT", 8, seed=1), noisy, optimization_level=3)
assert result.metrics.routing_method == "noise_aware", result.metrics.routing_method
assert result.properties["perfect_layout"] is False and result.metrics.total_swaps > 0
print(sorted({name.split(".")[0] for name in sys.modules} & {"networkx", "scipy"}))
"""


def _run_fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this package."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        for module in (
            "repro.linalg",
            "repro.circuits",
            "repro.gates",
            "repro.simulator",
            "repro.topology",
            "repro.transpiler",
            "repro.decomposition",
            "repro.workloads",
            "repro.snailsim",
            "repro.core",
            "repro.experiments",
            "repro.visualization",
            "repro.bench",
            "repro.cli",
        ):
            assert importlib.import_module(module) is not None

    def test_quickstart_snippet_from_docstring(self):
        """The README / package-docstring quickstart must actually run."""
        from repro import Target, transpile
        from repro.workloads import quantum_volume_circuit

        target = Target.from_names("corral-1-1", "sqiswap")
        result = transpile(quantum_volume_circuit(8, seed=1), target, optimization_level=2)
        assert result.metrics.total_2q > 0
        assert result.metrics.critical_2q <= result.metrics.total_2q

    def test_legacy_backend_shim_still_transpiles(self):
        """Backend.transpile keeps working but warns about the migration."""
        from repro import Backend, get_basis
        from repro.topology import corral_topology
        from repro.workloads import quantum_volume_circuit

        backend = Backend(corral_topology(8, (1, 1)), get_basis("siswap"))
        with pytest.warns(DeprecationWarning, match="Target"):
            result = backend.transpile(quantum_volume_circuit(8, seed=1))
        target_result = backend.to_target().transpile(
            quantum_volume_circuit(8, seed=1), seed=0
        )
        assert result.metrics == target_result.metrics

    def test_main_module_entry_point(self, capsys):
        from repro.__main__ import main

        assert main(["tables"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestColdStart:
    def test_import_and_compiles_load_no_scipy(self):
        """scipy is only for synthesis-mode optimisation, never a compile."""
        assert _run_fresh_interpreter(_COMPILE_AND_LIST_SCIPY) == "[]"

    def test_import_resolve_and_compiles_load_no_networkx_or_scipy(self):
        """networkx loads only for ``CouplingMap.graph``, scipy only for synthesis."""
        assert _run_fresh_interpreter(_COLD_START_AND_LIST_GRAPH_LIBRARIES) == "[]"
