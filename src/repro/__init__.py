"""repro — reproduction of "Co-Designed Architectures for Modular
Superconducting Quantum Computers" (McKinney et al., HPCA 2023).

The library is organised bottom-up:

* :mod:`repro.linalg` — two-qubit unitary analysis (Weyl chamber, KAK).
* :mod:`repro.circuits`, :mod:`repro.gates` — circuit IR and gate library.
* :mod:`repro.simulator` — state-vector / unitary validation simulators.
* :mod:`repro.topology` — coupling graphs: lattices, hypercubes and the
  SNAIL-enabled Tree / Corral topologies.
* :mod:`repro.transpiler` — layout, routing, basis translation, scheduling,
  metrics.
* :mod:`repro.decomposition` — coverage rules and (approximate) synthesis.
* :mod:`repro.workloads` — the six parameterised benchmarks of the paper
  plus extension workloads.
* :mod:`repro.noise` — Kraus channels, density-matrix simulation, circuit
  noise models.
* :mod:`repro.frequency` — modulator frequency budgets and pump-tone
  allocation (frequency crowding).
* :mod:`repro.qasm` — OpenQASM 2 export / import.
* :mod:`repro.snailsim` — device-level SNAIL exchange model (Fig. 6).
* :mod:`repro.core` — backends, co-design points, fidelity and reliability
  models, sweeps.
* :mod:`repro.runtime` — the experiment execution seam: process-pool
  fan-out with ordered collection plus per-point result caching.
* :mod:`repro.experiments` — one entry point per paper table / figure plus
  the extension studies.
* :mod:`repro.bench` — benchmark trajectory history, comparison core and
  regression gates behind ``repro bench``.

Quick start::

    from repro import Target, transpile
    from repro.workloads import quantum_volume_circuit

    target = Target.from_names("corral-1-1", "sqiswap")
    result = transpile(quantum_volume_circuit(12, seed=1), target,
                       optimization_level=2)
    print(result.metrics.total_2q, result.metrics.critical_2q)

Compilation is staged (``init -> layout -> routing -> translation ->
optimization -> scheduling``); ``optimization_level`` 0..3 selects the
preset schedule (level 1 is the paper's Fig. 10 flow) and every stage is
fed from the name-based pass registry (:mod:`repro.transpiler.registry`).
``transpile_batch`` compiles whole circuit lists through the experiment
runner (process-pool fan-out + result caching).  The legacy ``Backend``
bundle remains as a deprecation shim over :class:`Target`.

Running experiments in parallel
-------------------------------

Every experiment driver (and every ``repro`` CLI experiment command) runs
its sweep points through an :class:`repro.runtime.ExperimentRunner`.  Sweep
points are independent and deterministically seeded, so fanning them out
over a process pool is bit-identical to the serial loop::

    from repro import ExperimentRunner
    from repro.experiments import figure11_study

    runner = ExperimentRunner(parallel=True, max_workers=4)
    result = figure11_study(runner=runner)        # same records, less wall-clock

From the command line use ``repro swaps --parallel --workers 4`` (or set
``REPRO_PARALLEL=1`` / ``REPRO_WORKERS=4`` process-wide).  A runner can
carry a :class:`repro.runtime.ResultCache` (the CLI attaches one unless
``--no-cache`` is given), so repeated points — rerun studies, overlapping
grids — are served from memory::

    runner = ExperimentRunner(parallel=True, result_cache=ResultCache())

Three further caches accelerate the hot paths themselves:
the LRU gate-unitary cache (:mod:`repro.linalg.cache`), the decomposition
cache keyed on canonical Weyl coordinates
(:mod:`repro.decomposition.cache`), and the fused single-qubit fast path
of :class:`repro.simulator.StatevectorSimulator`.

Continuous integration
----------------------

``.github/workflows/ci.yml`` lints (ruff), runs the fast test suite on
Python 3.10 and 3.12 (``pytest -m "not slow"``; the ``slow`` marker tags
long experiment regenerations), runs the full suite including benchmarks
in a nightly-style job, and uploads smoke-benchmark ``BENCH_*.json``
artifacts.  Locally, ``python scripts/lint.py`` and
``python -m pytest -m "not slow"`` mirror the quick gate.
"""

from repro.circuits import QuantumCircuit
from repro.core import (
    Backend,
    CodesignPoint,
    FidelityModel,
    SweepResult,
    design_backends,
    design_points,
    design_targets,
    make_backend,
    pulse_duration_sensitivity_study,
    run_point,
    run_sweep,
)
from repro.decomposition import TemplateDecomposer, get_basis
from repro.runtime import ExperimentRunner, ResultCache, point_seed
from repro.topology import CouplingMap, get_topology, large_topologies, small_topologies
from repro.transpiler import (
    Target,
    TranspileMetrics,
    TranspileResult,
    available_passes,
    make_target,
    register_pass,
    transpile,
    transpile_batch,
)
from repro.workloads import build_workload

__version__ = "1.0.0"

__all__ = [
    "QuantumCircuit",
    "Backend",
    "CodesignPoint",
    "FidelityModel",
    "SweepResult",
    "design_backends",
    "design_points",
    "design_targets",
    "make_backend",
    "pulse_duration_sensitivity_study",
    "run_point",
    "run_sweep",
    "TemplateDecomposer",
    "get_basis",
    "ExperimentRunner",
    "ResultCache",
    "point_seed",
    "CouplingMap",
    "get_topology",
    "large_topologies",
    "small_topologies",
    "Target",
    "make_target",
    "available_passes",
    "register_pass",
    "TranspileMetrics",
    "TranspileResult",
    "transpile",
    "transpile_batch",
    "build_workload",
    "__version__",
]
