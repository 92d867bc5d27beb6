"""One fresh program process of the benchmark (read a job, print a result).

``perfbench/run.py`` starts this script with ``src`` on ``PYTHONPATH`` and
writes one JSON job to its standard input; the script answers with one
JSON object on standard output.  Every mode first sets up (``import
repro`` and target resolution) and stamps ``ready`` on the system-wide
monotonic clock, so the parent measures set-up from spawn to ready.

Modes:

* ``probe``  — set up only (set-up samples; import / resolve split).
* ``sweep``  — the untraced measurement: each sub-grid through
  :func:`repro.core.pipeline.run_sweep` with no result cache, timing each
  point between the runner's per-point progress calls, and every compiled
  point checked by :mod:`checks` (check time excluded).
* ``traced`` — the same points, outside-in: the workload built by
  :func:`repro.workloads.build_workload`, then every pass of
  :func:`repro.transpiler.compile.build_staged_pass_manager` run and timed
  in stage order, and the paper's counters collected from the stage
  circuits.
* ``records`` — :func:`repro.core.pipeline.run_point` for a list of
  server-style specs (the reference for the serve workload's responses).
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

#: Pass name -> per-layer metric that accumulates its ``run`` time.  A
#: pass missing here lands in ``transpiler.other_s``.
PASS_LAYERS = {
    "decompose_multi_qubit": "transpiler.init.decompose_multi_s",
    "dense_layout": "transpiler.layout.dense_s",
    "vf2_layout": "transpiler.layout.vf2_s",
    "sabre_routing": "transpiler.routing.sabre_s",
    "noise_aware_routing": "transpiler.routing.noise_aware_s",
    "cancel_adjacent_inverses": "transpiler.routing.cancel_inverses_s",
    "commutative_cancellation": "transpiler.routing.commutation_s",
    "basis_translation": "transpiler.translation_s",
    "schedule_analysis": "transpiler.scheduling_s",
}

#: Properties the transpiler copies into ``metrics.extra``.
EXTRA_PROPERTIES = (
    ("cancelled_gates", "cancelled_gates"),
    ("commutative_cancelled", "commutative_cancelled"),
    ("scheduled_duration_ns", "duration_ns"),
    ("scheduled_idle_ns", "idle_ns"),
    ("scheduled_parallelism", "parallelism"),
)


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve_targets(specs):
    """Targets of a job: registry names, plus a seeded random noise model."""
    from repro.core.codesign import CodesignPoint
    from repro.core.noise import NoiseModel

    targets = []
    for spec in specs:
        target = CodesignPoint(spec["label"], spec["topology"], spec["basis"]).target(
            spec["scale"]
        )
        if spec.get("noise_seed") is not None:
            target = target.with_noise(
                NoiseModel.random(target.coupling_map, seed=spec["noise_seed"])
            )
        targets.append(target)
    return targets


def _grids(job, targets):
    """``(workloads, sizes, targets)`` of every sub-grid of the job."""
    return [
        (grid["workloads"], grid["sizes"], [targets[i] for i in grid["targets"]])
        for grid in job["grids"]
    ]


def _run_sweep(job, targets):
    """Run the grid through ``run_sweep``; check every compiled point.

    ``run_point`` compiles through ``transpile``.  A wrapper installed in
    its place (in :mod:`repro.transpiler.compile`, and under the name
    :mod:`repro.core.pipeline` imported) checks the coupling of each result
    as it is returned; that time is taken out of the point's time.  Small
    routed circuits are kept and simulated after the sweep, once its peak
    memory has been read, so the checks add neither time nor memory to the
    measurement.
    """
    import checks
    from repro.core import pipeline

    compile_module = importlib.import_module("repro.transpiler.compile")
    originals = {module: module.transpile for module in (compile_module, pipeline)}
    transpile = compile_module.transpile
    checked = []  # (check seconds, problems) per compiled point
    to_simulate = []  # (point, circuit, routed, initial layout, final layout)

    def checked_transpile(circuit, target, *args, **kwargs):
        result = transpile(circuit, target, *args, **kwargs)
        start = time.perf_counter()
        problems = checks.coupling_problems(target, result.routed_circuit, result.circuit)
        if circuit.num_qubits <= checks.SIMULATE_MAX_QUBITS:
            to_simulate.append(
                (len(checked), circuit, result.routed_circuit,
                 result.initial_layout, result.final_layout)
            )
        checked.append((time.perf_counter() - start, problems))
        return result

    for module in originals:
        module.transpile = checked_transpile
    records, spans = [], []
    try:
        for workloads, sizes, grid_targets in _grids(job, targets):
            stamps = []
            result = pipeline.run_sweep(
                workloads,
                sizes,
                grid_targets,
                seed=job["seed"],
                optimization_level=job["level"],
                progress=lambda _label: stamps.append(time.perf_counter()),
            )
            stamps.append(time.perf_counter())
            spans += [end - begin for begin, end in zip(stamps, stamps[1:])]
            records += result.as_dicts()
    finally:
        for module, original in originals.items():
            module.transpile = original
    if len(checked) != len(records):
        raise SystemExit(
            f"checked {len(checked)} transpile calls for {len(records)} points: "
            "run_point no longer compiles through repro.transpiler.compile.transpile"
        )
    peak_rss_mb = _peak_rss_mb()
    for point, circuit, routed, initial_layout, final_layout in to_simulate:
        checked[point][1].extend(
            checks.equivalence_problems(circuit, routed, initial_layout, final_layout)
        )
    return {
        "records": records,
        "point_seconds": [span - seconds for span, (seconds, _) in zip(spans, checked)],
        "failures": [
            [point, f"{r['workload']}-{r['circuit_qubits']} on {r['backend']}: {problem}"]
            for point, (r, (_, problems)) in enumerate(zip(records, checked))
            for problem in problems
        ],
        "simulated_points": len(to_simulate),
        "peak_rss_mb": peak_rss_mb,
    }


def _collect_metrics(circuit, routed, final, properties, schedule, seed, level, workload, target):
    """The record :func:`repro.core.pipeline.run_point` returns, rebuilt."""
    record = {
        "circuit_name": circuit.name,
        "circuit_qubits": circuit.num_qubits,
        "topology": target.coupling_map.name,
        "basis": target.basis.name,
        "total_swaps": routed.swap_count(induced_only=True),
        "critical_swaps": routed.critical_path_swaps(induced_only=True),
        "total_2q": final.two_qubit_gate_count(),
        "critical_2q": final.critical_path_two_qubit(),
        "weighted_duration": final.weighted_duration(),
        "total_gates": final.size(),
        "depth": int(final.depth()),
        "routing_method": str(schedule["routing"]),
        "layout_method": str(schedule["layout"]),
        "seed": seed,
        "optimization_level": level,
    }
    for source_key, extra_key in EXTRA_PROPERTIES:
        if source_key in properties:
            record[extra_key] = float(properties[source_key])
    record["workload"] = workload
    record["backend"] = target.name
    return record


def _run_traced(job, targets):
    from repro.core.pipeline import sweep_grid
    from repro.transpiler.compile import build_staged_pass_manager, resolve_level
    from repro.transpiler.passmanager import PropertySet
    from repro.workloads import build_workload

    seed, level = job["seed"], job["level"]
    layers = {name: 0.0 for name in PASS_LAYERS.values()}
    layers.update(
        {
            "workloads.build_s": 0.0,
            "transpiler.pass_manager_s": 0.0,
            "transpiler.metrics_s": 0.0,
            "transpiler.other_s": 0.0,
        }
    )
    counts = {
        "vf2_attempts": 0,
        "vf2_perfect": 0,
        "commutation_cancelled": 0,
        "routing_gates_out": 0,
        "translation_gates_out": 0,
    }
    records, traced_seconds = [], 0.0
    for workloads, sizes, grid_targets in _grids(job, targets):
        for workload, size, target in sweep_grid(workloads, sizes, grid_targets):
            point_start = time.perf_counter()
            start = time.perf_counter()
            circuit = build_workload(workload, size, seed=seed)
            layers["workloads.build_s"] += time.perf_counter() - start

            start = time.perf_counter()
            schedule = resolve_level(target, level)
            manager = build_staged_pass_manager(target, level, seed=seed)
            layers["transpiler.pass_manager_s"] += time.perf_counter() - start

            # Seeded exactly as transpile() seeds it.
            properties = PropertySet()
            if target.noise_model is not None:
                properties["noise_model"] = target.noise_model
            stage_out = {}
            current = circuit
            for stage, passes in manager.stages.items():
                for transpiler_pass in passes:
                    start = time.perf_counter()
                    current = transpiler_pass.run(current, properties)
                    layer = PASS_LAYERS.get(transpiler_pass.name, "transpiler.other_s")
                    layers[layer] += time.perf_counter() - start
                if passes:
                    stage_out[stage] = current
            routed = stage_out.get("routing")
            if routed is None:
                routed = properties["routed_circuit"]

            start = time.perf_counter()
            record = _collect_metrics(
                circuit, routed, current, properties, schedule, seed, level, workload, target
            )
            layers["transpiler.metrics_s"] += time.perf_counter() - start
            traced_seconds += time.perf_counter() - point_start

            if "perfect_layout" in properties:
                counts["vf2_attempts"] += 1
                counts["vf2_perfect"] += int(bool(properties["perfect_layout"]))
            counts["commutation_cancelled"] += int(properties.get("commutative_cancelled", 0))
            counts["routing_gates_out"] += len(routed)
            counts["translation_gates_out"] += len(stage_out.get("translation", current))
            records.append(record)

    return {
        "records": records,
        "layers": layers,
        "counts": counts,
        "traced_seconds": traced_seconds,
    }


def _run_records(job):
    from repro.core.pipeline import run_point
    from repro.transpiler.target import Target

    records = []
    for spec in job["specs"]:
        target = Target.from_names(
            spec["topology"], spec["basis"], scale=spec["scale"],
            name=f"{spec['topology']}-{spec['basis']}",
        )
        metrics = run_point(
            spec["workload"], spec["size"], target, seed=spec["seed"],
            optimization_level=spec["level"],
        )
        records.append(metrics.as_dict())
    return {"records": records}


def main() -> None:
    job = json.loads(sys.stdin.read())
    start = time.monotonic()
    import repro  # noqa: F401  (the set-up a user pays before the first point)

    imported = time.monotonic()
    targets = _resolve_targets(job.get("targets", []))
    ready = time.monotonic()
    output = {
        "ready": ready,
        "import_s": imported - start,
        "resolve_s": ready - imported,
    }
    mode = job["mode"]
    if mode == "sweep":
        output.update(_run_sweep(job, targets))
    elif mode == "traced":
        output.update(_run_traced(job, targets))
    elif mode == "records":
        output.update(_run_records(job))
    elif mode != "probe":
        raise SystemExit(f"unknown mode {mode!r}")
    output.setdefault("peak_rss_mb", _peak_rss_mb())
    json.dump(output, sys.stdout)


if __name__ == "__main__":
    main()
