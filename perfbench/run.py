"""The repository benchmark: one command per workload, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig14-l1 --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``fig14-l1`` — Fig. 14 regeneration at the paper's level-1 flow.
* ``l3-noisy`` — ``optimization_level=3`` against noisy targets.
* ``serve-mixed`` — an open loop against a fresh ``repro serve``.

The seed picks the circuit instances, the transpiler seed, the noise
models and the serve request plan; the grid shapes are fixed.  With
``--trace 0`` the result line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  A human-readable summary goes to
standard error.  The exit code is 0 when every output check passed, 1
when one failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from typing import Dict, List, Tuple

import harness
import serve
from harness import (
    LARGE_DESIGN_POINTS,
    PAPER_WORKLOADS,
    SMALL_DESIGN_POINTS,
    BenchError,
    Context,
    Outcome,
    median,
    percentile,
    record_mismatches,
)

def metric_units(kind: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of every ``end_to_end`` or ``per_layer`` metric, in
    the order ``BENCHMARK.json`` lists them."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


#: Fresh set-up-only processes per compile run (the sweep and traced
#: processes add their own set-up samples).
SETUP_PROBES = 1

#: A compile run makes ``--seconds / SWEEP_SECONDS`` sweeps (at least one);
#: one sweep of either grid takes about this long on a 2-vCPU host.
SWEEP_SECONDS = 10.0


def _targets(points, scale, noise_rng=None):
    return [
        {
            "label": label,
            "topology": topology,
            "basis": basis,
            "scale": scale,
            "noise_seed": None if noise_rng is None else noise_rng.randrange(2**31),
        }
        for label, topology, basis in points
    ]


def fig14_job(seed: int) -> Dict:
    """Fig. 14 at level 1: 6 workloads x 5 large design points x 4 sizes."""
    rng = random.Random(f"fig14-l1:{seed}")
    return {
        "level": 1,
        "seed": rng.randrange(2**31),
        "targets": _targets(LARGE_DESIGN_POINTS, "large"),
        "grids": [
            {"workloads": PAPER_WORKLOADS, "sizes": [16, 24, 32, 40], "targets": [0, 1, 2, 3, 4]}
        ],
    }


def l3_job(seed: int) -> Dict:
    """Level 3 on noisy targets: large QFT/QAOA plus small paper workloads."""
    rng = random.Random(f"l3-noisy:{seed}")
    targets = _targets(LARGE_DESIGN_POINTS, "large", rng) + _targets(
        SMALL_DESIGN_POINTS, "small", rng
    )
    return {
        "level": 3,
        "seed": rng.randrange(2**31),
        "targets": targets,
        "grids": [
            {
                "workloads": ["QFT", "QAOAVanilla"],
                "sizes": [16, 24],
                "targets": [0, 1, 2, 3, 4],
            },
            {"workloads": PAPER_WORKLOADS, "sizes": [6, 10], "targets": [5, 6, 7, 8, 9, 10]},
        ],
    }


def run_compile(ctx: Context, job: Dict, trace: bool) -> Outcome:
    """Set-up probes, then timed sweeps, or one sweep and one traced pass.

    Every sweep and the traced pass compile the same points, each in a
    fresh process.  A point's latency is its median over the sweeps.
    """
    outcome = Outcome()
    setups, imports, resolves = [], [], []

    def spawn(mode):
        output, setup = ctx.run_child(dict(job, mode=mode))
        setups.append(setup)
        imports.append(output["import_s"])
        resolves.append(output["resolve_s"])
        return output

    for _ in range(SETUP_PROBES):
        spawn("probe")
    count = 1 if trace else max(1, round(ctx.seconds / SWEEP_SECONDS))
    sweeps = [spawn("sweep") for _ in range(count)]
    traced = spawn("traced") if trace else None

    # -- checks ------------------------------------------------------------
    reference = sweeps[0]["records"]
    failed = set()
    for index, sweep in enumerate(sweeps):
        for point, message in sweep["failures"]:
            failed.add(point)
            outcome.failures.append(f"sweep {index + 1}: {message}")
        for point, (a, b) in enumerate(zip(reference, sweep["records"])):
            for problem in record_mismatches(a, b):
                failed.add(point)
                outcome.failures.append(
                    f"sweep {index + 1} point {point} differs from sweep 1: {problem}"
                )
    if traced is not None:
        if len(traced["records"]) != len(reference):
            raise BenchError(
                f"traced pass compiled {len(traced['records'])} points, sweep {len(reference)}"
            )
        for point, (a, b) in enumerate(zip(reference, traced["records"])):
            for problem in record_mismatches(a, b):
                failed.add(point)
                outcome.failures.append(
                    f"point {point}: traced record differs from run_point: {problem}"
                )
    outcome.attempted = len(reference) * len(sweeps)
    outcome.failed_ops = len(failed) * len(sweeps)

    # -- end-to-end ----------------------------------------------------------
    busy = sum(sum(sweep["point_seconds"]) for sweep in sweeps)
    point_ms = [1e3 * median(times) for times in zip(*(s["point_seconds"] for s in sweeps))]
    outcome.end_to_end = {
        "setup_s": median(setups),
        "points_per_s": outcome.attempted / busy,
        "latency_p50_ms": percentile(point_ms, 0.50),
        # The highest percentile with at least ten points beyond it.
        "latency_tail_ms": percentile(point_ms, 0.90),
        "total_swaps": sum(r["total_swaps"] for r in reference),
        "total_2q": sum(r["total_2q"] for r in reference),
        "critical_2q": sum(r["critical_2q"] for r in reference),
        "peak_rss_mb": median([sweep["peak_rss_mb"] for sweep in sweeps]),
    }
    outcome.notes.append(
        f"{len(sweeps)} sweep(s) of {len(reference)} points, {len(setups)} set-up samples"
    )

    # -- per layer -----------------------------------------------------------
    layers = {
        "import.repro_s": median(imports),
        "topology.target_resolve_s": median(resolves),
        "bench.simulated_points": sweeps[0]["simulated_points"],
    }
    if traced is not None:
        counts, total = traced["counts"], traced["traced_seconds"]
        untraced = busy / len(sweeps)
        layers.update(traced["layers"])
        layers.update(
            {
                "transpiler.layout.vf2_perfect_ratio": (
                    counts["vf2_perfect"] / counts["vf2_attempts"]
                    if counts["vf2_attempts"]
                    else 0.0
                ),
                "transpiler.routing.commutation_cancelled": counts["commutation_cancelled"],
                "transpiler.routing.gates_out": counts["routing_gates_out"],
                "transpiler.translation.gates_out": counts["translation_gates_out"],
                "bench.trace_overhead_share": (total - untraced) / untraced,
                "bench.layer_coverage": sum(traced["layers"].values()) / total,
                "bench.traced_busy_s": total,
            }
        )
        for name, value in sorted(traced["layers"].items(), key=lambda item: -item[1]):
            if value > 0:
                outcome.notes.append(f"  {name:<40} {value:9.3f} s  {100 * value / total:5.1f} %")
    outcome.per_layer = layers
    return outcome


WORKLOADS = {
    "fig14-l1": lambda ctx, seed, trace: run_compile(ctx, fig14_job(seed), trace),
    "l3-noisy": lambda ctx, seed, trace: run_compile(ctx, l3_job(seed), trace),
    "serve-mixed": lambda ctx, seed, trace: serve.run_serve(ctx, seed),
}


def result_line(outcome: Outcome, trace: bool) -> Dict:
    """The final JSON object the driver reads."""
    names = metric_units("per_layer" if trace else "end_to_end")
    values = outcome.per_layer if trace else outcome.end_to_end
    return {
        "correct": not outcome.failures,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed_ops),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {harness.ROOT / 'src'}", file=sys.stderr)
        return 2
    ctx = Context(args.seconds)
    try:
        ctx.compile_sources()
        outcome = WORKLOADS[args.workload](ctx, args.seed, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    line = result_line(outcome, bool(args.trace))
    _summary(args, outcome, line)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _summary(args, outcome: Outcome, line: Dict) -> None:
    out = sys.stderr
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}", file=out)
    for note in outcome.notes:
        print(note, file=out)
    share = outcome.failed_ops / outcome.attempted if outcome.attempted else 0.0
    print(f"failed_share {share:.4f} ({outcome.failed_ops}/{outcome.attempted})", file=out)
    for message in outcome.failures[:20]:
        print(f"FAILED: {message}", file=out)
    for name, metric in line["metrics"].items():
        print(f"  {name:<40} {metric['value']:14.6g} {metric['unit']}", file=out)


if __name__ == "__main__":
    sys.exit(main())
