"""Command-line interface for regenerating the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro tables                    # Tables 1 and 2
    python -m repro swaps --scale small       # Fig. 11-style SWAP study
    python -m repro swaps --scale large       # Fig. 4 / 12-style SWAP study
    python -m repro codesign --scale small    # Fig. 13-style co-design study
    python -m repro headline                  # abstract's headline ratios
    python -m repro sensitivity               # Fig. 15 sensitivity study
    python -m repro chevron                   # Fig. 6 chevron
    python -m repro frequency --scale small   # frequency-crowding extension study
    python -m repro schedule --scale small    # duration-aware co-design extension
    python -m repro reliability QuantumVolume 12   # wall-clock reliability ranking
    python -m repro qasm GHZ 8                # export a workload as OpenQASM 2
    python -m repro run QuantumVolume 12 --topology corral-1-1 --basis sqiswap --level 2
    python -m repro cache gc --cache-dir .repro-cache --max-bytes 100000000
    python -m repro serve --port 8537 --workers 4 --cache-dir .repro-cache
    python -m repro bench record BENCH_smoke.json  # append run to bench history
    python -m repro bench report --markdown        # trajectory table
    python -m repro bench check --tolerance 0.25   # regression gate (exit 1)

Every sub-command prints a text report; ``--csv PATH`` additionally writes
the raw data for external plotting.  Experiment commands accept
``--parallel`` / ``--workers N`` to fan sweep points out over a process
pool (identical results, less wall-clock) and ``--no-cache`` to disable
in-process result memoization.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, NoReturn, Optional, Sequence, Tuple

from repro.circuits import QuantumCircuit
from repro.core import (
    ReliabilityModel,
    design_targets,
    reliability_ranking,
    run_point,
    run_sweep,
)
from repro.core.reliability import format_reliability_report
from repro.core.sensitivity import format_sensitivity_report
from repro.experiments import (
    chevron_summary,
    codesign_study,
    figure6_study,
    figure15_study,
    format_frequency_report,
    format_gate_report,
    format_headline_report,
    format_scheduling_report,
    format_swap_report,
    format_table_comparison,
    frequency_crowding_study,
    headline_study,
    reduction_comparison,
    scheduling_study,
    swap_study,
    table1,
    table2,
)
from repro.experiments.swap_study import (
    FIG4_TOPOLOGIES,
    FIG11_TOPOLOGIES,
    FIG12_TOPOLOGIES,
    default_sizes,
)
from repro.qasm import circuit_to_qasm
from repro.runtime import (
    ExperimentRunner,
    FailurePolicy,
    FaultPlan,
    PersistentResultCache,
    cache_dir_from_env,
    collect_garbage,
    max_bytes_from_env,
    resolve_result_cache,
    segment_stats,
    verify_cache,
)
from repro.snailsim import render_ascii_chevron
from repro.topology.registry import HEAVY_HEX, HYPERCUBE, large_topologies, small_topologies
from repro.transpiler import (
    Target,
    available_levels,
    available_passes,
    format_metrics_table,
    transpile,
)
from repro.visualization import sweep_to_csv
from repro.workloads import PAPER_WORKLOADS, available_workloads, build_workload


def _positive_int(value: str) -> int:
    """argparse type of counts and circuit widths: an integer >= 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def _non_negative_int(value: str) -> int:
    """argparse type of seeds, retry counts and byte budgets: an integer >= 0.

    NumPy rejects negative seeds, and a negative budget would evict every
    record.
    """
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return number


def _positive_float(value: str) -> float:
    """argparse type of ``--task-timeout``: a finite number > 0."""
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError("must be a positive number")
    return number


def _non_negative_float(value: str) -> float:
    """argparse type of ``--max-age-hours`` and ``bench check --tolerance``.

    A finite number >= 0: a NaN or infinite tolerance would pass any
    slowdown, and a negative one would fail every benchmark.
    """
    number = float(value)
    if not (math.isfinite(number) and number >= 0):
        raise argparse.ArgumentTypeError("must be a non-negative number")
    return number


def _port(value: str) -> int:
    """argparse type of ``serve --port``: a TCP port, 0..65535 (0 picks one)."""
    number = int(value)
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError("must be a TCP port in 0..65535")
    return number


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution-runtime options shared by every experiment command."""
    parser.add_argument(
        "--parallel",
        action="store_true",
        default=None,
        help="fan sweep points out over a process pool (REPRO_PARALLEL=1 "
        "sets this by default); results are identical to serial runs",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker-process count for --parallel (default: CPU count or "
        "REPRO_WORKERS)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable in-process memoization of repeated sweep points",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for a disk-backed result cache shared across "
        "processes (REPRO_CACHE_DIR sets the default); repeated runs "
        "skip transpilation for every point already on disk",
    )
    parser.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a parallel task that runs longer than this "
        "(default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="re-dispatch a failed/hung parallel task up to N times with "
        "exponential backoff (default: 0)",
    )
    parser.add_argument(
        "--on-poison",
        choices=("quarantine", "raise", "skip"),
        default=None,
        help="what to do with a task that repeatedly crashes its worker: "
        "quarantine it (probe in isolation, then continue without it — "
        "the default), raise, or skip without probing",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan for chaos drills, e.g. "
        "'crash@3;hang@5=0.4;state=/tmp/faults' "
        "(REPRO_FAULT_PLAN sets the default; see docs/robustness.md)",
    )


def _runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    """Build the experiment runner the parsed runtime options describe.

    The runner is remembered on the namespace so that :func:`main` can
    report cache and fault statistics once the command has finished.
    """
    failure_policy = None
    if any(
        getattr(args, name, None) is not None
        for name in ("task_timeout", "max_retries", "on_poison")
    ):
        failure_policy = FailurePolicy(
            task_timeout=getattr(args, "task_timeout", None),
            max_retries=getattr(args, "max_retries", None) or 0,
            on_poison=getattr(args, "on_poison", None) or "quarantine",
        )
    runner = ExperimentRunner(
        parallel=getattr(args, "parallel", None),
        max_workers=getattr(args, "workers", None),
        result_cache=resolve_result_cache(
            cache_dir=getattr(args, "cache_dir", None),
            no_cache=getattr(args, "no_cache", False),
        ),
        failure_policy=failure_policy,
        fault_plan=FaultPlan.parse(getattr(args, "inject_faults", None)),
    )
    args._runner = runner
    return runner


def _cache_report(args: argparse.Namespace) -> Optional[str]:
    """One status line about the persistent cache, if one was used."""
    runner = getattr(args, "_runner", None)
    if runner is None or not isinstance(runner.result_cache, PersistentResultCache):
        return None
    stats = runner.result_cache.stats()
    return (
        f"result cache [{runner.result_cache.cache_dir}]: "
        f"{stats.hits} memory hits, {stats.disk_hits} disk hits, "
        f"{stats.computed} transpiled"
    )


def _fault_report(args: argparse.Namespace) -> Optional[str]:
    """One status line about absorbed failures, if any occurred."""
    runner = getattr(args, "_runner", None)
    if runner is None or not runner.fault_stats:
        return None
    return runner.fault_stats.describe()


def _add_common_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=("small", "large"), default="small")
    parser.add_argument("--sizes", type=_positive_int, nargs="*", default=None)
    parser.add_argument("--workloads", nargs="*", choices=available_workloads(), default=None)
    parser.add_argument("--seed", type=_non_negative_int, default=11)
    parser.add_argument("--csv", default=None, help="write the raw sweep data to a CSV file")
    _add_runtime_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Co-Designed Architectures for "
        "Modular Superconducting Quantum Computers' (HPCA 2023).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tables_parser = commands.add_parser("tables", help="regenerate Tables 1 and 2")
    _add_runtime_arguments(tables_parser)

    swaps = commands.add_parser("swaps", help="SWAP-count study (Figs. 4, 11, 12)")
    _add_common_sweep_arguments(swaps)

    codesign = commands.add_parser("codesign", help="co-design 2Q study (Figs. 13, 14)")
    _add_common_sweep_arguments(codesign)

    headline = commands.add_parser("headline", help="headline QV ratios (abstract)")
    headline.add_argument("--sizes", type=_positive_int, nargs="*", default=None)
    headline.add_argument("--seed", type=_non_negative_int, default=11)
    _add_runtime_arguments(headline)

    sensitivity = commands.add_parser("sensitivity", help="n-root iSWAP study (Fig. 15)")
    sensitivity.add_argument("--seed", type=_non_negative_int, default=2022)
    _add_runtime_arguments(sensitivity)

    chevron = commands.add_parser("chevron", help="SNAIL exchange chevron (Fig. 6)")
    _add_runtime_arguments(chevron)

    frequency = commands.add_parser(
        "frequency", help="frequency-crowding feasibility per (topology, modulator)"
    )
    frequency.add_argument("--scale", choices=("small", "large"), default="small")
    _add_runtime_arguments(frequency)

    schedule = commands.add_parser(
        "schedule", help="duration-aware co-design study (physical pulse lengths)"
    )
    schedule.add_argument("--scale", choices=("small", "large"), default="small")
    schedule.add_argument("--sizes", type=_positive_int, nargs="*", default=(8, 12, 16))
    schedule.add_argument(
        "--workloads",
        nargs="*",
        choices=available_workloads(),
        default=("QuantumVolume", "GHZ"),
    )
    schedule.add_argument("--seed", type=_non_negative_int, default=5)
    _add_runtime_arguments(schedule)

    reliability = commands.add_parser(
        "reliability", help="wall-clock reliability ranking of the design points"
    )
    reliability.add_argument("workload", choices=available_workloads())
    reliability.add_argument("size", type=_positive_int)
    reliability.add_argument("--scale", choices=("small", "large"), default="small")
    reliability.add_argument("--two-qubit-fidelity", type=float, default=0.995)
    reliability.add_argument("--t1-us", type=float, default=100.0)
    reliability.add_argument("--t2-us", type=float, default=100.0)
    reliability.add_argument("--seed", type=_non_negative_int, default=0)
    _add_runtime_arguments(reliability)

    qasm = commands.add_parser("qasm", help="export a workload circuit as OpenQASM 2")
    qasm.add_argument("workload", choices=available_workloads())
    qasm.add_argument("size", type=_positive_int)
    qasm.add_argument("--seed", type=_non_negative_int, default=0)
    qasm.add_argument(
        "--transpile-to",
        default=None,
        help="optional topology name; the circuit is transpiled (synthesis mode) before export",
    )
    qasm.add_argument("--basis", default="siswap")
    qasm.add_argument("--scale", choices=("small", "large"), default="small")

    cache = commands.add_parser(
        "cache", help="inspect or garbage-collect a shared result-cache directory"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = cache_commands.add_parser(
        "gc", help="evict records by total-size and/or age budget, oldest first"
    )
    cache_gc.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory to collect (REPRO_CACHE_DIR sets the default)",
    )
    cache_gc.add_argument(
        "--max-bytes",
        type=_non_negative_int,
        default=None,
        help="keep at most this many bytes of records "
        "(REPRO_CACHE_MAX_BYTES sets the default)",
    )
    cache_gc.add_argument(
        "--max-age-hours",
        type=_non_negative_float,
        default=None,
        help="evict records older than this many hours",
    )
    cache_info = cache_commands.add_parser(
        "info", help="report the record count and total size of a cache directory"
    )
    cache_info.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory to inspect (REPRO_CACHE_DIR sets the default)",
    )
    cache_verify = cache_commands.add_parser(
        "verify",
        help="audit every segment frame (CRC validation); "
        "exits non-zero on unrepaired corruption",
    )
    cache_verify.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory to audit (REPRO_CACHE_DIR sets the default)",
    )
    cache_verify.add_argument(
        "--repair",
        action="store_true",
        help="rewrite damaged segments keeping only their valid frames "
        "(dropped records heal as cache misses)",
    )

    bench = commands.add_parser(
        "bench",
        help="record, report and gate on benchmark trajectories "
        "(BENCH_*.json history)",
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    def _add_history_dir(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--history-dir",
            default=None,
            help="bench-history directory (REPRO_BENCH_HISTORY sets the "
            "default; falls back to ./.repro-bench-history)",
        )

    bench_record = bench_commands.add_parser(
        "record",
        help="append a pytest-benchmark artifact to the per-benchmark history",
    )
    bench_record.add_argument("artifact", type=Path, help="BENCH_*.json to record")
    _add_history_dir(bench_record)
    bench_record.add_argument(
        "--sha", default=None, help="git SHA to tag the run with "
        "(default: the artifact's own provenance, then the checkout)"
    )
    bench_record.add_argument(
        "--timestamp", default=None,
        help="run timestamp to record (default: the artifact's datetime field)",
    )
    bench_record.add_argument(
        "--host", default=None,
        help="host tag to record (default: the artifact's machine_info node)",
    )

    bench_report = bench_commands.add_parser(
        "report", help="render the per-benchmark trajectory table"
    )
    _add_history_dir(bench_report)
    bench_report.add_argument(
        "--markdown", action="store_true", help="emit a markdown table"
    )
    bench_report.add_argument(
        "--window", type=_positive_int, default=5,
        help="rolling-median window for the delta column (default: 5)",
    )

    bench_check = bench_commands.add_parser(
        "check",
        help="gate the newest recorded run against the rolling baseline "
        "(non-zero exit on regression or vanished benchmarks)",
    )
    _add_history_dir(bench_check)
    bench_check.add_argument(
        "--tolerance", type=_non_negative_float, default=0.25,
        help="allowed fractional slowdown vs the rolling median "
        "(default: 0.25)",
    )
    bench_check.add_argument(
        "--window", type=_positive_int, default=5,
        help="rolling-baseline window: median of the last N prior entries "
        "per benchmark (default: 5)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the persistent compilation server (warm pool + resident cache)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=_port,
        default=8537,
        help="TCP port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="process-pool size for the resident runner (default: CPU count "
        "or REPRO_WORKERS)",
    )
    serve.add_argument(
        "--serial",
        action="store_true",
        help="run the resident runner without a process pool",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the resident shared result cache "
        "(REPRO_CACHE_DIR sets the default)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching entirely",
    )
    serve.add_argument(
        "--queue-size",
        type=_positive_int,
        default=64,
        help="bound on queued requests; a full queue answers 503",
    )

    sweep = commands.add_parser(
        "sweep",
        help="grid sweep; a rerun on the same --cache-dir recomputes only "
        "what is missing",
    )
    sweep.add_argument(
        "--workloads", nargs="*", choices=available_workloads(),
        default=("QuantumVolume", "GHZ"),
        help="workload names (default: QuantumVolume GHZ)",
    )
    sweep.add_argument(
        "--sizes", type=_positive_int, nargs="*", default=(4, 8, 12),
        help="circuit widths (default: 4 8 12)",
    )
    sweep.add_argument(
        "--topologies",
        nargs="*",
        default=None,
        help="topology names (default: the scale's co-design points)",
    )
    sweep.add_argument(
        "--basis",
        default=None,
        help="basis gate of the --topologies targets (default: siswap)",
    )
    sweep.add_argument("--scale", choices=("small", "large"), default="small")
    sweep.add_argument(
        "--layout",
        choices=available_passes("layout"),
        default=None,
        help="layout pass (default: the level preset)",
    )
    sweep.add_argument(
        "--routing",
        choices=available_passes("routing"),
        default=None,
        help="routing pass (default: the level preset)",
    )
    sweep.add_argument(
        "--level", type=int, choices=available_levels(), default=1
    )
    sweep.add_argument("--seed", type=_non_negative_int, default=11)
    sweep.add_argument("--csv", default=None, help="write the sweep records to a CSV file")
    _add_runtime_arguments(sweep)

    run = commands.add_parser("run", help="transpile one workload on one design point")
    run.add_argument("workload", choices=available_workloads())
    run.add_argument("size", type=_positive_int)
    run.add_argument("--topology", default="Corral1,1")
    run.add_argument("--basis", default="siswap")
    run.add_argument("--scale", choices=("small", "large"), default="small")
    # Choices are enumerated from the transpiler's pass registry, so a pass
    # registered via @register_pass becomes addressable here with no CLI
    # change, and a bad name errors listing the registered options.
    run.add_argument(
        "--routing",
        choices=available_passes("routing"),
        default=None,
        help="routing pass (registered: %(choices)s; default: the level preset)",
    )
    run.add_argument(
        "--layout",
        choices=available_passes("layout"),
        default=None,
        help="layout pass (registered: %(choices)s; default: the level preset)",
    )
    run.add_argument(
        "--level",
        type=int,
        choices=available_levels(),
        default=1,
        help="optimization level: 0 fastest, 1 paper flow (default), "
        "2 adds gate cancellation, 3 adds noise-aware routing + scheduling",
    )
    run.add_argument("--seed", type=_non_negative_int, default=0)
    run.add_argument(
        "--timing",
        action="store_true",
        help="append a per-stage wall-time report for the compilation",
    )

    return parser


def _format_stage_times(stage_times) -> str:
    """Fixed-width per-stage timing table (the CLI ``--timing`` report)."""
    total = sum(stage_times.values()) or 1.0
    lines = [f"{'stage':<14}{'time [ms]':>12}{'share':>8}", "-" * 34]
    for stage, elapsed in stage_times.items():  # insertion order = run order
        lines.append(
            f"{stage:<14}{1e3 * elapsed:>12.2f}{100 * elapsed / total:>7.1f}%"
        )
    lines.append(f"{'total':<14}{1e3 * sum(stage_times.values()):>12.2f}{'':>8}")
    return "\n".join(lines)


def _command_tables(args: argparse.Namespace) -> str:
    runner = _runner_from_args(args)
    return "\n\n".join(
        [
            format_table_comparison(table1(runner=runner), "Table 1 (measured | paper)"),
            format_table_comparison(table2(runner=runner), "Table 2 (measured | paper)"),
        ]
    )


def _command_swaps(args: argparse.Namespace) -> str:
    topologies = FIG11_TOPOLOGIES if args.scale == "small" else FIG12_TOPOLOGIES
    if args.scale == "large" and args.workloads is None:
        topologies = FIG4_TOPOLOGIES
    registry = small_topologies() if args.scale == "small" else large_topologies()
    workloads, sizes = _study_grid(args)
    _check_grid(
        "swaps",
        workloads,
        sizes,
        [registry[name].num_qubits for name in topologies],
        args.scale,
        args.seed,
    )
    result = swap_study(
        args.scale,
        topologies,
        workloads=workloads,
        sizes=sizes,
        seed=args.seed,
        runner=_runner_from_args(args),
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(sweep_to_csv(result))
    return format_swap_report(result, "total_swaps") + "\n" + format_swap_report(
        result, "critical_swaps"
    )


def _command_codesign(args: argparse.Namespace) -> str:
    workloads, sizes = _study_grid(args)
    _check_grid("codesign", workloads, sizes, _design_widths(args.scale), args.scale, args.seed)
    result = codesign_study(
        args.scale,
        workloads=workloads,
        sizes=sizes,
        seed=args.seed,
        runner=_runner_from_args(args),
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(sweep_to_csv(result))
    return format_gate_report(result, "total_2q") + "\n" + format_gate_report(
        result, "critical_2q"
    )


def _command_headline(args: argparse.Namespace) -> str:
    if args.sizes is not None:
        # Quantum Volume needs two qubits; every size must fit both devices.
        devices = large_topologies()
        width = min(devices[HEAVY_HEX].num_qubits, devices[HYPERCUBE].num_qubits)
        outside = [size for size in args.sizes if not 2 <= size <= width]
        if outside or not args.sizes:
            _usage_error(
                "headline",
                f"--sizes must be one or more of 2..{width} (Quantum Volume on "
                f"{HEAVY_HEX} and {HYPERCUBE}); got {args.sizes}",
            )
    ratios = headline_study(
        sizes=args.sizes, seed=args.seed, runner=_runner_from_args(args)
    )
    return format_headline_report(ratios)


def _command_sensitivity(args: argparse.Namespace) -> str:
    result = figure15_study(seed=args.seed, runner=_runner_from_args(args))
    report = [format_sensitivity_report(result), ""]
    for root, values in sorted(reduction_comparison(result).items()):
        report.append(
            f"n={root}: measured reduction {100 * values['measured']:+.1f}% "
            f"(paper {100 * values['paper']:.0f}%)"
        )
    return "\n".join(report)


def _command_chevron(args: argparse.Namespace) -> str:
    data = figure6_study(runner=_runner_from_args(args))
    return chevron_summary(data) + "\n\n" + render_ascii_chevron(data)


def _command_frequency(args: argparse.Namespace) -> str:
    return format_frequency_report(
        frequency_crowding_study(scale=args.scale, runner=_runner_from_args(args))
    )


def _command_schedule(args: argparse.Namespace) -> str:
    _check_grid(
        "schedule", args.workloads, args.sizes, _design_widths(args.scale), args.scale, args.seed
    )
    rows = scheduling_study(
        scale=args.scale,
        workloads=tuple(args.workloads),
        sizes=tuple(args.sizes),
        seed=args.seed,
        runner=_runner_from_args(args),
    )
    return format_scheduling_report(rows)


def _command_reliability(args: argparse.Namespace) -> str:
    # The model owns its parameter rules, T2 <= 2*T1 among them, which spans
    # two options and so cannot be an argparse type.
    try:
        model = ReliabilityModel(
            two_qubit_fidelity=args.two_qubit_fidelity, t1_us=args.t1_us, t2_us=args.t2_us
        )
    except ValueError as error:
        _usage_error("reliability", error)
    targets = list(design_targets(args.scale).values())
    _checked_workload("reliability", args.workload, args.size, args.seed)
    ranking = reliability_ranking(
        targets,
        args.workload,
        args.size,
        model=model,
        seed=args.seed,
        runner=_runner_from_args(args),
    )
    return format_reliability_report(ranking)


def _usage_error(verb: str, message: object) -> NoReturn:
    """Report bad user input as one line on stderr and exit with code 2."""
    print(f"repro {verb}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _checked_workload(verb: str, workload: str, size: int, seed: int) -> QuantumCircuit:
    """The workload circuit; a width its builder rejects is a usage error."""
    try:
        return build_workload(workload, size, seed=seed)
    except ValueError as error:
        _usage_error(verb, error)


def _design_widths(scale: str) -> List[int]:
    """Qubit counts of the co-design points at ``scale``."""
    return [target.num_qubits for target in design_targets(scale).values()]


def _check_grid(
    verb: str,
    workloads: Sequence[str],
    sizes: Sequence[int],
    widths: Sequence[int],
    scale: str,
    seed: int,
) -> None:
    """Refuse a grid that would fail or compile nothing, before compiling.

    The sweep skips every point wider than its device, so a grid in which
    no requested size fits any selected design point would print an empty
    report.  A workload builder rejects only widths below its minimum (see
    :func:`~repro.workloads.registry.register_workload`), so building each
    workload once, at the smallest size that fits, finds every width the
    sweep would fail on.
    """
    if not workloads:
        _usage_error(verb, "--workloads names no workload")
    fitting = [size for size in sizes if size <= max(widths)]
    if not fitting:
        _usage_error(
            verb,
            f"no size in --sizes {list(sizes)} fits a selected design point "
            f"(at most {max(widths)} qubits at scale {scale!r})",
        )
    for workload in workloads:
        _checked_workload(verb, workload, min(fitting), seed)


def _study_grid(args: argparse.Namespace) -> Tuple[List[str], List[int]]:
    """The workloads and sizes of a ``swaps`` / ``codesign`` grid.

    Decided once, so the grid check and the study see the same lists.
    """
    workloads = list(args.workloads or PAPER_WORKLOADS)
    sizes = list(args.sizes or default_sizes(args.scale))
    return workloads, sizes


def _named_target(verb: str, topology: str, basis: str, scale: str) -> Target:
    """The named target; an unknown topology, scale or basis name is a usage error."""
    try:
        return Target.from_names(topology, basis, scale=scale, name=f"{topology}-{basis}")
    except ValueError as error:
        _usage_error(verb, error)


def _checked_target(verb: str, topology: str, basis: str, scale: str, size: int) -> Target:
    """The named target, checked to hold a ``size``-qubit workload.

    Unknown topology, scale or basis names and workloads wider than the
    device are usage errors, reported before anything is compiled.
    """
    target = _named_target(verb, topology, basis, scale)
    if size > target.num_qubits:
        _usage_error(
            verb,
            f"a {size}-qubit workload does not fit topology {topology!r}, "
            f"which has {target.num_qubits} qubits at scale {scale!r}",
        )
    return target


def _command_qasm(args: argparse.Namespace) -> str:
    target = None
    if args.transpile_to is not None:
        target = _checked_target("qasm", args.transpile_to, args.basis, args.scale, args.size)
    circuit = _checked_workload("qasm", args.workload, args.size, args.seed)
    if target is not None:
        circuit = transpile(circuit, target, translation_mode="synthesis").circuit
    return circuit_to_qasm(circuit)


def _command_cache(args: argparse.Namespace) -> str:
    directory = args.cache_dir if args.cache_dir is not None else cache_dir_from_env()
    if directory is None:
        _usage_error("cache", "no cache directory given (use --cache-dir or REPRO_CACHE_DIR)")
    if args.cache_command == "info":
        # A pure read-only scan: segment_stats never rewrites, truncates or
        # sweeps anything, so `info` is safe to run beside a live writer.
        resolved = Path(directory).expanduser().resolve()
        report = segment_stats(resolved) if resolved.is_dir() else None
        if report is None or report.live_records == 0:
            # An empty or not-yet-created directory deserves an explicit
            # answer (with the path actually inspected), not a bare zero
            # report that reads like a formatting bug.
            state = "no cache directory" if not resolved.is_dir() else "empty cache"
            return f"result cache [{resolved}]: {state} (0 records)"
        return f"result cache [{resolved}]:\n{report.describe()}"
    if args.cache_command == "verify":
        resolved = Path(directory).expanduser().resolve()
        if not resolved.is_dir():
            return f"cache verify [{resolved}]: no cache directory"
        # Without --repair this is a pure read-only audit (safe beside
        # readers); with it, damaged segments are rewritten like GC does.
        report = verify_cache(resolved, repair=args.repair)
        body = f"cache verify [{resolved}]:\n{report.describe()}"
        if not report.clean and not args.repair:
            # On stdout like a clean report, so a caller that captures
            # stdout sees what failed; the exit code says it failed.
            print(body + "\nrun again with --repair to drop the corrupt frames")
            raise SystemExit(1)
        return body
    max_bytes = args.max_bytes if args.max_bytes is not None else max_bytes_from_env()
    max_age = None if args.max_age_hours is None else args.max_age_hours * 3600.0
    # Without an eviction policy `cache gc` is still useful: it compacts
    # dead bytes and corrupt tails out of the segments.
    report = collect_garbage(
        directory, max_bytes=max_bytes, max_age_seconds=max_age, compact=True
    )
    return f"cache gc [{directory}]: {report.describe()}"


def _command_bench(args: argparse.Namespace) -> str:
    # Imported lazily like the server: the bench verbs are tooling around
    # the benchmark harness and pull in nothing the hot paths need.
    from repro.bench import (
        DEFAULT_HISTORY_DIR,
        BenchHistory,
        MalformedArtifactError,
        format_comparison,
        format_report,
        history_dir_from_env,
    )

    directory = (
        args.history_dir
        if args.history_dir is not None
        else (history_dir_from_env() or DEFAULT_HISTORY_DIR)
    )
    history = BenchHistory(directory)

    if args.bench_command == "record":
        try:
            manifest = history.record(
                args.artifact,
                git_sha=args.sha,
                timestamp=args.timestamp,
                host=args.host,
            )
        except MalformedArtifactError as error:
            print(f"repro bench record: {error}", file=sys.stderr)
            raise SystemExit(2) from error
        sha = (manifest.get("git_sha") or "unknown")[:12]
        return (
            f"recorded run #{manifest['run']}: {manifest['benchmarks']} "
            f"benchmark(s) from {args.artifact.name} "
            f"(sha={sha} host={manifest.get('host') or 'unknown'}) "
            f"-> {history.root}"
        )

    if args.bench_command == "report":
        return format_report(history, markdown=args.markdown, window=args.window)

    # bench check: gate the newest run against the rolling baseline.
    check = history.check(tolerance=args.tolerance, window=args.window)
    lines = [
        f"bench check [{history.root}]: window={check.window}, "
        f"tolerance ±{args.tolerance:.0%}"
    ]
    lines.extend(check.notes)
    if check.comparison is not None:
        latest = check.latest_run or {}
        sha = (latest.get("git_sha") or "unknown")[:12]
        lines.append(
            format_comparison(
                check.comparison,
                current_label=f"run #{latest.get('run', '?')} (sha={sha})",
                baseline_label=f"rolling median of last {check.window} runs",
            )
        )
    if check.insufficient:
        lines.append(
            "first-seen benchmarks (no prior series, not gated): "
            + ", ".join(check.insufficient)
        )
    body = "\n".join(lines)
    if check.failed:
        # On stdout like a passing report; the exit code says it failed.
        print(body + "\nbench check FAILED: " + "; ".join(check.violations))
        raise SystemExit(1)
    return body


def _command_sweep(args: argparse.Namespace) -> str:
    if args.topologies:
        basis = "siswap" if args.basis is None else args.basis
        targets = [
            _named_target("sweep", name, basis, args.scale) for name in args.topologies
        ]
    elif args.basis is not None:
        _usage_error(
            "sweep", "--basis needs --topologies (each default design point has its own basis)"
        )
    else:
        targets = list(design_targets(args.scale).values())
    _check_grid(
        "sweep",
        args.workloads,
        args.sizes,
        [target.num_qubits for target in targets],
        args.scale,
        args.seed,
    )
    result = run_sweep(
        args.workloads,
        args.sizes,
        targets,
        seed=args.seed,
        layout_method=args.layout,
        routing_method=args.routing,
        optimization_level=args.level,
        runner=_runner_from_args(args),
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(sweep_to_csv(result))
    body = f"sweep complete: {len(result)} points"
    if result.failed_points:
        labels = "; ".join(point["label"] for point in result.failed_points)
        body += (
            f", {len(result.failed_points)} failed"
            f"\nfailed points (quarantined): {labels}"
        )
    return body


def _command_serve(args: argparse.Namespace) -> str:
    # Imported lazily: the server pulls in asyncio machinery no other
    # command needs, and keeping it out of module import keeps `repro run`
    # startup unchanged.
    from repro.server import ServerBindError, run_server

    try:
        return run_server(
            host=args.host,
            port=args.port,
            parallel=not args.serial,
            workers=args.workers,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            queue_size=args.queue_size,
        )
    except ServerBindError as error:
        raise SystemExit(f"repro serve: {error}") from error


def _command_run(args: argparse.Namespace) -> str:
    target = _checked_target("run", args.topology, args.basis, args.scale, args.size)
    # run_point builds the circuit again; building it here first turns a
    # width the workload rejects into a usage error before compiling.
    _checked_workload("run", args.workload, args.size, args.seed)
    metrics = run_point(
        args.workload,
        args.size,
        target,
        seed=args.seed,
        layout_method=args.layout,
        routing_method=args.routing,
        optimization_level=args.level,
    )
    report = format_metrics_table([metrics])
    if args.timing:
        stage_times = metrics.extra.get("stage_times") or {}
        report += "\n\n" + _format_stage_times(stage_times)
    return report


_COMMANDS = {
    "tables": _command_tables,
    "swaps": _command_swaps,
    "codesign": _command_codesign,
    "headline": _command_headline,
    "sensitivity": _command_sensitivity,
    "chevron": _command_chevron,
    "frequency": _command_frequency,
    "schedule": _command_schedule,
    "reliability": _command_reliability,
    "qasm": _command_qasm,
    "bench": _command_bench,
    "cache": _command_cache,
    "sweep": _command_sweep,
    "serve": _command_serve,
    "run": _command_run,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
        print(output)
        cache_line = _cache_report(args)
        if cache_line is not None:
            print(cache_line, file=sys.stderr)
        fault_line = _fault_report(args)
        if fault_line is not None:
            print(fault_line, file=sys.stderr)
    finally:
        # Shut the pool down here rather than in interpreter-exit hooks,
        # which may find its wake-up pipe already closed.
        runner = getattr(args, "_runner", None)
        if runner is not None:
            runner.close()
            if isinstance(runner.result_cache, PersistentResultCache):
                runner.result_cache.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
