"""Shared plumbing of the benchmark: paths, child processes, statistics.

The benchmark process itself imports only the standard library; the
program under test runs in child processes started from here, with
``src`` on ``PYTHONPATH`` and every ``REPRO_*`` variable removed so the
program runs with its defaults.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "compile_child.py"

PAPER_WORKLOADS = ["QuantumVolume", "QFT", "QAOAVanilla", "TIMHamiltonian", "Adder", "GHZ"]

#: (label, topology, basis) of the paper's design points, Figs. 13-14.
SMALL_DESIGN_POINTS = [
    ("Heavy-Hex-CX", "Heavy-Hex", "cx"),
    ("Square-Lattice-SYC", "Square-Lattice", "syc"),
    ("Tree-siswap", "Tree", "siswap"),
    ("Tree-RR-siswap", "Tree-RR", "siswap"),
    ("Hypercube-siswap", "Hypercube", "siswap"),
    ("Corral1,1-siswap", "Corral1,1", "siswap"),
]
LARGE_DESIGN_POINTS = SMALL_DESIGN_POINTS[:5]

#: A child that has not answered after this long has hung.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong program output)."""


class Context:
    """Paths and environment of one benchmark run."""

    def __init__(self, seconds: float):
        self.seconds = float(seconds)
        self.work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        python_path = [str(ROOT / "src")]
        if env.get("PYTHONPATH"):
            python_path.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(python_path)
        env["TMPDIR"] = str(self.work)
        self.env = env

    def compile_sources(self) -> None:
        """Byte-compile the program once, so no timed start pays for it."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
            cwd=ROOT, env=self.env, check=True, stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )

    def run_child(self, job: Dict) -> Tuple[Dict, float]:
        """Run one fresh program process on ``job``; return (output, set-up s)."""
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD)],
                input=json.dumps(job), capture_output=True, text=True,
                cwd=ROOT, env=self.env, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{job['mode']} child hung for {CHILD_TIMEOUT_S:g} s") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{job['mode']} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        output = json.loads(proc.stdout)
        return output, output["ready"] - spawned


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``0 <= q <= 1`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low, high = math.floor(position), math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def record_mismatches(expected: Mapping[str, object], actual: Mapping[str, object]) -> List[str]:
    """Fields whose values differ between two metric records."""
    keys = sorted(set(expected) | set(actual))
    return [
        f"{key}: {expected.get(key)!r} != {actual.get(key)!r}"
        for key in keys
        if expected.get(key) != actual.get(key)
    ]


def median(values: Sequence[float]) -> float:
    """Median (0.0 when empty)."""
    return percentile(values, 0.5)


class Outcome:
    """What a workload reports: operation counts, failures, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.failed_ops = 0
        self.end_to_end: Dict[str, Tuple[float, str]] = {}
        self.per_layer: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
