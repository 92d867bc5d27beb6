"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  By
default a *quick* configuration is used (smaller circuit-size grids and
fewer random targets) so that ``pytest benchmarks/ --benchmark-only``
finishes on a laptop in minutes; set ``REPRO_FULL=1`` to run the paper's
full grids.

The regenerated rows/series are printed to stderr (visible with ``-s``)
and attached to each benchmark's ``extra_info`` so they also appear in
``--benchmark-json`` output.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import pytest


_BENCHMARK_DIR = Path(__file__).resolve().parent

# The speed-up benchmarks time production passes against the test-only
# reference implementations in ``tests/oracles.py``.
sys.path.insert(0, str(_BENCHMARK_DIR.parent / "tests"))


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Stamp run provenance into the ``--benchmark-json`` artifact.

    ``repro bench record`` / ``repro bench compare`` read this
    ``repro_run_meta`` block (git SHA, host tag, run timestamp) so every
    recorded trajectory point and every written baseline says which
    commit on which machine produced it.  The same fields are mirrored
    into each benchmark's ``extra_info`` for consumers that only look at
    per-benchmark entries.  The timestamp reuses pytest-benchmark's own
    ``datetime`` field — no second clock reading, so artifact and meta
    can never disagree about when the run happened.
    """
    from repro.bench.artifact import current_git_sha

    meta = {
        "git_sha": current_git_sha(cwd=_BENCHMARK_DIR),
        "host": platform.node() or None,
        "timestamp": output_json.get("datetime"),
    }
    output_json["repro_run_meta"] = meta
    for bench in output_json.get("benchmarks", []):
        extra = bench.setdefault("extra_info", {})
        extra.setdefault("git_sha", meta["git_sha"])
        extra.setdefault("host", meta["host"])
        extra.setdefault("timestamp", meta["timestamp"])


def pytest_collection_modifyitems(items):
    """Every benchmark regenerates a full table/figure: tag them ``slow``.

    The CI per-commit gate runs ``-m "not slow"`` and therefore skips the
    benchmark tree; the smoke-benchmark and nightly jobs select it
    explicitly by path.  (This hook sees the whole session's items, so it
    must only touch the ones that live in this directory.)
    """
    for item in items:
        if _BENCHMARK_DIR in Path(item.fspath).resolve().parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def emit():
    """Fixture: print a regenerated table/series and attach it to the benchmark."""

    def _emit(benchmark, title: str, payload) -> None:
        text = (
            payload
            if isinstance(payload, str)
            else json.dumps(payload, indent=2, default=str)
        )
        print(f"\n===== {title} =====\n{text}\n", file=sys.stderr)
        if isinstance(payload, (str, int, float)):
            benchmark.extra_info[title] = payload
        else:
            benchmark.extra_info[title] = json.loads(json.dumps(payload, default=str))

    return _emit


@pytest.fixture
def run_once():
    """Fixture: run a callable exactly once inside the benchmark timer."""

    def runner(benchmark, fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
