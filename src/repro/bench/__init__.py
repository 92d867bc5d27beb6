"""Performance observability: benchmark trajectories and regression gates.

Every headline claim in this reproduction is a speedup (the ~40x noisy
simulator, the ~6x router, the ~200x warm-server soak), and the smoke CI
uploads one ``BENCH_*.json`` artifact per run — but a single artifact
diffed against a single committed baseline cannot tell a noisy runner
from a real erosion.  This package closes the loop with three layers:

* :mod:`repro.bench.artifact` — hardened loading of pytest-benchmark
  JSON artifacts (:func:`read_artifact`, :func:`load_means`) with run
  provenance (:class:`RunMeta`: git SHA, timestamp, host tag) and a
  named :class:`MalformedArtifactError` instead of bare ``KeyError``\\ s.
* :mod:`repro.bench.compare` — the single comparison core shared by
  the ``repro bench`` CLI verbs and CI:
  tolerance-band bucketing (:func:`compare`), provenance-carrying
  baseline IO (:func:`write_baseline` / :func:`read_baseline`) and the
  strict-mode rules (regressions, *gone* benchmarks and an empty
  current∩baseline overlap all fail).
* :mod:`repro.bench.history` — an append-only history store
  (:class:`BenchHistory`): one JSON-lines series per benchmark keyed by
  benchmark name (disk-cache idiom: slug + content digest filenames,
  torn tail lines read as misses), a ``runs.jsonl`` manifest, and a
  rolling-baseline regression check (:meth:`BenchHistory.check`).
* :mod:`repro.bench.report` — terminal / markdown trajectory tables
  with sparkline series (:func:`format_report`).

Exit-code contract (``repro bench``):
``0`` = no gate violated, ``1`` = regression / gone benchmark / empty
overlap (strict or ``check``), ``2`` = malformed artifact or usage
error.  See ``docs/architecture.md`` for the on-disk history format.
"""

from repro.bench.artifact import (
    Artifact,
    MalformedArtifactError,
    RunMeta,
    current_git_sha,
    load_means,
    read_artifact,
)
from repro.bench.compare import (
    ZERO_BASELINE_FLOOR,
    Comparison,
    compare,
    format_comparison,
    read_baseline,
    run_compare,
    write_baseline,
)
from repro.bench.history import (
    DEFAULT_HISTORY_DIR,
    BenchCheck,
    BenchHistory,
    HistoryEntry,
    history_dir_from_env,
)
from repro.bench.report import format_report, sparkline

__all__ = [
    "Artifact",
    "MalformedArtifactError",
    "RunMeta",
    "current_git_sha",
    "load_means",
    "read_artifact",
    "ZERO_BASELINE_FLOOR",
    "Comparison",
    "compare",
    "format_comparison",
    "read_baseline",
    "run_compare",
    "write_baseline",
    "DEFAULT_HISTORY_DIR",
    "BenchCheck",
    "BenchHistory",
    "HistoryEntry",
    "history_dir_from_env",
    "format_report",
    "sparkline",
]
