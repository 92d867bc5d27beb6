"""Experiment runtime: parallel fan-out and result caching.

This package is the execution seam between the experiment drivers in
:mod:`repro.experiments` and the transpilation pipeline in
:mod:`repro.core`:

* :class:`ExperimentRunner` — fans independent sweep points out over a
  process pool with ordered collection and a serial fallback, so
  ``parallel=True`` runs are bit-identical to serial ones;
* :class:`ResultCache` — memoizes per-point transpile metrics keyed on the
  full point specification, so repeated sweeps skip recomputation;
* :class:`PersistentResultCache` — the same cache backed by a directory of
  compressed records (``--cache-dir`` / ``REPRO_CACHE_DIR``), so repeated
  CLI *processes* skip transpilation too;
* :func:`point_seed` — deterministic derived seeding that is stable across
  worker processes (unlike the salted builtin ``hash``), for callers that
  want per-point seeds; the built-in drivers deliberately keep the paper's
  shared-seed convention;
* :class:`FailurePolicy` / :class:`FaultStats` — retry, per-task timeout
  and poison-task quarantine for the parallel path, with the absorbed
  failures tallied on :attr:`ExperimentRunner.fault_stats`;
* :class:`FaultPlan` / :class:`FaultInjector` — deterministic fault
  injection (``REPRO_FAULT_PLAN`` / ``repro sweep --inject-faults``) so
  every recovery path is exercised reproducibly;
* :func:`verify_cache` — full-directory CRC/index audit of a persistent
  cache (``repro cache verify``), with ``repair=True`` dropping the
  corrupt frames.

Usage::

    from repro.runtime import ExperimentRunner
    from repro.experiments import swap_study

    runner = ExperimentRunner(parallel=True, max_workers=4)
    result = swap_study("small", ["Corral1,1", "Hypercube"], runner=runner)

Every CLI experiment command accepts ``--parallel`` / ``--workers`` and
builds the runner the same way; ``REPRO_PARALLEL=1`` and ``REPRO_WORKERS``
select the defaults process-wide.
"""

from repro.runtime.cache import ResultCache, point_cache_key
from repro.runtime.disk_cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_BYTES_ENV,
    DEFAULT_SEGMENT_MAX_BYTES,
    GCReport,
    PersistentResultCache,
    SegmentReport,
    cache_dir_from_env,
    collect_garbage,
    human_bytes,
    key_digest,
    max_bytes_from_env,
    resolve_result_cache,
    segment_stats,
    verify_cache,
)
from repro.runtime.disk_cache import VerifyReport
from repro.runtime.faults import (
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    write_corrupt_frame,
)
from repro.runtime.runner import (
    PARALLEL_ENV,
    WORKERS_ENV,
    ExperimentRunner,
    FailurePolicy,
    FaultStats,
    PoisonTaskError,
    default_worker_count,
    parallel_enabled_by_env,
    point_seed,
    serial_runner,
)

__all__ = [
    "ResultCache",
    "point_cache_key",
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "GCReport",
    "PersistentResultCache",
    "SegmentReport",
    "cache_dir_from_env",
    "collect_garbage",
    "human_bytes",
    "key_digest",
    "max_bytes_from_env",
    "resolve_result_cache",
    "segment_stats",
    "verify_cache",
    "VerifyReport",
    "FAULT_PLAN_ENV",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "write_corrupt_frame",
    "PARALLEL_ENV",
    "WORKERS_ENV",
    "ExperimentRunner",
    "FailurePolicy",
    "FaultStats",
    "PoisonTaskError",
    "default_worker_count",
    "parallel_enabled_by_env",
    "point_seed",
    "serial_runner",
]
