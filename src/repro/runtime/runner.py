"""Parallel experiment execution with ordered collection and a serial twin.

:class:`ExperimentRunner` is the single execution seam every experiment
driver funnels through.  It fans independent sweep points out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, collects results *in
submission order* (so parallel and serial runs produce identical outputs),
consults an optional result cache before dispatching, and falls back to an
inline serial loop whenever parallelism is disabled, unavailable (no
``fork``/semaphores in restricted sandboxes) or pointless (one task, one
worker).  Library calls take their runner from the caller and never build
a pool or read a cache directory themselves.  Compilation points reach it
through :func:`repro.core.pipeline.map_points`, which makes their tasks,
cache keys and labels; a progress callback is passed per ``map`` call.

Determinism contract: a task function must depend only on its arguments —
every driver in :mod:`repro.experiments` passes explicit seeds (the
paper's shared-seed convention, so identical circuits are compared across
backends) — and the runner never changes results, only wall-clock.
:func:`point_seed` is the provided utility for callers that instead want
*derived* per-point seeds: it is stable across processes and Python
invocations (unlike the salted builtin ``hash``), so fan-out stays
deterministic; no built-in driver uses it, by design.

Failure handling
----------------

A long parallel ``map`` treats worker death, hangs and flaky task
exceptions as events to recover from, not reasons to start over.  The
knobs live in :class:`FailurePolicy`: on ``BrokenProcessPool`` the
runner rebuilds the pool and re-dispatches *only* the unfinished tasks
(results already collected are kept); a task that exceeds
``task_timeout`` has its pool killed and is retried; a task exception is
retried up to ``max_retries`` times with exponential backoff and
deterministic jitter.  When crashes keep coming, the runner attributes
the poison task by probing each unfinished task in an isolated
single-worker pool, then applies ``on_poison``: ``"quarantine"``
(default) records the task in :class:`FaultStats` and yields ``None``
for it, ``"raise"`` raises :class:`PoisonTaskError`, ``"skip"`` records
it without the isolated probe.  Everything that happened is tallied in
:attr:`ExperimentRunner.fault_stats`.  Deterministic fault *injection*
for exercising these paths lives in :mod:`repro.runtime.faults`.

Result cache
------------

Only the parent reads and writes the attached result cache, on serial
and parallel runners alike: ``map`` looks every keyed task up with
``cache.get`` (the memory LRU, then the disk tier of a
:class:`~repro.runtime.disk_cache.PersistentResultCache`) before
dispatch and stores each value it collects with ``cache.put``.  A key
repeated within one ``map`` is looked up, dispatched and stored once.  Pool
workers only compute.  A dispatched task returns ``(corrupt, value)``:
``corrupt`` is True when an injected ``corrupt`` fault fired for it, and
the parent then appends a bad-CRC frame for the key to a disk-backed
cache in place of the record, so the fault acts the same on every
runner.  A task quarantined under the failure policy yields ``None`` and
touches no cache.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.runtime.faults import FaultInjector, FaultPlan, write_corrupt_frame

#: Environment knobs: REPRO_PARALLEL=1 turns fan-out on by default,
#: REPRO_WORKERS caps the pool size.
PARALLEL_ENV = "REPRO_PARALLEL"
WORKERS_ENV = "REPRO_WORKERS"

_TRUTHY = ("1", "true", "True", "yes", "on")


def parallel_enabled_by_env() -> bool:
    """True when the REPRO_PARALLEL environment variable requests fan-out."""
    return os.environ.get(PARALLEL_ENV, "0") in _TRUTHY


def default_worker_count() -> int:
    """Worker count from REPRO_WORKERS, defaulting to the CPU count.

    A non-integer REPRO_WORKERS is reported and ignored rather than
    crashing runner construction deep inside an experiment command.
    """
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer {WORKERS_ENV}={env!r}; "
                "using the CPU count",
                RuntimeWarning,
                stacklevel=2,
            )
    return os.cpu_count() or 1


def point_seed(base_seed: int, *parts: Any) -> int:
    """Deterministic 31-bit seed derived from a base seed and key parts.

    Stable across processes and sessions (the builtin ``hash`` is salted
    per interpreter, so it must never be used for this).
    """
    token = "|".join([str(int(base_seed))] + [repr(part) for part in parts])
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# -- failure policy & accounting ----------------------------------------------


@dataclass(frozen=True)
class FailurePolicy:
    """How a parallel ``map`` responds to worker death, hangs and errors.

    Args:
        task_timeout: seconds a dispatched task may run before its pool
            is killed and the task is treated as hung (``None`` = wait
            forever, the historical behaviour).
        max_retries: how many times a failed/hung task is re-dispatched
            before the failure is final.
        backoff_base: first retry delay in seconds; doubles per attempt.
        backoff_max: upper bound on any single retry delay.
        max_pool_rebuilds: pool crashes tolerated per ``map`` before the
            runner stops re-dispatching blindly and attributes the
            poison task via isolated probes.
        on_poison: what to do with an attributed poison task —
            ``"quarantine"`` (isolated probe, then record + ``None``
            result), ``"raise"`` (:class:`PoisonTaskError`), or
            ``"skip"`` (record + ``None`` result, no probe).
        probe_timeout: seconds the isolated single-worker probe may run.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    max_pool_rebuilds: int = 3
    on_poison: str = "quarantine"
    probe_timeout: float = 60.0

    def __post_init__(self):
        if self.on_poison not in ("quarantine", "raise", "skip"):
            raise ValueError(
                f"on_poison must be 'quarantine', 'raise' or 'skip', "
                f"got {self.on_poison!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")


@dataclass
class FaultStats:
    """Tally of failure events absorbed by a runner (across ``map`` calls).

    ``quarantined`` holds a human-readable entry per task that was given
    up on (its label plus why); everything else is a counter.
    """

    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    quarantined: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(
            self.retries
            or self.timeouts
            or self.pool_rebuilds
            or self.quarantined
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (used by the server's metrics payload)."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": list(self.quarantined),
        }

    def describe(self) -> str:
        """One-line summary for CLI reports (empty string when clean)."""
        if not self:
            return ""
        parts = []
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.timeouts:
            parts.append(f"{self.timeouts} timed out")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuilds")
        if self.quarantined:
            parts.append(
                f"{len(self.quarantined)} quarantined: "
                + "; ".join(self.quarantined)
            )
        return "faults: " + ", ".join(parts)


class PoisonTaskError(RuntimeError):
    """A task repeatedly killed/hung its worker under ``on_poison="raise"``."""

    def __init__(self, label: str, reason: str):
        super().__init__(f"poison task {label}: {reason}")
        self.label = label
        self.reason = reason


# -- worker-side task wrapper -------------------------------------------------

#: Per-worker-process fault injector (None = no plan), plus a resolved
#: flag so workers without an initializer lazily consult REPRO_FAULT_PLAN.
_WORKER_INJECTOR: Optional[FaultInjector] = None
_WORKER_INJECTOR_RESOLVED = False

#: Outcome of a task given up on under the failure policy (``on_poison``);
#: every other dispatched task's outcome is a ``(corrupt, value)`` pair.
_QUARANTINED = "quarantined"


def _init_worker(plan_spec: str) -> None:
    """Pool initializer: install the runner's fault plan in this worker."""
    global _WORKER_INJECTOR, _WORKER_INJECTOR_RESOLVED
    plan = FaultPlan.parse(plan_spec)
    _WORKER_INJECTOR = None if plan is None else FaultInjector(plan)
    _WORKER_INJECTOR_RESOLVED = True


def _worker_injector() -> Optional[FaultInjector]:
    """This process's injector, lazily resolved from REPRO_FAULT_PLAN."""
    global _WORKER_INJECTOR, _WORKER_INJECTOR_RESOLVED
    if not _WORKER_INJECTOR_RESOLVED:
        plan = FaultPlan.from_env()
        _WORKER_INJECTOR = None if plan is None else FaultInjector(plan)
        _WORKER_INJECTOR_RESOLVED = True
    return _WORKER_INJECTOR


def _run_task(fn: Callable[..., Any], task: Tuple, ordinal: int) -> Tuple[bool, Any]:
    """Worker-side task wrapper: fire the task's faults, then compute.

    ``ordinal`` is the task's dispatch ordinal (stable across retries and
    pool rebuilds), which is what a :class:`~repro.runtime.faults.FaultPlan`
    schedules against.  Returns ``(corrupt, value)``; a claimed
    ``corrupt`` fault is carried out by the parent, which owns the cache.
    """
    injector = _worker_injector()
    corrupt = injector is not None and injector.fire(ordinal)
    return corrupt, fn(*task)


class ExperimentRunner:
    """Fans independent experiment tasks out over a process pool.

    Args:
        parallel: enable process-pool fan-out.  ``None`` defers to the
            ``REPRO_PARALLEL`` environment variable (default: serial).
        max_workers: pool size; ``None`` uses ``REPRO_WORKERS`` or the CPU
            count.
        result_cache: an object with ``get(key)``/``put(key, value)``
            (e.g. :class:`repro.runtime.cache.ResultCache`) consulted per
            task when the caller supplies cache keys; ``None`` disables
            caching.
        failure_policy: retry/timeout/quarantine behaviour for the
            parallel path (default :class:`FailurePolicy`, which matches
            the historical semantics except that a broken pool now
            re-dispatches unfinished work instead of rerunning everything
            serially).
        fault_plan: deterministic fault-injection schedule; ``None``
            defers to the ``REPRO_FAULT_PLAN`` environment variable
            (normally unset — injection is for tests and chaos drills).
        start_method: multiprocessing start method for the pool
            (``"fork"``/``"spawn"``/``"forkserver"``); ``None`` uses the
            platform default.
    """

    def __init__(
        self,
        parallel: Optional[bool] = None,
        max_workers: Optional[int] = None,
        result_cache: Optional[Any] = None,
        failure_policy: Optional[FailurePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        start_method: Optional[str] = None,
    ):
        self._parallel = parallel_enabled_by_env() if parallel is None else bool(parallel)
        self._max_workers = (
            default_worker_count() if max_workers is None else int(max_workers)
        )
        if self._max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._result_cache = result_cache
        self._failure_policy = (
            FailurePolicy() if failure_policy is None else failure_policy
        )
        self._fault_plan = FaultPlan.from_env() if fault_plan is None else fault_plan
        self._start_method = start_method
        self._fault_stats = FaultStats()
        self._serial_injector_instance: Optional[FaultInjector] = None
        # Dispatch ordinals are assigned per dispatched task across the
        # runner's lifetime (cache hits resolved by the parent are never
        # dispatched) and stay stable across retries/pool rebuilds — they
        # are the coordinate system fault plans schedule against.
        self._dispatched = 0
        # The worker pool is created lazily on the first parallel map() and
        # reused by later calls, so multi-stage drivers pay the process
        # spawn / interpreter import cost once per runner, not per stage.
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- introspection ------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True when this runner attempts process-pool execution."""
        return self._parallel

    @property
    def max_workers(self) -> int:
        """Upper bound on concurrent worker processes."""
        return self._max_workers

    @property
    def result_cache(self) -> Optional[Any]:
        """The attached result cache, if any."""
        return self._result_cache

    @property
    def failure_policy(self) -> FailurePolicy:
        """The failure policy applied to parallel execution."""
        return self._failure_policy

    @property
    def fault_stats(self) -> FaultStats:
        """Failure events absorbed so far (accumulates across ``map``)."""
        return self._fault_stats

    @property
    def pool_alive(self) -> bool:
        """True while a worker pool is up (persisting across ``map`` calls)."""
        return self._pool is not None

    @property
    def pool_broken(self) -> bool:
        """True when the current pool has lost a worker and cannot execute."""
        return self._pool is not None and bool(getattr(self._pool, "_broken", False))

    # -- lifecycle ----------------------------------------------------------

    def ensure_pool(self) -> bool:
        """Start (or replace a broken) worker pool ahead of need.

        Returns True when a live pool is up afterwards; False for serial
        runners or when pool creation is impossible in this environment.
        """
        if not self._parallel:
            return False
        if self.pool_broken:
            self._kill_pool()
        if self._pool is None:
            try:
                self._pool = self._create_pool()
            except (OSError, PermissionError, ImportError):
                return False
        return True

    def restart_pool(self) -> bool:
        """Tear down any current pool and start a fresh one.

        Returns True when a live pool is up afterwards (False for serial
        runners).  This is the self-healing hook the server's job loop
        uses when it finds the pool dead between requests.
        """
        self._kill_pool()
        return self.ensure_pool()

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the runner stays usable —
        the next parallel ``map`` simply starts a fresh pool)."""
        self._discard_pool(wait=True)

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self._discard_pool(wait=False)
        except Exception:
            pass

    def _discard_pool(self, wait: bool) -> None:
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            if wait and getattr(pool, "_broken", False):
                # Waiting on a broken pool can deadlock on dead workers.
                wait = False
            pool.shutdown(wait=wait, cancel_futures=True)

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting, terminating stuck workers.

        ``shutdown(wait=False)`` alone leaves a *hung* worker running (and
        holding its pipe) forever; terminating the processes afterwards is
        what actually reclaims the workers after a timeout or crash.
        """
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-reaped process
                pass

    # -- execution ----------------------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Tuple],
        keys: Optional[Sequence[Hashable]] = None,
        labels: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> List[Any]:
        """Run ``fn(*task)`` for every task, returning results in order.

        Args:
            fn: a module-level callable (it must be picklable for the
                parallel path) whose result depends only on its arguments.
            tasks: argument tuples, one per task.
            keys: optional cache keys aligned with ``tasks``; tasks whose
                key hits the attached result cache are not dispatched, and
                a key repeated within ``tasks`` is looked up, dispatched
                and stored once, its value returned at every position.
            labels: optional status strings aligned with ``tasks``,
                forwarded to ``progress``.
            progress: optional callable invoked with each dispatched
                task's label, before the task runs.

        Returns:
            One result per task, in task order, mixing cached and computed
            values transparently.  A task quarantined/skipped under the
            failure policy yields ``None`` (and an entry in
            :attr:`fault_stats`).
        """
        tasks = list(tasks)
        if keys is not None and len(keys) != len(tasks):
            raise ValueError("keys must align one-to-one with tasks")
        if labels is not None and len(labels) != len(tasks):
            raise ValueError("labels must align one-to-one with tasks")

        cache = self._result_cache
        results: List[Any] = [None] * len(tasks)
        pending: List[int] = []
        repeats: List[Tuple[int, int]] = []  # (position, first position of its key)
        first_position: Dict[Hashable, int] = {}
        for index in range(len(tasks)):
            cached = None
            if keys is not None:
                first = first_position.setdefault(keys[index], index)
                if first != index:
                    repeats.append((index, first))
                    continue
                if cache is not None:
                    cached = cache.get(keys[index])
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)

        if pending:
            pending_labels = None if labels is None else [labels[i] for i in pending]
            base = self._dispatched
            self._dispatched += len(pending)
            outcomes = self._execute(
                [tasks[i] for i in pending],
                fn,
                pending_labels,
                progress,
                list(range(base, base + len(pending))),
            )
            cache_dir = getattr(cache, "cache_dir", None)
            for index, outcome in zip(pending, outcomes):
                if outcome is _QUARANTINED:
                    continue
                corrupt, value = outcome
                results[index] = value
                if cache is None or keys is None:
                    continue
                if corrupt and cache_dir is not None:
                    # The injected fault: a bad-CRC frame takes the
                    # record's place, and the key stays out of memory.
                    write_corrupt_frame(cache_dir, keys[index])
                else:
                    cache.put(keys[index], value)
        for index, first in repeats:
            results[index] = results[first]
        return results

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _announce(
        progress: Optional[Callable[[str], None]],
        labels: Optional[Sequence[str]],
        position: int,
    ) -> None:
        if progress is not None and labels is not None:
            progress(labels[position])

    def _task_label(
        self, labels: Optional[Sequence[str]], position: int, ordinal: int
    ) -> str:
        if labels is not None:
            return labels[position]
        return f"task {ordinal}"

    def _serial_injector(self) -> Optional[FaultInjector]:
        """The parent-process injector used by serial execution paths."""
        if self._fault_plan is None:
            return None
        if self._serial_injector_instance is None:
            self._serial_injector_instance = FaultInjector(self._fault_plan)
        return self._serial_injector_instance

    def _backoff_delay(self, attempt: int, ordinal: int) -> float:
        """Retry delay: exponential in ``attempt`` with deterministic jitter."""
        policy = self._failure_policy
        base = policy.backoff_base * (2 ** max(0, attempt - 1))
        token = hashlib.sha256(f"retry-jitter|{ordinal}|{attempt}".encode()).digest()
        jitter = 0.5 + int.from_bytes(token[:4], "big") / 2**32
        return min(policy.backoff_max, base * jitter)

    def _build_pool(self, max_workers: int) -> ProcessPoolExecutor:
        """Build a pool whose workers carry the runner's fault plan."""
        kwargs: Dict[str, Any] = {"max_workers": max_workers}
        if self._start_method is not None:
            kwargs["mp_context"] = multiprocessing.get_context(self._start_method)
        if self._fault_plan is None:
            return ProcessPoolExecutor(**kwargs)
        return ProcessPoolExecutor(
            initializer=_init_worker, initargs=(self._fault_plan.spec,), **kwargs
        )

    def _create_pool(self) -> ProcessPoolExecutor:
        """Build the runner's shared worker pool."""
        return self._build_pool(self._max_workers)

    def _execute(
        self,
        tasks: Sequence[Tuple],
        fn: Callable[..., Any],
        labels: Optional[Sequence[str]],
        progress: Optional[Callable[[str], None]],
        ordinals: Sequence[int],
    ) -> List[Any]:
        """Run the pending tasks, returning one outcome per task.

        An outcome is ``(corrupt, value)``, or ``_QUARANTINED`` for a task
        given up on under the failure policy.
        """
        workers = min(self._max_workers, len(tasks))
        if not self._parallel or workers <= 1 or len(tasks) <= 1:
            return self._execute_serial(tasks, fn, labels, progress, ordinals)
        return self._execute_parallel(tasks, fn, labels, progress, ordinals)

    def _execute_parallel(
        self,
        tasks: Sequence[Tuple],
        fn: Callable[..., Any],
        labels: Optional[Sequence[str]],
        progress: Optional[Callable[[str], None]],
        ordinals: Sequence[int],
    ) -> List[Any]:
        """Dispatch rounds with crash/hang/retry recovery.

        Each round submits every still-unfinished task to the (possibly
        rebuilt) pool and collects in submission order.  Results already
        collected are never recomputed: a ``BrokenProcessPool`` or a hang
        only costs the in-flight work.  Only pool-*creation* failures (no
        fork/semaphores in restricted sandboxes) complete serially, and
        then only for the unfinished remainder.
        """
        policy = self._failure_policy
        total = len(tasks)
        outcomes: List[Any] = [None] * total
        attempts = [0] * total
        rebuilds = 0
        retry_delay = 0.0
        while True:
            unfinished = [p for p in range(total) if outcomes[p] is None]
            if not unfinished:
                return outcomes
            if retry_delay > 0.0:
                time.sleep(retry_delay)
                retry_delay = 0.0
            if self.pool_broken:
                self._kill_pool()
            try:
                if self._pool is None:
                    self._pool = self._create_pool()
                pool = self._pool
            except (OSError, PermissionError, ImportError) as error:
                return self._serial_completion(
                    tasks, fn, labels, progress, ordinals, outcomes, error
                )
            futures: Dict[int, Any] = {}
            crashed = False
            try:
                for position in unfinished:
                    self._announce(progress, labels, position)
                    futures[position] = pool.submit(
                        _run_task, fn, tasks[position], ordinals[position]
                    )
            except BrokenProcessPool:
                crashed = True
            except (OSError, PermissionError, ImportError) as error:
                self._kill_pool()
                self._harvest(futures, outcomes)
                return self._serial_completion(
                    tasks, fn, labels, progress, ordinals, outcomes, error
                )
            hung: Optional[int] = None
            failure: Optional[BaseException] = None
            if not crashed:
                for position in unfinished:
                    future = futures.get(position)
                    if future is None:  # pragma: no cover - defensive
                        continue
                    error: Optional[BaseException] = None
                    try:
                        outcomes[position] = future.result(timeout=policy.task_timeout)
                        continue
                    except BrokenProcessPool:
                        crashed = True
                        break
                    except FuturesTimeout:
                        # Python 3.11 aliases concurrent.futures.TimeoutError
                        # to the builtin: only an *unfinished* future means
                        # the wait timed out (a hang); a finished one means
                        # the task itself raised a TimeoutError.
                        if not future.done():
                            hung = position
                            break
                        error = future.exception()
                    except (KeyboardInterrupt, SystemExit):
                        for live in futures.values():
                            live.cancel()
                        raise
                    except BaseException as task_error:
                        error = task_error
                    if error is None:
                        # Completed between the timeout and the done()
                        # check; _harvest collects it below.
                        continue
                    # The task itself raised: retry if budget remains,
                    # otherwise this is the map's failure.
                    if attempts[position] < policy.max_retries:
                        attempts[position] += 1
                        self._fault_stats.retries += 1
                        retry_delay = max(
                            retry_delay,
                            self._backoff_delay(attempts[position], ordinals[position]),
                        )
                    else:
                        failure = error
                        break
            self._harvest(futures, outcomes)
            if failure is not None:
                for live in futures.values():
                    live.cancel()
                raise failure
            if hung is not None:
                self._fault_stats.timeouts += 1
                self._kill_pool()
                if attempts[hung] < policy.max_retries:
                    attempts[hung] += 1
                    self._fault_stats.retries += 1
                    retry_delay = max(
                        retry_delay,
                        self._backoff_delay(attempts[hung], ordinals[hung]),
                    )
                else:
                    self._settle_poison(
                        hung,
                        tasks,
                        fn,
                        labels,
                        ordinals,
                        outcomes,
                        f"hung past the {policy.task_timeout}s task timeout",
                    )
                continue
            if crashed:
                self._fault_stats.pool_rebuilds += 1
                rebuilds += 1
                self._kill_pool()
                if rebuilds > policy.max_pool_rebuilds:
                    # Blind re-dispatch has not converged: attribute the
                    # poison task(s) by probing each survivor in isolation.
                    self._attribute_poison(tasks, fn, labels, ordinals, outcomes)

    def _harvest(self, futures: Dict[int, Any], outcomes: List[Any]) -> None:
        """Fold successfully finished futures into ``outcomes``.

        After a crash or hang-kill, work that *did* complete in other
        workers is kept — that is what makes recovery cost only the
        in-flight tasks instead of the whole map.
        """
        for position, future in futures.items():
            if outcomes[position] is not None:
                continue
            if future.done() and not future.cancelled() and future.exception() is None:
                outcomes[position] = future.result()

    def _settle_poison(
        self,
        position: int,
        tasks: Sequence[Tuple],
        fn: Callable[..., Any],
        labels: Optional[Sequence[str]],
        ordinals: Sequence[int],
        outcomes: List[Any],
        reason: str,
    ) -> None:
        """Apply ``on_poison`` to one attributed poison task."""
        policy = self._failure_policy
        label = self._task_label(labels, position, ordinals[position])
        if policy.on_poison == "raise":
            raise PoisonTaskError(label, reason)
        if policy.on_poison == "quarantine":
            status, outcome = self._probe_isolated(
                fn, tasks[position], ordinals[position]
            )
            if status == "ok":
                outcomes[position] = outcome
                return
            reason = f"{reason}; isolated probe {status}"
        outcomes[position] = _QUARANTINED
        self._fault_stats.quarantined.append(f"{label} ({reason})")

    def _attribute_poison(
        self,
        tasks: Sequence[Tuple],
        fn: Callable[..., Any],
        labels: Optional[Sequence[str]],
        ordinals: Sequence[int],
        outcomes: List[Any],
    ) -> None:
        """Probe every unfinished task in isolation after repeated crashes.

        Tasks that survive their probe keep their result; tasks that
        crash or hang it are the attributed poison and get the
        ``on_poison`` treatment.
        """
        policy = self._failure_policy
        for position in range(len(tasks)):
            if outcomes[position] is not None:
                continue
            label = self._task_label(labels, position, ordinals[position])
            if policy.on_poison == "skip":
                outcomes[position] = _QUARANTINED
                self._fault_stats.quarantined.append(
                    f"{label} (skipped after repeated pool crashes)"
                )
                continue
            status, outcome = self._probe_isolated(
                fn, tasks[position], ordinals[position]
            )
            if status == "ok":
                outcomes[position] = outcome
                continue
            if policy.on_poison == "raise":
                raise PoisonTaskError(
                    label, f"{status} in an isolated single-worker probe"
                )
            outcomes[position] = _QUARANTINED
            self._fault_stats.quarantined.append(
                f"{label} ({status} in an isolated single-worker probe)"
            )

    def _probe_isolated(
        self,
        fn: Callable[..., Any],
        task: Tuple,
        ordinal: int,
    ) -> Tuple[str, Optional[Tuple[bool, Any]]]:
        """Run one suspect task in a fresh single-worker pool.

        Returns ``("ok", outcome)``, ``("crashed", None)`` or
        ``("hung", None)``; an exception raised by the task itself
        propagates unchanged.  The probe pool is torn down afterwards so
        a hung probe cannot leak a worker.
        """
        policy = self._failure_policy
        try:
            probe = self._build_pool(max_workers=1)
        except (OSError, PermissionError, ImportError):
            # No subprocess available: probe in-process (a crash fault
            # here would take the parent down, but environments without
            # subprocesses cannot crash workers either).
            try:
                return ("ok", _run_task(fn, task, ordinal))
            except BrokenProcessPool:  # pragma: no cover - defensive
                return ("crashed", None)
        try:
            future = probe.submit(_run_task, fn, task, ordinal)
            try:
                return ("ok", future.result(timeout=policy.probe_timeout))
            except BrokenProcessPool:
                return ("crashed", None)
            except FuturesTimeout:
                if future.done():
                    error = future.exception()
                    if error is not None:
                        raise error
                    return ("ok", future.result())  # pragma: no cover
                return ("hung", None)
        finally:
            processes = list((getattr(probe, "_processes", None) or {}).values())
            probe.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already reaped
                    pass

    def _serial_completion(
        self,
        tasks: Sequence[Tuple],
        fn: Callable[..., Any],
        labels: Optional[Sequence[str]],
        progress: Optional[Callable[[str], None]],
        ordinals: Sequence[int],
        outcomes: List[Any],
        error: BaseException,
    ) -> List[Any]:
        """Finish the unfinished tasks serially (pool unavailable)."""
        warnings.warn(
            f"process pool unavailable ({error}); completing serially",
            RuntimeWarning,
            stacklevel=4,
        )
        unfinished = [p for p in range(len(tasks)) if outcomes[p] is None]
        serial = self._execute_serial(
            [tasks[p] for p in unfinished],
            fn,
            None if labels is None else [labels[p] for p in unfinished],
            progress,
            [ordinals[p] for p in unfinished],
        )
        for position, outcome in zip(unfinished, serial):
            outcomes[position] = outcome
        return outcomes

    def _execute_serial(
        self,
        tasks: Sequence[Tuple],
        fn: Callable[..., Any],
        labels: Optional[Sequence[str]],
        progress: Optional[Callable[[str], None]],
        ordinals: Sequence[int],
    ) -> List[Tuple[bool, Any]]:
        """The serial twin.  Fault injection fires in-process here (a
        ``crash`` fault exits *this* process — exactly what a persistent
        result cache must survive); the failure policy's retry/quarantine
        machinery applies only to the parallel path."""
        injector = self._serial_injector()
        results: List[Tuple[bool, Any]] = []
        for position, task in enumerate(tasks):
            self._announce(progress, labels, position)
            corrupt = injector is not None and injector.fire(ordinals[position])
            results.append((corrupt, fn(*task)))
        return results


def serial_runner(result_cache: Optional[Any] = None) -> ExperimentRunner:
    """An explicitly serial runner (optionally caching), for fallbacks."""
    return ExperimentRunner(parallel=False, max_workers=1, result_cache=result_cache)
