"""Parallel experiment execution with ordered collection and a serial twin.

:class:`ExperimentRunner` is the single execution seam every experiment
driver funnels through.  It fans independent sweep points out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, collects results *in
submission order* (so parallel and serial runs produce identical outputs),
consults an optional result cache before dispatching, and runs an inline
serial loop only when parallelism is disabled or unavailable (no
``fork``/semaphores in restricted sandboxes): a parallel runner sends every
pending task through its pool, one task as well as many.  Library calls
take their runner from the caller and never build a pool or read a cache
directory themselves.  Compilation points reach it through
:func:`repro.core.pipeline.map_points`, which makes their tasks, cache
keys and labels; a progress callback is passed per ``map`` call.

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
deterministic jitter.  A task that still hangs, or keeps crashing pools
past ``max_pool_rebuilds``, is probed in an isolated single-worker pool;
if the probe crashes or hangs too, the task is quarantined and named in
:class:`FaultStats`.  ``map`` then finishes and stores every other task
and raises :class:`PoisonTaskError`, whose ``results`` hold ``None`` in
each quarantined slot: a sweep catches it and lists the failed points,
and every other caller ends with one clean error.  Everything that
happened is tallied in :attr:`ExperimentRunner.fault_stats`.  A runner
whose process dies without shutting its pool down (SIGKILL, OOM kill)
leaves no workers behind: each exits within about a second.
Deterministic fault *injection* for exercising these paths lives in
:mod:`repro.runtime.faults`.

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
runner.  A task quarantined under the failure policy touches no cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import signal
import threading
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


#: Retry backoff: the first delay in seconds, doubling per attempt (with
#: deterministic jitter), and the cap on any one delay.
_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 2.0

#: Seconds the isolated single-worker probe of a suspect task may run.
_PROBE_TIMEOUT = 60.0


@dataclass(frozen=True)
class FailurePolicy:
    """How a parallel ``map`` responds to worker death, hangs and errors.

    Args:
        task_timeout: seconds a dispatched task may run before its pool
            is killed and the task is treated as hung (``None`` = wait
            forever, the historical behaviour).
        max_retries: how many times a failed/hung task is re-dispatched
            before the failure is final.
        max_pool_rebuilds: pool crashes tolerated per ``map`` before the
            runner stops re-dispatching blindly and probes each
            unfinished task in isolation to find the poison.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 0
    max_pool_rebuilds: int = 3

    def __post_init__(self):
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
    """A ``map`` quarantined tasks that kept crashing or hanging their workers.

    Raised once every other task has finished and been stored.
    ``quarantined`` holds the :attr:`FaultStats.quarantined` entries this
    map added (``"label (reason)"``); ``results`` is the map's return
    value, with ``None`` in each quarantined slot.
    """

    def __init__(self, quarantined: Sequence[str], results: List[Any]):
        super().__init__("quarantined " + "; ".join(quarantined))
        self.quarantined = list(quarantined)
        self.results = results


# -- worker side --------------------------------------------------------------

#: This worker process's fault injector (None = no plan).
_WORKER_INJECTOR: Optional[FaultInjector] = None

#: Outcome of a task quarantined under the failure policy; every other
#: dispatched task's outcome is a ``(corrupt, value)`` pair.
_QUARANTINED = "quarantined"

#: The signals a worker must not handle the way its parent does.
_WORKER_SIGNALS = {signal.SIGTERM, signal.SIGINT}

#: Per-thread signal masks exist on POSIX only.
_HAS_SIGMASK = hasattr(signal, "pthread_sigmask")


@contextlib.contextmanager
def _holding_worker_signals():
    """Block :data:`_WORKER_SIGNALS` in this thread while it may start workers.

    A pool starts its workers inside ``submit``, and each inherits the
    mask, so a SIGTERM sent to a worker before :func:`_init_worker` has
    run waits for it instead of reaching the parent's handlers.
    """
    if not _HAS_SIGMASK:  # pragma: no cover - not POSIX
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


#: How often (s) a pool worker checks that its runner's process lives.
_RUNNER_POLL_SECONDS = 1.0


def _runner_alive(runner: int, forkserver: bool) -> bool:
    """Whether the runner's process, pid ``runner``, still runs.

    A ``fork`` or ``spawn`` worker is the runner's child: once the runner
    dies the worker is re-parented, so ``os.getppid()`` stops being
    ``runner`` whether or not anyone has reaped the runner yet, and a
    worker that is still starting when the runner dies sees that at once.
    A ``forkserver`` worker is the server's child, and the server lives on
    while any worker holds the fds it hands out, so that worker asks
    whether a process with the runner's pid exists (until the runner is
    reaped, it does).
    """
    if not forkserver:
        return os.getppid() == runner
    try:
        os.kill(runner, 0)
    except OSError:  # no such process, or the pid now belongs to another user
        return False
    return True


def _exit_with_runner(runner: int, forkserver: bool) -> None:
    """Worker-side watch: end this process once the runner's process is gone.

    An idle worker otherwise waits on the pool's call queue for good when
    its runner dies without shutting the pool down (SIGKILL, OOM kill).
    """
    while _runner_alive(runner, forkserver):
        time.sleep(_RUNNER_POLL_SECONDS)
    os._exit(1)


def _init_worker(plan_spec: str, runner: int, forkserver: bool) -> None:
    """Pool initializer: drop the parent's signal set-up, install the fault plan.

    A fork-started worker inherits its parent's signal handlers and
    wakeup fd; under ``repro serve`` those are the asyncio loop's, so the
    SIGTERM that tears a pool down would reach the server as its own.
    The worker starts with those signals blocked (see
    :func:`_holding_worker_signals`) and unblocks them once its handlers
    are the defaults.  A daemon thread, started while they are still
    blocked so that only the main thread takes them, ends the worker once
    the runner's process is gone (:func:`_exit_with_runner`).
    ``plan_spec`` is the runner's plan, or ``""``; ``runner`` is the pid
    of the runner's process, and ``forkserver`` says whether the pool
    starts its workers from a fork server.
    """
    global _WORKER_INJECTOR
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(
        target=_exit_with_runner, args=(runner, forkserver), name="runner-watch", daemon=True
    ).start()
    if _HAS_SIGMASK:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)
    plan = FaultPlan.parse(plan_spec)
    _WORKER_INJECTOR = None if plan is None else FaultInjector(plan)


def _run_task(fn: Callable[..., Any], task: Tuple, ordinal: int) -> Tuple[bool, Any]:
    """Worker-side task wrapper: fire the task's faults, then compute.

    ``ordinal`` is the task's dispatch ordinal (stable across retries and
    pool rebuilds), which is what a :class:`~repro.runtime.faults.FaultPlan`
    schedules against.  Returns ``(corrupt, value)``; a claimed
    ``corrupt`` fault is carried out by the parent, which owns the cache.
    """
    corrupt = _WORKER_INJECTOR is not None and _WORKER_INJECTOR.fire(ordinal)
    return corrupt, fn(*task)


def _terminate(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting, terminating its workers.

    ``shutdown(wait=False)`` alone leaves a *hung* worker running (and
    holding its pipe) forever; terminating the processes afterwards is
    what actually reclaims the workers after a timeout or crash.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-reaped process
            pass


def _backoff_delay(attempt: int, ordinal: int) -> float:
    """Retry delay: exponential in ``attempt`` with deterministic jitter."""
    base = _BACKOFF_BASE * (2 ** max(0, attempt - 1))
    token = hashlib.sha256(f"retry-jitter|{ordinal}|{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(token[:4], "big") / 2**32
    return min(_BACKOFF_MAX, base * jitter)


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
            parallel path (default :class:`FailurePolicy`).
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
                self._pool = self._build_pool(self._max_workers)
            except (OSError, PermissionError, ImportError):
                return False
        return True

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
        """Tear the shared pool down without waiting (see :func:`_terminate`)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            _terminate(pool)

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
            values transparently.

        Raises:
            PoisonTaskError: the failure policy quarantined a task (named
                in :attr:`fault_stats`).  Every other task has finished
                and been stored by then; the error's ``results`` is the
                return value, with ``None`` in each quarantined slot.
        """
        tasks = list(tasks)
        if keys is not None and len(keys) != len(tasks):
            raise ValueError("keys must align one-to-one with tasks")
        if labels is not None and len(labels) != len(tasks):
            raise ValueError("labels must align one-to-one with tasks")

        cache = self._result_cache
        quarantined_before = len(self._fault_stats.quarantined)
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
        quarantined = self._fault_stats.quarantined[quarantined_before:]
        if quarantined:
            raise PoisonTaskError(quarantined, results)
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

    def _serial_injector(self) -> Optional[FaultInjector]:
        """The parent-process injector used by serial execution paths."""
        if self._fault_plan is None:
            return None
        if self._serial_injector_instance is None:
            self._serial_injector_instance = FaultInjector(self._fault_plan)
        return self._serial_injector_instance

    def _build_pool(self, max_workers: int) -> ProcessPoolExecutor:
        """A pool whose workers run :func:`_init_worker` with the runner's plan.

        The workers are told this process's pid rather than reading
        ``os.getppid()`` when they start: a worker still starting when this
        process dies would read the pid it was re-parented to.
        """
        context = multiprocessing.get_context(self._start_method)
        spec = "" if self._fault_plan is None else self._fault_plan.spec
        forkserver = context.get_start_method() == "forkserver"
        return ProcessPoolExecutor(
            max_workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(spec, os.getpid(), forkserver),
        )

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
        if not self._parallel:
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

        def retry(position: int) -> bool:
            """Spend one retry on ``position``; False once its budget is gone."""
            nonlocal retry_delay
            if attempts[position] >= policy.max_retries:
                return False
            attempts[position] += 1
            self._fault_stats.retries += 1
            delay = _backoff_delay(attempts[position], ordinals[position])
            retry_delay = max(retry_delay, delay)
            return True

        while True:
            unfinished = [p for p in range(total) if outcomes[p] is None]
            if not unfinished:
                return outcomes
            if retry_delay > 0.0:
                time.sleep(retry_delay)
                retry_delay = 0.0
            futures: Dict[int, Any] = {}
            crashed = False
            try:
                if self.pool_broken:
                    self._kill_pool()
                if self._pool is None:
                    self._pool = self._build_pool(self._max_workers)
                with _holding_worker_signals():
                    for position in unfinished:
                        self._announce(progress, labels, position)
                        futures[position] = self._pool.submit(
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
                    future = futures[position]
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
                    # The task itself raised: retry if budget remains,
                    # otherwise this is the map's failure.
                    if error is not None and not retry(position):
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
                if not retry(hung):
                    self._quarantine(
                        [hung],
                        tasks,
                        fn,
                        labels,
                        ordinals,
                        outcomes,
                        f"hung past the {policy.task_timeout:g}s task timeout",
                    )
            elif crashed:
                self._fault_stats.pool_rebuilds += 1
                rebuilds += 1
                self._kill_pool()
                if rebuilds > policy.max_pool_rebuilds:
                    # Blind re-dispatch has not converged: probe each
                    # unfinished task in isolation to find the poison.
                    self._quarantine(
                        [p for p in range(total) if outcomes[p] is None],
                        tasks,
                        fn,
                        labels,
                        ordinals,
                        outcomes,
                        f"{rebuilds} pool crashes",
                    )

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

    def _quarantine(
        self,
        positions: Sequence[int],
        tasks: Sequence[Tuple],
        fn: Callable[..., Any],
        labels: Optional[Sequence[str]],
        ordinals: Sequence[int],
        outcomes: List[Any],
        reason: str,
    ) -> None:
        """Probe each suspect task in isolation; quarantine the ones that fail.

        A task that survives its probe keeps its result.  One that crashes
        or hangs it becomes ``_QUARANTINED`` and is named, with ``reason``
        and the probe's verdict, in :attr:`fault_stats`.
        """
        for position in positions:
            status, outcome = self._probe_isolated(
                fn, tasks[position], ordinals[position]
            )
            if status == "ok":
                outcomes[position] = outcome
                continue
            outcomes[position] = _QUARANTINED
            label = f"task {ordinals[position]}" if labels is None else labels[position]
            self._fault_stats.quarantined.append(
                f"{label} ({reason}, then {status} in an isolated probe)"
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
        try:
            probe = self._build_pool(max_workers=1)
        except (OSError, PermissionError, ImportError):
            # No subprocess available: probe in-process, through the
            # runner's own injector (a crash fault here takes the parent
            # down, but environments without subprocesses cannot crash
            # workers either).
            return ("ok", self._execute_serial([task], fn, None, None, [ordinal])[0])
        try:
            with _holding_worker_signals():
                future = probe.submit(_run_task, fn, task, ordinal)
            try:
                return ("ok", future.result(timeout=_PROBE_TIMEOUT))
            except BrokenProcessPool:
                return ("crashed", None)
            except FuturesTimeout:
                if not future.done():
                    return ("hung", None)
                # The task itself raised a TimeoutError: re-raise it.
                return ("ok", future.result())
        finally:
            _terminate(probe)

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
