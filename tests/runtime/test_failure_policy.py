"""Chaos tests: the runner survives crashing, raising and hanging workers.

Every test drives a real process pool through
:class:`~repro.runtime.runner.ExperimentRunner` with a deterministic
:class:`~repro.runtime.faults.FaultPlan`, under both ``fork`` and
``spawn`` start methods (the two fail differently: ``fork`` workers
inherit state, ``spawn`` workers re-import and re-run initializers).
The assertions pin the recovery contract of the fault-tolerant
execution layer:

* a worker SIGKILL/``os._exit`` mid-map rebuilds the pool and
  re-dispatches only the unfinished tasks (finished results survive);
* a transiently raising task is retried with backoff and succeeds;
* a task that kills every pool it touches is quarantined via an
  isolated probe — everything else completes, :class:`~repro.runtime.
  runner.FaultStats` names it, and ``map`` raises
  :class:`~repro.runtime.runner.PoisonTaskError` with ``None`` in its
  slot;
* a hanging task trips the per-task timeout and is recovered;
* tearing a pool down never signals the parent (a fork-started worker
  drops the parent's signal wakeup fd);
* workers end within seconds of a parent that is killed without closing
  its runner.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import (
    ExperimentRunner,
    FailurePolicy,
    FaultPlan,
    PoisonTaskError,
)

pytestmark = pytest.mark.chaos

START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_child(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter, so a crash cannot take pytest down."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("REPRO_FAULT_PLAN", None)
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _double(value: int) -> int:
    return value * 2


def _runner(start_method, plan, **policy):
    return ExperimentRunner(
        parallel=True,
        max_workers=2,
        failure_policy=FailurePolicy(**policy),
        fault_plan=FaultPlan.parse(plan),
        start_method=start_method,
    )


@pytest.mark.parametrize("start_method", START_METHODS)
class TestCrashRecovery:
    def test_crash_mid_map_rebuilds_and_redispatches(self, tmp_path, start_method):
        with _runner(start_method, f"crash@2;state={tmp_path}") as runner:
            results = runner.map(_double, [(i,) for i in range(8)])
        assert results == [i * 2 for i in range(8)]
        assert runner.fault_stats.pool_rebuilds >= 1
        assert not runner.fault_stats.quarantined

    def test_live_pool_survives_for_the_next_map(self, tmp_path, start_method):
        with _runner(start_method, f"crash@1;state={tmp_path}") as runner:
            first = runner.map(_double, [(i,) for i in range(4)])
            assert runner.ensure_pool()
            second = runner.map(_double, [(i,) for i in range(4, 8)])
        assert first == [0, 2, 4, 6]
        assert second == [8, 10, 12, 14]

    def test_transient_raise_is_retried(self, tmp_path, start_method):
        with _runner(
            start_method, f"raise@1;state={tmp_path}", max_retries=2
        ) as runner:
            results = runner.map(_double, [(i,) for i in range(4)])
        assert results == [0, 2, 4, 6]
        assert runner.fault_stats.retries == 1

    def test_poison_task_is_quarantined_and_named(self, start_method):
        with _runner(
            start_method, "crash@1x*", max_pool_rebuilds=1
        ) as runner:
            with pytest.raises(PoisonTaskError) as excinfo:
                runner.map(
                    _double,
                    [(i,) for i in range(4)],
                    labels=[f"pt{i}" for i in range(4)],
                )
        assert excinfo.value.results == [0, None, 4, 6]
        assert excinfo.value.quarantined == runner.fault_stats.quarantined
        assert len(runner.fault_stats.quarantined) == 1
        assert runner.fault_stats.quarantined[0].startswith("pt1")
        assert "pt1" in runner.fault_stats.describe()
        assert str(excinfo.value).startswith("quarantined pt1 (")

    def test_hang_trips_the_task_timeout(self, tmp_path, start_method):
        with _runner(
            start_method,
            f"hang@1=30;state={tmp_path}",
            task_timeout=1.0,
            max_retries=1,
        ) as runner:
            results = runner.map(_double, [(i,) for i in range(4)])
        assert results == [0, 2, 4, 6]
        assert runner.fault_stats.timeouts >= 1


#: A one-task map on a parallel runner whose first dispatched task always
#: crashes: the task runs in the pool and is quarantined, not in this process.
_ONE_TASK_SCRIPT = """
from repro.runtime import ExperimentRunner, FailurePolicy, FaultPlan, PoisonTaskError

def double(value):
    return value * 2

runner = ExperimentRunner(
    parallel=True,
    max_workers=2,
    failure_policy=FailurePolicy(max_pool_rebuilds=1),
    fault_plan=FaultPlan.parse("crash@0x*"),
)
try:
    runner.map(double, [(3,)], labels=["only"])
except PoisonTaskError as error:
    print(error.results, error.quarantined)
finally:
    runner.close()
print(runner.map(double, [(4,)]))
runner.close()
"""

#: An asyncio loop with a SIGTERM handler, as under ``repro serve``, runs a
#: quarantining map off the loop; it prints how many SIGTERMs reached it.
_SIGNAL_SCRIPT = """
import asyncio, signal
from repro.runtime import ExperimentRunner, FailurePolicy, FaultPlan, PoisonTaskError

def double(value):
    return value * 2

def quarantining_map():
    runner = ExperimentRunner(
        parallel=True,
        max_workers=2,
        failure_policy=FailurePolicy(max_pool_rebuilds=1),
        fault_plan=FaultPlan.parse("crash@1x*"),
        start_method="fork",
    )
    try:
        return runner.map(double, [(i,) for i in range(4)])
    except PoisonTaskError as error:
        return error.results
    finally:
        runner.close()

async def main():
    loop = asyncio.get_running_loop()
    received = []
    loop.add_signal_handler(signal.SIGTERM, lambda: received.append(1))
    results = await loop.run_in_executor(None, quarantining_map)
    await asyncio.sleep(0.5)
    print(results, len(received))

asyncio.run(main())
"""


class TestOneFailurePath:
    def test_one_task_map_runs_in_the_pool(self):
        process = _run_child(_ONE_TASK_SCRIPT)
        assert process.returncode == 0, process.stderr
        first, second = process.stdout.splitlines()
        assert first.startswith("[None] ['only (")
        assert second == "[8]"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="only fork-started workers inherit the parent's signal set-up",
    )
    def test_pool_teardown_sends_the_parent_no_sigterm(self):
        process = _run_child(_SIGNAL_SCRIPT)
        assert process.returncode == 0, process.stderr
        assert process.stdout.strip() == "[0, None, 4, 6] 0"


#: Maps once, prints the pool's worker pids and SIGKILLs itself, leaving
#: the runner open.  The alarm ends it should the map ever hang.
_ORPHAN_SCRIPT = """
import multiprocessing, os, signal, sys
signal.alarm(60)
from repro.runtime import ExperimentRunner
runner = ExperimentRunner(parallel=True, max_workers=2, start_method=sys.argv[1])
assert runner.map(abs, [(-1,), (-2,), (-3,), (-4,)]) == [1, 2, 3, 4]
print(" ".join(str(child.pid) for child in multiprocessing.active_children()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` runs; an exited process that nobody reaped is gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True
    return state != "Z"


@pytest.mark.parametrize(
    "start_method",
    [
        method
        for method in ("fork", "spawn", "forkserver")
        if method in multiprocessing.get_all_start_methods()
    ],
)
class TestOrphanedWorkers:
    def test_workers_exit_when_the_parent_is_killed(self, start_method, tmp_path):
        env = dict(os.environ, PYTHONPATH=_SRC)
        env.pop("REPRO_FAULT_PLAN", None)
        pids = []
        with open(tmp_path / "stderr", "w") as stderr:
            process = subprocess.Popen(
                [sys.executable, "-c", _ORPHAN_SCRIPT, start_method],
                env=env,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
        try:
            # The workers share the child's stdout, so read one line, not to EOF.
            pids = [int(pid) for pid in process.stdout.readline().split()]
            returncode = process.wait(timeout=60)
            assert returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
            assert pids
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [pid for pid in pids if _running(pid)] == []
        finally:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
