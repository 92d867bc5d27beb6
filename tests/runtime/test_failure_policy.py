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
  isolated probe — its slot is ``None``, everything else completes,
  and :class:`~repro.runtime.runner.FaultStats` names it;
* a hanging task trips the per-task timeout and is recovered.
"""

from __future__ import annotations

import multiprocessing

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
            results = runner.map(
                _double,
                [(i,) for i in range(4)],
                labels=[f"pt{i}" for i in range(4)],
            )
        assert results == [0, None, 4, 6]
        assert len(runner.fault_stats.quarantined) == 1
        assert runner.fault_stats.quarantined[0].startswith("pt1")
        assert "pt1" in runner.fault_stats.describe()

    def test_on_poison_raise_propagates(self, start_method):
        with _runner(
            start_method, "crash@0x*", max_pool_rebuilds=1, on_poison="raise"
        ) as runner:
            with pytest.raises(PoisonTaskError) as excinfo:
                runner.map(_double, [(i,) for i in range(3)], labels=["a", "b", "c"])
        assert excinfo.value.label == "a"

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
