"""Unit tests for the deterministic fault-injection harness.

:mod:`repro.runtime.faults` is the seam every chaos test stands on, so
its own semantics are pinned here: plan parsing round-trips, ``scatter``
is seed-stable, claims are exactly-once (both in-process and through a
cross-process ``state_dir``), :func:`write_corrupt_frame` produces
damage the cache verifier sees, and a ``corrupt`` fault acts the same on
a serial and a parallel runner.
"""

from __future__ import annotations

import warnings

import pytest

from repro.runtime import ExperimentRunner
from repro.runtime.disk_cache import PersistentResultCache, verify_cache
from repro.runtime.faults import (
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    write_corrupt_frame,
)


class TestFaultPlanParsing:
    def test_single_entry(self):
        plan = FaultPlan.parse("crash@3")
        assert plan is not None
        assert plan.specs == (FaultSpec(mode="crash", index=3),)

    def test_full_grammar_round_trips(self):
        text = "crash@1;raise@2x3;hang@4=0.5;corrupt@5x*"
        plan = FaultPlan.parse(text)
        assert plan.spec == text
        assert FaultPlan.parse(plan.spec) == plan

    def test_state_dir_round_trips(self, tmp_path):
        plan = FaultPlan.parse(f"crash@0;state={tmp_path}")
        assert plan.state_dir == tmp_path
        assert FaultPlan.parse(plan.spec) == plan

    def test_blank_and_none_parse_to_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("   ") is None

    @pytest.mark.parametrize(
        "bad", ["explode@1", "crash@", "crash@-1", "crash@1x0x2", "crash"]
    )
    def test_bad_entries_raise(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "raise@7")
        plan = FaultPlan.from_env()
        assert plan.faults_for(7)

    def test_scatter_is_deterministic_and_rate_bounded(self):
        first = FaultPlan.scatter(1000, rate=0.05, seed=42)
        again = FaultPlan.scatter(1000, rate=0.05, seed=42)
        other = FaultPlan.scatter(1000, rate=0.05, seed=43)
        assert first == again
        assert first != other
        assert 10 <= len(first.specs) <= 120  # ~50 expected; loose bounds

    def test_scatter_zero_rate_is_empty(self):
        assert not FaultPlan.scatter(100, rate=0.0, seed=1)


class TestFaultInjector:
    def test_raise_fires_exactly_count_times(self):
        injector = FaultInjector(FaultPlan.parse("raise@2x2"))
        injector.fire(0)
        injector.fire(1)
        with pytest.raises(InjectedFault):
            injector.fire(2)
        with pytest.raises(InjectedFault):
            injector.fire(2)
        assert injector.fire(2) is False  # count exhausted

    def test_unbounded_count_always_fires(self):
        injector = FaultInjector(FaultPlan.parse("raise@0x*"))
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector.fire(0)

    def test_corrupt_mode_returns_true(self):
        injector = FaultInjector(FaultPlan.parse("corrupt@1"))
        assert injector.fire(1) is True
        assert injector.fire(1) is False  # one-shot

    def test_state_dir_claims_are_shared_across_injectors(self, tmp_path):
        plan = FaultPlan.parse(f"raise@0;state={tmp_path}")
        first = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            first.fire(0)
        # A "fresh worker" (new injector, same state dir) must not refire.
        second = FaultInjector(plan)
        assert second.fire(0) is False

    def test_hang_uses_param_as_duration(self):
        import time

        injector = FaultInjector(FaultPlan.parse("hang@0=0.05"))
        start = time.perf_counter()
        injector.fire(0)
        assert time.perf_counter() - start >= 0.05


class TestWriteCorruptFrame:
    def test_verifier_sees_the_damage_and_repair_drops_it(self, tmp_path):
        cache = PersistentResultCache(tmp_path)
        for index in range(3):
            cache.put(("point", index), {"value": index})
        cache.close()
        assert verify_cache(tmp_path).clean

        path = write_corrupt_frame(tmp_path, ("point", 99))
        assert path.exists()
        report = verify_cache(tmp_path)
        assert not report.clean
        assert report.frames_corrupt == 1

        repaired = verify_cache(tmp_path, repair=True)
        assert repaired.dropped_frames == 1
        assert verify_cache(tmp_path).clean
        # The healthy records survived the repair.
        fresh = PersistentResultCache(tmp_path)
        assert fresh.get(("point", 1)) == {"value": 1}
        fresh.close()


def _square(value):
    return value * value + 1


class TestCorruptFaultThroughRunner:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "2-workers"])
    def test_one_record_becomes_a_corrupt_frame(self, tmp_path, workers):
        keys = [("square", value) for value in range(4)]
        runner = ExperimentRunner(
            parallel=workers > 1,
            max_workers=workers,
            result_cache=PersistentResultCache(tmp_path),
            fault_plan=FaultPlan.parse("corrupt@1"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # sandbox pool fallback
            with runner:
                results = runner.map(_square, [(v,) for v in range(4)], keys=keys)
        assert results == [1, 2, 5, 10]  # the fault never changes a value
        runner.result_cache.close()
        assert verify_cache(tmp_path).frames_corrupt == 1
        fresh = PersistentResultCache(tmp_path)
        assert fresh.get(keys[1]) is None
        assert [fresh.get(key) for key in (keys[0], keys[2], keys[3])] == [1, 5, 10]
        stats = fresh.stats()
        assert (stats.disk_hits, stats.disk_misses) == (3, 1)
        fresh.close()
