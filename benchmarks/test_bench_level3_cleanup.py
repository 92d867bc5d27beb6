"""Benchmark: level 3's two post-routing walks against the loops they replaced.

* :class:`~repro.transpiler.passes.commutation.CommutativeCancellation`
  decides every verdict on per-gate facts: each gate's identity is noted
  once per gate object, and each identity's exact matrix and diagonal flag
  once per process.  Its oracle ``ReferenceCommutativeCancellation``
  (``tests/oracles.py``) rebuilds qubit sets and identities per verdict
  and decides a miss with ``np.allclose`` on fresh matrices and
  ``tensordot`` joint unitaries.  Both run *cold*: every memo either side
  reads is emptied before each round, as in a fresh process.
* :class:`~repro.transpiler.passes.schedule_analysis.ScheduleAnalysis`
  schedules into flat start/stop lists with one ``duration_of`` per gate
  object; its oracle is ``reference_schedule_asap`` with the
  ``ReferenceSchedule`` aggregates, one ``TimedInstruction`` per
  instruction.

The inputs are the circuits the two passes receive in a level-3 compile of
every ``l3-noisy`` point at seed 1 (92 each).  Each benchmark asserts
identical output and emits the speed-up; the speed-up it requires is at
most half the median a 2-vCPU host measured (commutation 2.1x,
scheduling 2.3x).  Each side is timed over several interleaved rounds and the fastest round
counts, so a burst of host noise does not decide the ratio.
"""

from __future__ import annotations

import time

import pytest
from l3_noisy_grid import pass_inputs
from oracles import (
    REFERENCE_COMMUTATION_CACHE,
    ReferenceCommutativeCancellation,
    reference_schedule_asap,
)
from repro.transpiler.passes import commutation
from repro.transpiler.passes.schedule_analysis import ScheduleAnalysis
from repro.transpiler.passmanager import PropertySet

SEED = 1
ROUNDS = 5
MIN_COMMUTATION_SPEEDUP = 1.0
MIN_SCHEDULE_SPEEDUP = 1.1


def _empty_memos() -> None:
    commutation.COMMUTATION_CACHE.clear()
    commutation.GATE_MATRIX_CACHE.clear()
    commutation._positions.cache_clear()
    commutation._expansion.cache_clear()
    REFERENCE_COMMUTATION_CACHE.clear()


def _cancel_all(pass_class, circuits):
    _empty_memos()
    start = time.perf_counter()
    outputs = []
    for circuit in circuits:
        properties = PropertySet()
        result = pass_class().run(circuit, properties)
        outputs.append((list(result), properties["commutative_cancelled"]))
    return outputs, time.perf_counter() - start


def _schedule_all(inputs):
    start = time.perf_counter()
    values = []
    for durations, circuit in inputs:
        properties = PropertySet()
        ScheduleAnalysis(durations).run(circuit, properties)
        values.append(
            (
                properties["scheduled_duration_ns"],
                properties["scheduled_idle_ns"],
                properties["scheduled_parallelism"],
            )
        )
    return values, time.perf_counter() - start


def _reference_schedule_all(inputs):
    start = time.perf_counter()
    values = []
    for durations, circuit in inputs:
        schedule = reference_schedule_asap(circuit, durations)
        values.append(
            (schedule.total_duration(), schedule.total_idle_time(), schedule.average_parallelism())
        )
    return values, time.perf_counter() - start


def _rounds(production, reference, *args):
    """Interleaved rounds of both sides: last outputs and fastest times."""
    seconds, reference_seconds = [], []
    for _ in range(ROUNDS):
        output, elapsed = production(*args)
        seconds.append(elapsed)
        reference_output, elapsed = reference(*args)
        reference_seconds.append(elapsed)
    return output, reference_output, min(seconds), min(reference_seconds)


@pytest.fixture(scope="module")
def commutation_inputs():
    return [circuit for _, _, circuit in pass_inputs(SEED, "commutative_cancellation")]


@pytest.fixture(scope="module")
def schedule_inputs():
    return [
        (target.gate_durations(), circuit)
        for _, target, circuit in pass_inputs(SEED, "schedule_analysis")
    ]


def test_bench_commutation_cold(benchmark, emit, commutation_inputs):
    circuits = commutation_inputs
    outputs, reference, seconds, reference_seconds = _rounds(
        lambda: _cancel_all(commutation.CommutativeCancellation, circuits),
        lambda: _cancel_all(ReferenceCommutativeCancellation, circuits),
    )
    benchmark.pedantic(
        _cancel_all, args=(commutation.CommutativeCancellation, circuits), rounds=1, iterations=1
    )

    assert [cancelled for _, cancelled in outputs] == [cancelled for _, cancelled in reference]
    for (instructions, _), (reference_instructions, _) in zip(outputs, reference):
        assert len(instructions) == len(reference_instructions)
        assert all(a is b for a, b in zip(instructions, reference_instructions))
    speedup = reference_seconds / max(seconds, 1e-9)
    emit(
        benchmark,
        f"Cold commutation pass vs the per-pair predicates (l3-noisy grid, seed {SEED})",
        {
            "circuits": len(circuits),
            "instructions": sum(len(circuit) for circuit in circuits),
            "cancelled": sum(cancelled for _, cancelled in outputs),
            "reference_seconds": round(reference_seconds, 4),
            "pass_seconds": round(seconds, 4),
            "speedup_vs_reference": round(speedup, 2),
        },
    )
    assert speedup >= MIN_COMMUTATION_SPEEDUP


def test_bench_schedule_analysis(benchmark, emit, schedule_inputs):
    inputs = schedule_inputs
    values, reference, seconds, reference_seconds = _rounds(
        _schedule_all, _reference_schedule_all, inputs
    )
    benchmark.pedantic(_schedule_all, args=(inputs,), rounds=1, iterations=1)

    assert values == reference
    speedup = reference_seconds / max(seconds, 1e-9)
    emit(
        benchmark,
        f"ScheduleAnalysis vs TimedInstruction loops (l3-noisy final circuits, seed {SEED})",
        {
            "circuits": len(inputs),
            "instructions": sum(len(circuit) for _, circuit in inputs),
            "reference_seconds": round(reference_seconds, 4),
            "analysis_seconds": round(seconds, 4),
            "speedup_vs_reference": round(speedup, 2),
        },
    )
    assert speedup >= MIN_SCHEDULE_SPEEDUP
