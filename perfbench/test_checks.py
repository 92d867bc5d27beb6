"""The benchmark's own tests: planted bad outputs must be flagged.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from harness import Outcome  # noqa: E402


@pytest.fixture(scope="module")
def compiled():
    """A QFT-6 routed by SABRE onto the small Tree design point."""
    from repro.circuits.circuit import QuantumCircuit
    from repro.core.codesign import SMALL_DESIGN_POINTS
    from repro.transpiler.compile import transpile
    from repro.workloads import build_workload

    target = SMALL_DESIGN_POINTS[2].target("small")
    circuit = build_workload("QFT", 6)
    result = transpile(circuit, target, seed=3)
    assert result.metrics.total_swaps > 0
    return QuantumCircuit, target, circuit, result


def test_transpiler_output_passes(compiled):
    _, target, circuit, result = compiled
    edges = list(target.coupling_map.edges())
    assert checks.coupling_violations(result.routed_circuit, edges, target.num_qubits) == []
    assert checks.coupling_violations(result.circuit, edges, target.num_qubits) == []
    error = checks.routing_equivalence_error(
        circuit, result.routed_circuit, result.initial_layout, result.final_layout
    )
    assert error < checks.STATE_TOLERANCE


def test_planted_bad_routed_circuit_is_flagged(compiled):
    QuantumCircuit, target, circuit, result = compiled
    routed = result.routed_circuit
    edges = {tuple(sorted(edge)) for edge in target.coupling_map.edges()}
    # A CX from a data qubit to a qubit it is not coupled to.
    control = result.final_layout[0]
    far = next(
        q for q in range(target.num_qubits)
        if q != control and tuple(sorted((control, q))) not in edges
    )
    bad = QuantumCircuit(routed.num_qubits)
    bad.extend(routed.instructions)
    bad.cx(control, far)
    assert checks.coupling_violations(bad, edges, target.num_qubits)
    error = checks.routing_equivalence_error(
        circuit, bad, result.initial_layout, result.final_layout
    )
    assert error > checks.STATE_TOLERANCE


def test_dropped_swap_breaks_equivalence(compiled):
    QuantumCircuit, _, circuit, result = compiled
    routed = result.routed_circuit
    first_swap = next(i for i, inst in enumerate(routed) if inst.induced)
    bad = QuantumCircuit(routed.num_qubits)
    bad.extend(inst for i, inst in enumerate(routed) if i != first_swap)
    error = checks.routing_equivalence_error(
        circuit, bad, result.initial_layout, result.final_layout
    )
    assert error > checks.STATE_TOLERANCE


def test_planted_wrong_serve_record_is_flagged():
    plan = serve.make_plan(seed=5, count=40)
    expected = {
        serve.spec_key(spec): {"total_swaps": 3, "total_2q": 9, "workload": spec["workload"]}
        for _, spec in plan
    }
    rows = [
        {"status": 200, "body": {"results": [dict(expected[serve.spec_key(spec)])]}}
        for _, spec in plan
    ]
    assert serve.check_responses(plan, rows, expected) == []
    rows[7]["body"]["results"][0]["total_swaps"] = 4
    rows[11] = {"status": 503, "body": {"error": "request queue full"}}
    flagged = serve.check_responses(plan, rows, expected)
    assert [index for index, _ in flagged] == [7, 11]
    assert "total_swaps" in flagged[0][1]


def test_serve_plan_is_seeded_and_mixed():
    plan = serve.make_plan(seed=9, count=1000)
    assert plan == serve.make_plan(seed=9, count=1000)
    assert plan != serve.make_plan(seed=10, count=1000)
    kinds = [kind for kind, _ in plan]
    assert (kinds.count("hit"), kinds.count("disk"), kinds.count("new")) == (700, 200, 100)
    first_seen = set()
    for kind, spec in plan:
        key = serve.spec_key(spec)
        assert (kind == "hit") == (key in first_seen)
        first_seen.add(key)


def test_a_failed_check_makes_the_result_incorrect():
    outcome = Outcome()
    outcome.attempted, outcome.failed_ops = 10, 1
    outcome.failures.append("planted")
    line = run.result_line(outcome, trace=False)
    assert line["correct"] is False and line["failed"] == 1
    assert set(line["metrics"]) == {name for name, _ in run.metric_units("end_to_end")}
