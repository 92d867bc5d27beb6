"""No registered pass mutates the circuit it is given.

:func:`repro.workloads.build_workload` memoizes built instances and hands
every caller a shallow copy that shares its instructions, and the
transpiler hands each pass the previous pass's output.  Both are only
sound if a pass treats its input circuit as read-only.  Every pass the
level presets schedule (levels 0-3, with and without a noise model) and
every other registered pass is run here on a snapshot-checked input.
"""

from __future__ import annotations

import copy

import pytest

from repro.circuits import QuantumCircuit
from repro.core.noise import NoiseModel
from repro.linalg.random import random_unitary
from repro.topology import corral_topology
from repro.transpiler import PropertySet, available_passes, make_pass, make_target
from repro.transpiler.compile import build_staged_pass_manager

SEED = 3


def _source_circuit() -> QuantumCircuit:
    """1Q, 2Q and 3Q gates, an algorithmic SWAP, a barrier and a raw unitary."""
    circuit = QuantumCircuit(6, name="purity")
    circuit.h(0).cx(0, 1).ccx(0, 1, 2).rz(0.3, 2).swap(2, 3)
    circuit.barrier()
    circuit.cp(0.7, 3, 5).unitary(random_unitary(4, SEED), (4, 1)).cx(5, 0).x(4)
    circuit.metadata.update({"workload": "purity", "nested": {"sizes": [6]}})
    return circuit


def _targets():
    target = make_target(corral_topology(8, (1, 1)), "siswap", name="Corral1,1")
    noisy = target.with_noise(NoiseModel.random(target.coupling_map, seed=SEED))
    return {"uniform": target, "noisy": noisy}


def _snapshot(circuit: QuantumCircuit):
    return (
        circuit.num_qubits,
        circuit.name,
        circuit.instructions,
        [instruction.induced for instruction in circuit],
        copy.deepcopy(circuit.metadata),
    )


def _assert_unchanged(circuit: QuantumCircuit, before, pass_name: str) -> None:
    num_qubits, name, instructions, induced, metadata = before
    assert circuit.num_qubits == num_qubits, pass_name
    assert circuit.name == name, pass_name
    assert len(circuit.instructions) == len(instructions), pass_name
    assert all(a is b for a, b in zip(circuit.instructions, instructions)), pass_name
    assert [instruction.induced for instruction in circuit] == induced, pass_name
    assert circuit.metadata == metadata, pass_name


def _run_checked(stages, target) -> None:
    """Run a staged schedule, checking every pass leaves its input as it was."""
    properties = PropertySet()
    if target.noise_model is not None:
        properties["noise_model"] = target.noise_model
    current = _source_circuit()
    for passes in stages.values():
        for transpiler_pass in passes:
            before = _snapshot(current)
            output = transpiler_pass.run(current, properties)
            _assert_unchanged(current, before, transpiler_pass.name)
            current = output


@pytest.mark.parametrize("noise", ["uniform", "noisy"])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_preset_passes_leave_their_input_unchanged(level, noise):
    target = _targets()[noise]
    manager = build_staged_pass_manager(target, level, seed=SEED)
    _run_checked(manager.stages, target)


def _registered():
    return [(stage, name) for stage, names in available_passes().items() for name in names]


@pytest.mark.parametrize("noise", ["uniform", "noisy"])
@pytest.mark.parametrize("stage, name", _registered())
def test_every_registered_pass_leaves_its_input_unchanged(stage, name, noise):
    """Each pass slotted into the level-1 schedule at its own stage."""
    target = _targets()[noise]
    stages = build_staged_pass_manager(target, 1, seed=SEED).stages
    tested = make_pass(stage, name, target, seed=SEED)
    if stage in ("optimization", "scheduling"):
        stages[stage] = stages[stage] + [tested]
    else:
        stages[stage] = [tested]
    _run_checked(stages, target)
