"""Dense density-matrix representation and simulator.

The density matrix is stored over the little-endian register convention
used by :mod:`repro.simulator.statevector` (qubit 0 is the least
significant bit of the computational-basis index).  Gate matrices follow
the argument-order convention of :mod:`repro.circuits.gate` (first gate
argument = most significant bit of the gate matrix); the index gymnastics
needed to reconcile the two live here so callers never see them.

Evolution is *vectorized*: the density matrix is treated as a rank-``2n``
tensor (``n`` row axes then ``n`` column axes) and a ``k``-qubit unitary
is contracted directly into the row axes (and its conjugate into the
column axes) — O(4^n * 2^k) per gate instead of the O(8^n) cost of
embedding every operator into the full ``2^n x 2^n`` register.  Channels
are applied through their cached ``4^k x 4^k`` superoperators
(:meth:`repro.noise.channels.QuantumChannel.superoperator`) in a single
contraction over the ``2k`` affected axes, so the cost is independent of
the number of Kraus operators.  The full-register expansion this replaced
is kept as a test-only oracle (``tests/oracles.py``); the equivalence
suite holds the simulator to it within 1e-10.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.noise.channels import QuantumChannel
from repro.simulator.fusion import SingleQubitFusion, apply_matrix_to_axes
from repro.simulator.statevector import sample_probability_counts

#: Absolute ceiling on the density-matrix width: a 2^28-entry complex
#: matrix (14 qubits) is already 4 GiB; anything wider cannot realistically
#: be allocated, so a mistyped width fails with a clear error instead of a
#: multi-gigabyte numpy allocation attempt.
HARD_QUBIT_LIMIT = 14

#: Default simulator ceiling (the full hard limit: local contractions make
#: 12-14 qubit noisy runs practical where the old full-expansion engine
#: was capped at 10).  Mind the memory at the top of the range: each
#: contraction allocates fresh output/transpose buffers, so peak RSS is
#: roughly 3x the state (~12 GiB at 14 qubits, ~0.75 GiB at 12).
DEFAULT_MAX_QUBITS = 14


class DensityMatrix:
    """A mixed quantum state on ``num_qubits`` qubits."""

    def __init__(self, data: np.ndarray, num_qubits: Optional[int] = None):
        matrix = np.asarray(data, dtype=complex)
        if matrix.ndim == 1:
            matrix = np.outer(matrix, matrix.conj())
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        dim = matrix.shape[0]
        inferred = int(round(np.log2(dim)))
        if 2 ** inferred != dim:
            raise ValueError("density matrix dimension must be a power of two")
        if num_qubits is not None and num_qubits != inferred:
            raise ValueError("num_qubits does not match the matrix dimension")
        self._num_qubits = inferred
        self._matrix = matrix

    # -- constructors ---------------------------------------------------------

    @classmethod
    def ground_state(cls, num_qubits: int) -> "DensityMatrix":
        """|0...0><0...0|."""
        dim = 2 ** num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[0, 0] = 1.0
        return cls(matrix)

    @classmethod
    def from_statevector(cls, state: np.ndarray) -> "DensityMatrix":
        """Pure state |psi><psi| from an amplitude vector."""
        return cls(np.asarray(state, dtype=complex))

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        """I / 2^n."""
        dim = 2 ** num_qubits
        return cls(np.eye(dim, dtype=complex) / dim)

    # -- basic properties --------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def matrix(self) -> np.ndarray:
        """A copy of the underlying matrix."""
        return self._matrix.copy()

    def trace(self) -> float:
        """Trace (1 for a normalised state)."""
        return float(np.real(np.trace(self._matrix)))

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states, 1/2^n for the maximally mixed state."""
        return float(np.real(np.einsum("ij,ji->", self._matrix, self._matrix)))

    def is_valid(self, atol: float = 1e-7) -> bool:
        """Hermitian, unit-trace, positive semidefinite (within tolerance)."""
        if not np.allclose(self._matrix, self._matrix.conj().T, atol=atol):
            return False
        if abs(self.trace() - 1.0) > atol:
            return False
        eigenvalues = np.linalg.eigvalsh(self._matrix)
        return bool(np.all(eigenvalues > -atol))

    # -- measurement-level queries -------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Computational-basis measurement probabilities."""
        return np.clip(np.real(np.diag(self._matrix)), 0.0, None)

    def expectation(self, observable: np.ndarray) -> float:
        """Tr(rho O) for a Hermitian observable of full dimension."""
        observable = np.asarray(observable, dtype=complex)
        if observable.shape != self._matrix.shape:
            raise ValueError("observable dimension mismatch")
        # Tr(A @ B) without materialising the product.
        return float(np.real(np.einsum("ij,ji->", self._matrix, observable)))

    def fidelity(self, other: "DensityMatrix") -> float:
        """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
        if other.num_qubits != self._num_qubits:
            raise ValueError("states act on different numbers of qubits")
        rho = self._matrix
        sigma = other._matrix
        # Fast path: either state pure -> F = Tr(rho sigma), again without
        # materialising the product.
        if self.purity() > 1.0 - 1e-9 or other.purity() > 1.0 - 1e-9:
            return float(np.real(np.einsum("ij,ji->", rho, sigma)))
        eigenvalues, eigenvectors = np.linalg.eigh(rho)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        sqrt_rho = (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.conj().T
        inner = sqrt_rho @ sigma @ sqrt_rho
        inner_eigenvalues = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
        return float(np.sum(np.sqrt(inner_eigenvalues)) ** 2)

    def state_fidelity_with_statevector(self, state: np.ndarray) -> float:
        """<psi| rho |psi> for a pure reference state."""
        state = np.asarray(state, dtype=complex)
        if state.shape != (2 ** self._num_qubits,):
            raise ValueError("statevector dimension mismatch")
        return float(np.real(state.conj() @ self._matrix @ state))

    def partial_trace(self, keep: Sequence[int]) -> "DensityMatrix":
        """Trace out every qubit not in ``keep`` (result reindexed to ``keep`` order)."""
        keep = list(keep)
        if len(set(keep)) != len(keep):
            raise ValueError("keep indices must be distinct")
        for qubit in keep:
            if qubit < 0 or qubit >= self._num_qubits:
                raise ValueError(f"qubit {qubit} out of range")
        n = self._num_qubits
        tensor = self._matrix.reshape([2] * (2 * n))
        # One einsum does both the trace and the reindexing: give every
        # traced qubit's column axis the same label as its row axis
        # (repeated label = summed), and order the kept axes so that
        # keep[i] becomes qubit i of the output (axis p of the k output
        # row axes carries output qubit k-1-p).
        labels = list(range(2 * n))
        keep_set = set(keep)
        for qubit in range(n):
            if qubit not in keep_set:
                labels[2 * n - 1 - qubit] = n - 1 - qubit
        out_rows = [n - 1 - q for q in reversed(keep)]
        out_cols = [2 * n - 1 - q for q in reversed(keep)]
        dim = 2 ** len(keep)
        result = np.einsum(tensor, labels, out_rows + out_cols).reshape(dim, dim)
        return DensityMatrix(result)

    # -- evolution -----------------------------------------------------------------

    def _validated_qubits(self, qubits: Sequence[int]) -> tuple:
        """Distinct, in-range qubit indices (negative axis wrap-around would
        otherwise silently land an operator on the wrong qubit)."""
        qubits = tuple(int(q) for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError("qubit indices must be distinct")
        for qubit in qubits:
            if qubit < 0 or qubit >= self._num_qubits:
                raise ValueError(f"qubit {qubit} out of range")
        return qubits

    def evolve_unitary(self, unitary: np.ndarray, qubits: Sequence[int]) -> "DensityMatrix":
        """Apply a unitary acting on the listed qubits (gate-argument order)."""
        unitary = np.asarray(unitary, dtype=complex)
        qubits = self._validated_qubits(qubits)
        if unitary.shape != (2 ** len(qubits), 2 ** len(qubits)):
            raise ValueError("operator dimension does not match the qubit list")
        n = self._num_qubits
        tensor = self._matrix.reshape([2] * (2 * n))
        tensor = _apply_unitary_tensor(tensor, unitary, qubits, n)
        return DensityMatrix(tensor.reshape(2 ** n, 2 ** n))

    def evolve_channel(self, channel: QuantumChannel, qubits: Sequence[int]) -> "DensityMatrix":
        """Apply a channel acting on the listed qubits (gate-argument order)."""
        qubits = self._validated_qubits(qubits)
        if channel.num_qubits != len(qubits):
            raise ValueError("channel arity does not match the qubit list")
        n = self._num_qubits
        tensor = self._matrix.reshape([2] * (2 * n))
        tensor = _apply_channel_tensor(tensor, channel, qubits, n)
        return DensityMatrix(tensor.reshape(2 ** n, 2 ** n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(qubits={self._num_qubits}, purity={self.purity():.4f})"


# -- local-contraction engine ----------------------------------------------------
#
# The density matrix as a rank-2n tensor: axes 0..n-1 are the row bits and
# axes n..2n-1 the column bits, most-significant first, so the row (column)
# axis carrying qubit ``q`` is ``n - 1 - q`` (``2n - 1 - q``).


def _row_axes(qubits: Sequence[int], num_qubits: int) -> list:
    return [num_qubits - 1 - q for q in qubits]


def _col_axes(qubits: Sequence[int], num_qubits: int) -> list:
    return [2 * num_qubits - 1 - q for q in qubits]


def _apply_unitary_tensor(
    tensor: np.ndarray, unitary: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """rho -> U rho U^dagger via two local contractions.

    ``U`` contracts into the row axes; ``U.conj()`` into the column axes
    (``(rho U^dagger)_{ij} = sum_m U*_{jm} rho_{im}``).
    """
    tensor = apply_matrix_to_axes(tensor, unitary, _row_axes(qubits, num_qubits))
    return apply_matrix_to_axes(tensor, unitary.conj(), _col_axes(qubits, num_qubits))


def _apply_channel_tensor(
    tensor: np.ndarray, channel: QuantumChannel, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a k-qubit channel through its cached 4^k x 4^k superoperator.

    The superoperator acts on row-major ``vec(rho)`` of the affected
    subsystem, i.e. jointly on the k row axes followed by the k column
    axes — exactly the axis list ``row_axes + col_axes``.
    """
    axes = _row_axes(qubits, num_qubits) + _col_axes(qubits, num_qubits)
    return apply_matrix_to_axes(tensor, channel.superoperator(), axes)


class DensityMatrixSimulator:
    """Runs circuits on density matrices, optionally inserting noise channels.

    Evolution is in-place rank-``2n`` tensor contractions with
    single-qubit fusion and cached channel superoperators.
    """

    def __init__(self, max_qubits: int = DEFAULT_MAX_QUBITS):
        max_qubits = int(max_qubits)
        if max_qubits < 1:
            raise ValueError("max_qubits must be at least 1")
        if max_qubits > HARD_QUBIT_LIMIT:
            raise ValueError(
                f"max_qubits={max_qubits} exceeds the density-matrix limit of "
                f"{HARD_QUBIT_LIMIT} qubits (a 4**{max_qubits}-entry matrix "
                "cannot be allocated); use a smaller width"
            )
        self._max_qubits = max_qubits

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[DensityMatrix] = None,
        noise_model: Optional["object"] = None,
    ) -> DensityMatrix:
        """Simulate ``circuit``; ``noise_model`` follows the CircuitNoiseModel protocol.

        The noise model, when given, is asked for a channel after every
        instruction (``channel_for(instruction)``) and for a per-qubit idle
        channel at the end (``idle_channel_for(circuit, qubit)``); either
        hook may return ``None``.
        """
        num_qubits = circuit.num_qubits
        if num_qubits > self._max_qubits:
            raise ValueError(
                f"circuit has {num_qubits} qubits which exceeds the "
                f"density-matrix limit of {self._max_qubits}"
            )
        state = initial_state or DensityMatrix.ground_state(num_qubits)
        if state.num_qubits != num_qubits:
            raise ValueError("initial state size does not match the circuit")
        return DensityMatrix(self._evolve(circuit, state.matrix, noise_model))

    def _evolve(
        self,
        circuit: QuantumCircuit,
        matrix: np.ndarray,
        noise_model: Optional["object"],
    ) -> np.ndarray:
        """Vectorized evolution: one rank-2n tensor updated in place.

        Runs of noiseless single-qubit gates are fused per qubit (the same
        optimisation as the state-vector simulator); a pending run is only
        contracted when a wider gate or a noise channel touches its qubit.
        """
        n = circuit.num_qubits
        tensor = matrix.reshape([2] * (2 * n))
        fusion = SingleQubitFusion()

        def flush(qubits: Optional[Sequence[int]] = None) -> None:
            nonlocal tensor
            for qubit, fused in fusion.drain(qubits):
                tensor = _apply_unitary_tensor(tensor, fused, (qubit,), n)

        for instruction in circuit:
            if instruction.name == "barrier":
                continue
            channel = (
                noise_model.channel_for(instruction) if noise_model is not None else None
            )
            if instruction.num_qubits == 1 and channel is None:
                fusion.push(instruction.qubits[0], instruction.gate.cached_matrix())
                continue
            flush(instruction.qubits)
            tensor = _apply_unitary_tensor(
                tensor, instruction.gate.cached_matrix(), instruction.qubits, n
            )
            if channel is not None:
                tensor = _apply_channel_tensor(tensor, channel, instruction.qubits, n)
        flush()
        if noise_model is not None:
            for qubit in range(n):
                idle = noise_model.idle_channel_for(circuit, qubit)
                if idle is not None:
                    tensor = _apply_channel_tensor(tensor, idle, (qubit,), n)
        return tensor.reshape(2 ** n, 2 ** n)

    def probabilities(
        self, circuit: QuantumCircuit, noise_model: Optional["object"] = None
    ) -> np.ndarray:
        """Final measurement probabilities (little-endian basis ordering)."""
        return self.run(circuit, noise_model=noise_model).probabilities()

    def sample_counts(
        self,
        circuit: QuantumCircuit,
        shots: int,
        noise_model: Optional["object"] = None,
        seed: Optional[int] = None,
    ) -> Dict[str, int]:
        """Sample measurement outcomes; keys are little-endian bitstrings.

        Raises :class:`ValueError` when the probability vector is all zero
        (a numerically collapsed state) instead of producing ``NaN``
        sampling weights.
        """
        return sample_probability_counts(
            self.probabilities(circuit, noise_model=noise_model),
            circuit.num_qubits,
            shots,
            seed=seed,
        )
