"""NuOp-style approximate decomposition into repeated basis-gate templates.

The paper (Section 6.3) reproduces NuOp [Lao et al., ISCA 2021] to study
``n``-th-root iSWAP bases for which no analytic decomposition is known: the
target two-qubit unitary is approximated by a template that interleaves
``k`` applications of the basis gate with parameterised single-qubit gates
(paper Eq. 10), and a numerical optimiser maximises the normalised
Hilbert–Schmidt fidelity (paper Eq. 11).  Increasing ``k`` until the
fidelity converges gives both the achievable decomposition fidelity and the
required gate count.

The same engine doubles as the general-purpose synthesis backend of the
transpiler: with enough applications the optimiser reaches machine
precision for any basis that is a perfect entangler, so "approximate"
decompositions of sufficient depth are exact for all practical purposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.gates import U3Gate
from repro.linalg.fidelity import hilbert_schmidt_fidelity


@dataclass(frozen=True)
class ApproximateDecomposition:
    """Result of a template optimisation.

    Attributes:
        basis_name: name of the repeated basis gate.
        applications: number of basis-gate applications ``k``.
        fidelity: achieved Hilbert–Schmidt fidelity (paper Eq. 11).
        parameters: flat array of the optimised 1Q Euler angles.
        circuit: the realised two-qubit circuit.
    """

    basis_name: str
    applications: int
    fidelity: float
    parameters: np.ndarray
    circuit: QuantumCircuit

    @property
    def infidelity(self) -> float:
        """1 - fidelity; the quantity plotted in paper Fig. 15 (top left)."""
        return 1.0 - self.fidelity


def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    cos = np.cos(theta / 2.0)
    sin = np.sin(theta / 2.0)
    return np.array(
        [
            [cos, -np.exp(1j * lam) * sin],
            [np.exp(1j * phi) * sin, np.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


class TemplateDecomposer:
    """Optimises interleaved-1Q templates of a fixed two-qubit basis gate."""

    def __init__(
        self,
        basis_gate: Gate,
        convergence_threshold: float = 1.0 - 1e-6,
        restarts: int = 3,
        rescue_restarts: int = 4,
        max_iterations: int = 600,
        seed: int = 1234,
    ):
        if basis_gate.num_qubits != 2:
            raise ValueError("the template basis gate must be a two-qubit gate")
        self._basis_gate = basis_gate
        self._basis_matrix = basis_gate.matrix()
        self._threshold = float(convergence_threshold)
        self._restarts = int(restarts)
        self._rescue_restarts = int(rescue_restarts)
        self._max_iterations = int(max_iterations)
        self._seed = int(seed)

    # -- template evaluation ----------------------------------------------

    def template_unitary(self, parameters: np.ndarray, applications: int) -> np.ndarray:
        """Unitary realised by the template for the given 1Q parameters."""
        parameters = np.asarray(parameters, dtype=float)
        expected = 6 * (applications + 1)
        if parameters.size != expected:
            raise ValueError(
                f"expected {expected} parameters for k={applications}, got {parameters.size}"
            )
        layers = parameters.reshape(applications + 1, 6)
        unitary = np.kron(
            _u3_matrix(*layers[0, :3]), _u3_matrix(*layers[0, 3:])
        )
        for layer in range(1, applications + 1):
            unitary = self._basis_matrix @ unitary
            unitary = (
                np.kron(_u3_matrix(*layers[layer, :3]), _u3_matrix(*layers[layer, 3:]))
                @ unitary
            )
        return unitary

    def fidelity(self, parameters: np.ndarray, applications: int, target: np.ndarray) -> float:
        """Hilbert–Schmidt fidelity of the template against ``target``."""
        return hilbert_schmidt_fidelity(
            self.template_unitary(parameters, applications), target
        )

    # -- optimisation -------------------------------------------------------

    def decompose(
        self, target: np.ndarray, applications: int
    ) -> ApproximateDecomposition:
        """Best template with exactly ``applications`` basis gates."""
        # Imported here so that ``import repro`` and every compile stay
        # free of scipy; only synthesis-mode translation optimises.
        from scipy import optimize

        target = np.asarray(target, dtype=complex)
        if target.shape != (4, 4):
            raise ValueError("the target must be a two-qubit (4x4) unitary")
        rng = np.random.default_rng(self._seed + 7919 * applications)
        num_parameters = 6 * (applications + 1)

        def objective(parameters: np.ndarray) -> float:
            return 1.0 - self.fidelity(parameters, applications, target)

        best_params: Optional[np.ndarray] = None
        best_value = np.inf
        # The planned restarts run unconditionally; if none of them reaches
        # the convergence threshold a bounded number of rescue restarts is
        # attempted, which makes the mean-infidelity curves of Fig. 15
        # robust against the occasional local minimum of over-parameterised
        # templates.
        total_restarts = self._restarts + self._rescue_restarts
        for restart in range(total_restarts):
            initial = rng.uniform(-np.pi, np.pi, size=num_parameters)
            result = optimize.minimize(
                objective,
                initial,
                method="L-BFGS-B",
                options={"maxiter": self._max_iterations, "ftol": 1e-14, "gtol": 1e-10},
            )
            if result.fun < best_value:
                best_value = float(result.fun)
                best_params = result.x
            if best_value < 1.0 - self._threshold:
                break
            if restart >= self._restarts - 1 and best_value < 1e-6:
                break
        assert best_params is not None
        fidelity = 1.0 - best_value
        return ApproximateDecomposition(
            basis_name=self._basis_gate.name,
            applications=applications,
            fidelity=float(fidelity),
            parameters=best_params,
            circuit=self.build_circuit(best_params, applications),
        )

    def decompose_adaptive(
        self,
        target: np.ndarray,
        max_applications: int = 8,
        start_applications: int = 1,
    ) -> ApproximateDecomposition:
        """Increase ``k`` until the fidelity converges (NuOp's strategy)."""
        best: Optional[ApproximateDecomposition] = None
        start_applications = min(start_applications, max_applications)
        for applications in range(start_applications, max_applications + 1):
            candidate = self.decompose(target, applications)
            if best is None or candidate.fidelity > best.fidelity:
                best = candidate
            if candidate.fidelity >= self._threshold:
                return candidate
        assert best is not None
        return best

    def build_circuit(self, parameters: np.ndarray, applications: int) -> QuantumCircuit:
        """Materialise the optimised template as a two-qubit circuit."""
        layers = np.asarray(parameters, dtype=float).reshape(applications + 1, 6)
        circuit = QuantumCircuit(2, name=f"{self._basis_gate.name}_template_{applications}")
        circuit.append(U3Gate(*layers[0, :3]), (0,))
        circuit.append(U3Gate(*layers[0, 3:]), (1,))
        for layer in range(1, applications + 1):
            circuit.append(self._basis_gate, (0, 1))
            circuit.append(U3Gate(*layers[layer, :3]), (0,))
            circuit.append(U3Gate(*layers[layer, 3:]), (1,))
        return circuit


def decomposition_fidelity_curve(
    basis_gate: Gate,
    targets: Sequence[np.ndarray],
    applications_range: Sequence[int],
    **decomposer_kwargs,
) -> List[Tuple[int, float]]:
    """Average decomposition infidelity vs. template size ``k``.

    This is the data behind paper Fig. 15 (top left): for each ``k``, the
    mean ``1 - F_d`` over the supplied targets.
    """
    decomposer = TemplateDecomposer(basis_gate, **decomposer_kwargs)
    curve: List[Tuple[int, float]] = []
    for applications in applications_range:
        infidelities = [
            decomposer.decompose(target, applications).infidelity
            for target in targets
        ]
        curve.append((int(applications), float(np.mean(infidelities))))
    return curve
