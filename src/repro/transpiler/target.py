"""Target: the complete machine description the compiler addresses.

A :class:`Target` supersedes the thin ``(topology, basis)`` bundle of
:class:`repro.core.backend.Backend`: it carries everything a staged
compilation needs to know about a design point —

* the coupling topology (:class:`~repro.topology.coupling.CouplingMap`),
* the native two-qubit basis (:class:`~repro.decomposition.basis.BasisGateSpec`),
* per-gate physical durations (:class:`~repro.transpiler.scheduling.GateDurations`,
  defaulting to the preset matching the basis' modulator),
* optional per-edge noise / error rates (:class:`repro.core.noise.NoiseModel`),

so that experiments, the CLI and the runtime all address design points
uniformly.  :meth:`Target.from_names` builds one straight from the
topology and basis registries::

    target = Target.from_names("corral-1-1", "sqiswap")
    result = transpile(circuit, target, optimization_level=2)

Name lookup is forgiving about punctuation ("corral-1-1", "Corral1,1" and
"corral_1_1" all resolve to the same topology).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Hashable, Optional

from repro.decomposition.basis import BasisGateSpec, get_basis
from repro.topology.analysis import TopologyProperties, topology_properties
from repro.topology.coupling import CouplingMap
from repro.topology.registry import available_topologies, get_topology
from repro.transpiler.scheduling import GateDurations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core builds on transpiler)
    from repro.core.noise import NoiseModel

#: Modulator name (BasisGateSpec.modulator) -> GateDurations preset key.
_MODULATOR_DURATIONS = {"SNAIL": "snail", "CR": "cr", "FSIM": "fsim"}


def _normalise(name: str) -> str:
    """Canonical form for registry lookup: lowercase alphanumerics only."""
    return "".join(ch for ch in name.lower() if ch.isalnum())


@dataclass
class Target:
    """A machine design point: topology + basis + durations + noise.

    Attributes:
        coupling_map: the device topology.
        basis: the hardware-native two-qubit basis gate.
        durations: physical gate durations; when ``None``, the preset for
            the basis' modulator is used (see :meth:`gate_durations`).
        noise_model: optional per-edge error rates; level-3 compilation
            routes noise-aware when this is set.
        name: label used in reports and cache keys.
        description: free-form provenance note.
    """

    coupling_map: CouplingMap
    basis: BasisGateSpec
    durations: Optional[GateDurations] = None
    noise_model: Optional["NoiseModel"] = None
    name: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.name is None:
            self.name = f"{self.coupling_map.name}-{self.basis.name}"

    # -- construction --------------------------------------------------------

    @classmethod
    def from_names(
        cls,
        topology: str,
        basis: str,
        scale: str = "small",
        durations: Optional[GateDurations] = None,
        noise_model: Optional["NoiseModel"] = None,
        name: Optional[str] = None,
    ) -> "Target":
        """Build a target from registry names.

        ``topology`` is matched against :func:`repro.topology.registry.
        available_topologies` ignoring case and punctuation, so
        ``"corral-1-1"`` resolves to ``"Corral1,1"``; ``basis`` accepts any
        :func:`repro.decomposition.basis.get_basis` name or alias (e.g.
        ``"sqiswap"`` for ``"siswap"``).
        """
        canonical: Dict[str, str] = {
            _normalise(registered): registered
            for registered in available_topologies(scale)
        }
        key = _normalise(topology)
        if key not in canonical:
            raise ValueError(
                f"unknown topology {topology!r} at scale {scale!r}; "
                f"available: {available_topologies(scale)}"
            )
        coupling_map = get_topology(canonical[key], scale=scale)
        return cls(
            coupling_map=coupling_map,
            basis=get_basis(basis),
            durations=durations,
            noise_model=noise_model,
            name=name,
            description=f"{canonical[key]} topology with {basis} basis gate ({scale})",
        )

    @classmethod
    def from_backend(cls, backend) -> "Target":
        """Adapt a legacy :class:`repro.core.backend.Backend` (or any object
        with ``coupling_map``/``basis``/``name`` attributes)."""
        if isinstance(backend, cls):
            return backend
        return cls(
            coupling_map=backend.coupling_map,
            basis=backend.basis,
            name=getattr(backend, "name", None),
            description=getattr(backend, "description", ""),
        )

    def with_noise(self, noise_model: "NoiseModel") -> "Target":
        """A copy of this target carrying ``noise_model``."""
        return replace(self, noise_model=noise_model)

    # -- structure -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits."""
        return self.coupling_map.num_qubits

    def properties(self) -> TopologyProperties:
        """Graph-structural properties of the topology (Tables 1-2 row)."""
        return topology_properties(self.coupling_map)

    def gate_durations(self) -> GateDurations:
        """Physical durations: explicit if set, else the modulator preset."""
        if self.durations is not None:
            return self.durations
        preset = _MODULATOR_DURATIONS.get(self.basis.modulator.upper())
        if preset is None:
            return GateDurations()
        return GateDurations.for_modulator(preset)

    # -- identity ------------------------------------------------------------

    def cache_key(self) -> Hashable:
        """Stable identity for result caching: name, basis, exact topology.

        The edge list participates through a digest so that two targets
        that merely share a name never collide; the noise model
        participates through its edge-fidelity table.  Explicit
        ``durations`` add a digest of every field a schedule reads (the
        report label ``name`` is not one); targets on the modulator preset
        keep the five-part key, so existing cache directories and sweep
        checkpoints stay valid.
        """
        edges = ",".join(f"{a}-{b}" for a, b in self.coupling_map.edges())
        edge_digest = hashlib.sha256(edges.encode("ascii")).hexdigest()[:16]
        noise_token = ""
        if self.noise_model is not None:
            noise_token = repr(
                (
                    sorted(self.noise_model.edge_fidelity.items()),
                    self.noise_model.default_fidelity,
                    self.noise_model.idle_fidelity_per_pulse,
                )
            )
        noise_digest = hashlib.sha256(noise_token.encode("utf-8")).hexdigest()[:16]
        key = (
            self.name,
            self.basis.name,
            self.coupling_map.num_qubits,
            edge_digest,
            noise_digest,
        )
        if self.durations is None:
            return key
        durations_token = repr(
            (
                self.durations.one_qubit,
                self.durations.two_qubit_default,
                sorted(self.durations.by_name.items()),
                self.durations.iswap_full,
            )
        )
        return key + (hashlib.sha256(durations_token.encode("utf-8")).hexdigest()[:16],)

    # -- compilation ---------------------------------------------------------

    def transpile(self, circuit, **options):
        """Compile ``circuit`` onto this target (see :func:`repro.transpiler.
        compile.transpile` for options such as ``optimization_level``)."""
        from repro.transpiler.compile import transpile

        return transpile(circuit, self, **options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        noise = ", noisy" if self.noise_model is not None else ""
        return (
            f"Target(name={self.name!r}, qubits={self.num_qubits}, "
            f"basis={self.basis.name!r}{noise})"
        )


def make_target(
    coupling_map: CouplingMap,
    basis_name: str,
    name: Optional[str] = None,
    noise_model: Optional["NoiseModel"] = None,
) -> Target:
    """Convenience constructor from a topology object and a basis name."""
    return Target(
        coupling_map=coupling_map,
        basis=get_basis(basis_name),
        noise_model=noise_model,
        name=name,
    )
