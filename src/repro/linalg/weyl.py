"""Weyl-chamber (canonical) coordinates of two-qubit gates.

Every two-qubit unitary ``U`` is locally equivalent (i.e. equal up to
single-qubit gates before and after) to a *canonical gate*

    CAN(x, y, z) = exp(i * (x XX + y YY + z ZZ))

for some interaction coefficients ``(x, y, z)``.  The coefficients are
unique once restricted to a fundamental domain of the local-equivalence
symmetry group, the *Weyl chamber*.  The coverage rules used by the paper
(how many CNOT / sqrt(iSWAP) / SYC applications a unitary needs) are
functions of these coordinates only, which is why they are the backbone of
the basis-translation machinery in :mod:`repro.decomposition`.

Conventions used throughout this library:

* coordinates are expressed in radians, with
  CNOT = (pi/4, 0, 0), iSWAP = (pi/4, pi/4, 0), SWAP = (pi/4, pi/4, pi/4),
  sqrt(iSWAP) = (pi/8, pi/8, 0);
* the canonical chamber is ``pi/4 >= x >= y >= |z|`` (``y >= 0``), and when
  several orbit representatives satisfy those inequalities the
  lexicographically largest ``(x, y, z)`` is chosen, which makes the
  canonical form deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.linalg.matrices import dagger, su_normalize

#: The "magic" (Bell-like) basis change.  Conjugating a local gate
#: ``A (x) B`` by this matrix yields a real orthogonal matrix, which is what
#: makes the Cartan decomposition tractable.
MAGIC_BASIS = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)

_PI_2 = np.pi / 2.0
_PI_4 = np.pi / 4.0
_DEFAULT_ATOL = 1e-7


def magic_transform(unitary: np.ndarray) -> np.ndarray:
    """Conjugate a 4x4 matrix into the magic basis: ``M^dagger U M``."""
    unitary = np.asarray(unitary, dtype=complex)
    return dagger(MAGIC_BASIS) @ unitary @ MAGIC_BASIS


def canonical_gate(x: float, y: float, z: float) -> np.ndarray:
    """Return ``CAN(x, y, z) = exp(i (x XX + y YY + z ZZ))`` as a 4x4 matrix.

    The three two-body operators commute, so the exponential is evaluated
    directly in the magic basis where it is diagonal.
    """
    phases = np.array(
        [x - y + z, x + y - z, -x - y - z, -x + y + z], dtype=float
    )
    diag = np.diag(np.exp(1j * phases))
    return MAGIC_BASIS @ diag @ dagger(MAGIC_BASIS)


@dataclass(frozen=True)
class WeylCoordinates:
    """Canonical interaction coefficients ``(x, y, z)`` of a two-qubit gate."""

    x: float
    y: float
    z: float

    def as_tuple(self) -> Tuple[float, float, float]:
        """Return the coordinates as a plain tuple."""
        return (self.x, self.y, self.z)

    def is_local(self, atol: float = _DEFAULT_ATOL) -> bool:
        """True if the gate is a product of single-qubit gates."""
        return max(abs(self.x), abs(self.y), abs(self.z)) <= atol

    def is_perfect_entangler(self, atol: float = _DEFAULT_ATOL) -> bool:
        """True if the gate can map a product state to a maximally entangled one.

        In the canonical chamber ``pi/4 >= x >= y >= |z|`` the perfect
        entanglers form the polytope ``x + y >= pi/4`` and
        ``y + |z| <= pi/4`` (Zhang et al., PRA 67, 042313).  This includes
        CNOT, iSWAP, sqrt(iSWAP) and sqrt(SWAP) but excludes SWAP and any
        iSWAP fraction smaller than the square root — the fact the paper
        uses when calling sqrt(iSWAP) the smallest perfectly entangling
        fraction (Section 6.3).
        """
        return (self.x + self.y >= _PI_4 - atol) and (
            self.y + abs(self.z) <= _PI_4 + atol
        )

    def equals(self, other: "WeylCoordinates", atol: float = 1e-6) -> bool:
        """Coordinate-wise comparison with tolerance."""
        return (
            abs(self.x - other.x) <= atol
            and abs(self.y - other.y) <= atol
            and abs(self.z - other.z) <= atol
        )

    def gate(self) -> np.ndarray:
        """The canonical 4x4 matrix with these coordinates."""
        return canonical_gate(self.x, self.y, self.z)

    def distance(self, other: "WeylCoordinates") -> float:
        """Euclidean distance between two coordinate triples."""
        return float(
            np.sqrt(
                (self.x - other.x) ** 2
                + (self.y - other.y) ** 2
                + (self.z - other.z) ** 2
            )
        )


# Named canonical classes used by the coverage rules and the tests.
LOCAL_CLASS = WeylCoordinates(0.0, 0.0, 0.0)
CNOT_CLASS = WeylCoordinates(_PI_4, 0.0, 0.0)
ISWAP_CLASS = WeylCoordinates(_PI_4, _PI_4, 0.0)
SWAP_CLASS = WeylCoordinates(_PI_4, _PI_4, _PI_4)
SQRT_ISWAP_CLASS = WeylCoordinates(np.pi / 8.0, np.pi / 8.0, 0.0)
SQRT_SWAP_CLASS = WeylCoordinates(np.pi / 8.0, np.pi / 8.0, np.pi / 8.0)


def nth_root_iswap_class(n: int) -> WeylCoordinates:
    """Canonical class of the ``n``-th root of iSWAP (``n >= 1``)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    angle = _PI_4 / n
    return WeylCoordinates(angle, angle, 0.0)


def in_weyl_chamber(
    coords: Tuple[float, float, float], atol: float = _DEFAULT_ATOL
) -> bool:
    """Check whether ``(x, y, z)`` satisfies ``pi/4 >= x >= y >= |z|``."""
    x, y, z = coords
    return (
        x <= _PI_4 + atol
        and x >= y - atol
        and y >= abs(z) - atol
        and y >= -atol
    )


def _orbit_candidates(
    coords: Tuple[float, float, float]
) -> Iterable[Tuple[float, float, float]]:
    """Enumerate representatives of the local-symmetry orbit of ``coords``.

    The symmetry group is generated by (i) permutations of the coordinates,
    (ii) simultaneous sign flips of any two coordinates, and (iii) shifts of
    any single coordinate by ``pi/2``.  Reducing each coordinate modulo
    ``pi/2`` first makes the remaining enumeration finite.
    """
    reduced = [float(np.mod(c, _PI_2)) for c in coords]
    per_coordinate = []
    for value in reduced:
        options = {value, value - _PI_2}
        # Values extremely close to 0 or pi/2 generate near-duplicate
        # representatives; keep both and let the chamber filter decide.
        per_coordinate.append(sorted(options))
    sign_patterns = [
        (1, 1, 1),
        (-1, -1, 1),
        (-1, 1, -1),
        (1, -1, -1),
    ]
    for choice in itertools.product(*per_coordinate):
        for perm in itertools.permutations(range(3)):
            permuted = (choice[perm[0]], choice[perm[1]], choice[perm[2]])
            for signs in sign_patterns:
                yield (
                    permuted[0] * signs[0],
                    permuted[1] * signs[1],
                    permuted[2] * signs[2],
                )


def canonicalize_coordinates(
    x: float, y: float, z: float, atol: float = _DEFAULT_ATOL
) -> WeylCoordinates:
    """Map arbitrary interaction coefficients into the canonical chamber.

    The canonical representative is the lexicographically largest orbit
    element satisfying ``pi/4 >= x >= y >= |z|``.  Values within ``atol`` of
    zero are snapped to exactly zero so that named classes compare cleanly.
    """
    best: Tuple[float, float, float] | None = None
    best_key: Tuple[float, float, float] | None = None
    for candidate in _orbit_candidates((x, y, z)):
        if not in_weyl_chamber(candidate, atol=atol):
            continue
        key = tuple(round(c, 9) for c in candidate)
        if best_key is None or key > best_key:
            best_key = key
            best = candidate
    if best is None:  # pragma: no cover - the orbit always meets the chamber
        raise RuntimeError(f"failed to canonicalize coordinates {(x, y, z)}")
    snapped = tuple(0.0 if abs(c) <= atol else float(c) for c in best)
    clipped_x = min(snapped[0], _PI_4)
    return WeylCoordinates(clipped_x, min(snapped[1], clipped_x), snapped[2])


def _coordinate_candidates_from_angles(
    half_angles: np.ndarray, atol: float = 1e-6
) -> Iterable[Tuple[float, float, float]]:
    """Yield coordinate triples consistent with magic-spectrum half-angles.

    ``half_angles`` are the values ``angle(eigenvalue)/2`` of
    ``M2 = (M^dag U M)^T (M^dag U M)``, each only defined modulo ``pi``.
    The true angles ``d_j`` satisfy ``sum(d) = 0 (mod 2 pi)`` and, for some
    ordering, ``d = (x-y+z, x+y-z, -x-y-z, -x+y+z)``.
    """
    for shifts in itertools.product((0.0, -np.pi), repeat=4):
        candidate = half_angles + np.array(shifts)
        total = float(np.sum(candidate))
        if abs(((total + np.pi) % (2 * np.pi)) - np.pi) > atol:
            continue
        for perm in itertools.permutations(range(4)):
            d0, d1, _d2, d3 = (candidate[i] for i in perm)
            x = (d0 + d1) / 2.0
            y = (d1 + d3) / 2.0
            z = (d0 + d3) / 2.0
            yield (float(x), float(y), float(z))


def weyl_coordinates(
    unitary: np.ndarray, atol: float = _DEFAULT_ATOL
) -> WeylCoordinates:
    """Compute the canonical Weyl coordinates of a two-qubit unitary.

    The computation only needs the eigenvalue spectrum of the magic-basis
    Gram matrix ``M2 = Up^T Up`` (no eigenvectors), which makes it fast and
    numerically robust; the full Cartan decomposition (with the local
    factors) is available from :func:`repro.linalg.kak.kak_decomposition`.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {unitary.shape}")
    special, _phase = su_normalize(unitary)
    up = magic_transform(special)
    gram = up.T @ up
    eigenvalues = np.linalg.eigvals(gram)
    half_angles = np.angle(eigenvalues) / 2.0
    # Any branch/permutation assignment that satisfies the determinant
    # constraint (sum of angles = 0 mod 2 pi) reproduces the Gram spectrum
    # exactly, and the Gram spectrum is a complete local invariant, so the
    # first consistent candidate already lies in the correct equivalence
    # class; canonicalization then produces the unique chamber representative.
    for candidate in _coordinate_candidates_from_angles(half_angles, atol=1e-5):
        return canonicalize_coordinates(*candidate, atol=atol)
    # Fall back to the full decomposition (handles rare branch pathologies).
    from repro.linalg.kak import kak_decomposition

    return kak_decomposition(unitary).canonical
