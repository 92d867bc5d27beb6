"""Bounded LRU caches for the numerical hot paths.

Gate matrices, Weyl coordinates and synthesized templates are recomputed
millions of times during a sweep; each computation is individually cheap
but collectively dominates wall-clock (the cached-operator idiom of
density-matrix simulators such as quantumsim).  This module provides the
generic bounded cache plus the process-global *unitary cache* used by
:meth:`repro.circuits.gate.Gate.cached_matrix`.

All caches are process-local: worker processes of the experiment runner
build their own caches, which is exactly what is wanted (no cross-process
synchronisation on the hot path).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache.

    ``disk_hits`` / ``disk_misses`` stay 0 for purely in-memory caches;
    a disk-backed cache (``repro.runtime.disk_cache``) fills them in for
    lookups that fell through the memory tier.  A disk hit therefore
    also counts as a memory *miss*.  ``computed`` counts the results a
    result cache (``repro.runtime.cache``) stored with ``put``, i.e. the
    points actually computed; it stays 0 for a plain LRU.
    """

    hits: int
    misses: int
    currsize: int
    maxsize: int
    disk_hits: int = 0
    disk_misses: int = 0
    computed: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when unused)."""
        total = self.hits + self.misses
        return (self.hits + self.disk_hits) / total if total else 0.0


class LRUCache:
    """A small bounded mapping with least-recently-used eviction.

    Unlike :func:`functools.lru_cache` this caches *values by explicit
    key*, so callers can key on canonical forms (rounded parameters, Weyl
    coordinates, matrix fingerprints) rather than on raw call arguments.
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self._maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it recently used) or ``default``."""
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            return default
        self._data.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a value, evicting the least recently used entry if full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self._maxsize:
            self._data.popitem(last=False)

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss."""
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._data.clear()
        self._hits = 0
        self._misses = 0

    def stats(self) -> CacheStats:
        """Current counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            currsize=len(self._data),
            maxsize=self._maxsize,
        )

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


#: Process-global cache of gate unitaries keyed on (name, num_qubits, params).
UNITARY_CACHE = LRUCache(maxsize=2048)


def matrix_fingerprint(matrix: np.ndarray, digits: int = 10) -> bytes:
    """Stable hashable fingerprint of a small complex matrix."""
    return np.round(np.asarray(matrix, dtype=complex), digits).tobytes()


def cached_unitary(
    key: Hashable, builder: Callable[[], np.ndarray]
) -> np.ndarray:
    """Fetch a gate unitary from the global cache, building it on a miss.

    The cached array is frozen (non-writeable) so that every consumer can
    share the same buffer without defensive copies; callers that need a
    mutable matrix should use :meth:`~repro.circuits.gate.Gate.matrix`.
    """

    def frozen_builder() -> np.ndarray:
        matrix = np.asarray(builder(), dtype=complex)
        matrix.setflags(write=False)
        return matrix

    return UNITARY_CACHE.get_or_create(key, frozen_builder)


def clear_unitary_cache() -> None:
    """Reset the global unitary cache (mostly useful in tests)."""
    UNITARY_CACHE.clear()


def unitary_cache_stats() -> CacheStats:
    """Counters of the global unitary cache."""
    return UNITARY_CACHE.stats()
