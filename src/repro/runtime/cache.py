"""Result caching for experiment sweep points.

A sweep point is fully determined by its specification — workload, size,
target identity, seed and transpiler configuration — and the transpiler
is deterministic given that specification, so its metrics can be memoized.
Repeated sweeps (a swap study followed by a headline study over the same
grid, a CLI rerun with one extra size, a benchmark warm pass) then skip
transpilation entirely for every point already seen in this process.

:class:`ResultCache` is the memory tier; its subclass
:class:`~repro.runtime.disk_cache.PersistentResultCache` adds a disk tier
behind the same ``get``/``put``.  Only the experiment runner's parent
process reads and writes the cache (see :mod:`repro.runtime.runner`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable, Optional

from repro.linalg.cache import CacheStats, LRUCache
from repro.transpiler.compile import TranspileResult
from repro.transpiler.metrics import TranspileMetrics
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.target import Target


def point_cache_key(
    workload: str,
    num_qubits: int,
    target: Target,
    seed: int,
    layout_method: str,
    routing_method: str,
    optimization_level: int = 1,
) -> Hashable:
    """Full cache key of one sweep point."""
    return (
        workload,
        int(num_qubits),
        target.cache_key(),
        int(seed),
        layout_method,
        routing_method,
        int(optimization_level),
    )


class ResultCache:
    """Bounded memo of :class:`TranspileMetrics` keyed on point specs."""

    def __init__(self, maxsize: int = 8192):
        self._lru = LRUCache(maxsize=maxsize)
        self._computed = 0

    @staticmethod
    def _copy(record):
        # TranspileMetrics carries a mutable ``extra`` dict; hand out private
        # copies so neither side can corrupt the other — also when the
        # metrics are nested inside a TranspileResult (the record type
        # ``transpile_batch`` caches), whose PropertySet and its nested
        # bookkeeping dicts are copied one level deep (circuits, layouts and
        # schedules are treated as immutable by convention).  Other result
        # types are stored as-is (callers own their immutability contract).
        if isinstance(record, TranspileMetrics):
            return replace(record, extra=dict(record.extra))
        if isinstance(record, TranspileResult):
            properties = PropertySet(
                {
                    key: dict(value) if isinstance(value, dict) else value
                    for key, value in record.properties.items()
                }
            )
            return replace(
                record,
                metrics=ResultCache._copy(record.metrics),
                properties=properties,
            )
        return record

    def get(self, key: Hashable) -> Optional[object]:
        """Cached record for ``key`` (mutable parts copied), or ``None``."""
        record = self._lru.get(key)
        if record is None:
            return None
        return self._copy(record)

    def put(self, key: Hashable, record) -> None:
        """Store a result (metrics are copied before storage)."""
        self._lru.put(key, self._copy(record))
        self._computed += 1

    def clear(self) -> None:
        """Drop all cached results and reset the counters."""
        self._lru.clear()
        self._computed = 0

    def stats(self) -> CacheStats:
        """Hit/miss counters, and ``computed``: the results ``put`` stored."""
        return replace(self._lru.stats(), computed=self._computed)

    def __len__(self) -> int:
        return len(self._lru)
