"""Result caching for experiment sweep points.

A sweep point is fully determined by its specification — workload, size,
target identity, seed and transpiler configuration — and the transpiler
is deterministic given that specification, so its metrics can be memoized.
Repeated sweeps (a swap study followed by a headline study over the same
grid, a CLI rerun with one extra size, a benchmark warm pass) then skip
transpilation entirely for every point already seen in this process.

Two-tier protocol
-----------------

:class:`ResultCache` is the single-tier (memory-only) base of a two-tier
protocol shared with :class:`~repro.runtime.disk_cache.
PersistentResultCache`.  Besides plain ``get``/``put`` it exposes the
tier-selective hooks the experiment runner's worker-shared cache protocol
(see :mod:`repro.runtime.runner`) is built on:

* :meth:`ResultCache.peek_memory` — memory-tier-only lookup, used by the
  parent before dispatching tasks whose workers will probe the disk tier
  themselves;
* :meth:`ResultCache.put_local` — memory-tier-only store, used for
  values a worker already persisted (outcome ``"stored"``);
* ``probe_disk`` / ``note_worker_hit`` — disk-tier counterparts that only
  the persistent subclass implements meaningfully.

For this in-memory class the memory tier *is* the whole cache, so
``peek_memory`` behaves exactly like ``get`` and ``put_local`` exactly
like ``put``.
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

    def peek_memory(self, key: Hashable) -> Optional[object]:
        """Memory-tier-only lookup.

        For the plain in-process cache this *is* :meth:`get`; a disk-backed
        subclass overrides :meth:`get` to fall through to disk but keeps
        this memory-only probe, which the experiment runner uses when pool
        workers will consult the disk tier themselves (the parent then
        skips the serial decompress-per-record walk).
        """
        return ResultCache.get(self, key)

    def put_local(self, key: Hashable, record) -> None:
        """Memory-tier-only store (no persistence side effects).

        Used for results a worker process already persisted: the parent
        only needs its LRU warmed, not a second disk write.
        """
        ResultCache.put(self, key, record)

    def clear(self) -> None:
        """Drop all cached results."""
        self._lru.clear()

    def stats(self) -> CacheStats:
        """Hit/miss counters."""
        return self._lru.stats()

    def __len__(self) -> int:
        return len(self._lru)
