"""Compilation-as-a-service: the persistent ``repro serve`` process.

This package turns the one-shot CLI into a resident service.  A single
warm :class:`~repro.runtime.runner.ExperimentRunner` (process pool) and a
resident result cache — the shared
:class:`~repro.runtime.disk_cache.PersistentResultCache` when a cache
directory is configured — serve every request over a small JSON-over-HTTP
API built on stdlib :mod:`asyncio` (no extra runtime dependencies):

* ``POST /v1/transpile`` — single point or batch, the same knobs as
  ``repro run``;
* ``POST /v1/sweep`` — a workload × size × target grid with streamed
  newline-delimited JSON progress;
* ``GET /v1/health`` / ``GET /v1/metrics`` — liveness and counters
  (uptime, per-endpoint requests, cumulative cache statistics);
* ``POST /v1/shutdown`` — graceful drain.

``docs/architecture.md`` explains when to reach for the server instead
of the one-shot CLI; ``docs/api.md`` is the endpoint reference.

Usage::

    repro serve --port 8537 --workers 4 --cache-dir ~/.cache/repro

    from repro.server import ServeClient
    client = ServeClient(port=8537)
    client.transpile({"workload": "QuantumVolume", "size": 12,
                      "topology": "corral-1-1", "basis": "sqiswap"})
"""

from repro.server.app import (
    DEFAULT_PORT,
    DEFAULT_QUEUE_SIZE,
    TOKEN_ENV,
    ReproServer,
    ServerBindError,
    ServerHandle,
    run_server,
)
from repro.server.client import ServeClient, ServeError
from repro.server.jobs import PointSpec, RequestError

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_SIZE",
    "TOKEN_ENV",
    "ReproServer",
    "ServerBindError",
    "ServerHandle",
    "run_server",
    "ServeClient",
    "ServeError",
    "PointSpec",
    "RequestError",
]
