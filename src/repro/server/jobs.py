"""Request-to-work translation for the compilation server.

The HTTP layer in :mod:`repro.server.app` stays protocol-only; everything
that understands *compilation* lives here: parsing JSON request payloads
into validated :class:`PointSpec` points and :class:`SweepRequest` grids,
executing them through :func:`repro.core.pipeline.map_points` on the
server's resident :class:`~repro.runtime.runner.ExperimentRunner` (so the
warm process pool and the shared result cache are reused across
requests), and snapshotting per-request
:class:`~repro.linalg.cache.CacheStats` deltas for the response bodies.

A malformed payload raises :class:`RequestError`, which the HTTP layer
maps onto a 4xx response; the job functions themselves run inside the
server's single dispatcher slot, so the before/after cache snapshots they
take are consistent without locking.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.pipeline import map_points, point_label, sweep_grid
from repro.runtime.runner import PoisonTaskError
from repro.transpiler.compile import available_levels
from repro.transpiler.registry import available_passes
from repro.transpiler.target import Target
from repro.workloads import available_workloads

#: Upper bound on the points of one request, so a single client cannot
#: park an unbounded sweep in the queue's one dispatcher slot.
MAX_POINTS_PER_REQUEST = 4096

#: Streaming sweeps execute this many points per chunk by default; one
#: progress line is emitted per chunk.
DEFAULT_CHUNK_SIZE = 16


class RequestError(Exception):
    """A request the server must reject with a non-2xx response.

    ``retry_after`` (seconds) is surfaced as a ``Retry-After`` response
    header, telling well-behaved clients when a 503/504 is worth
    retrying.
    """

    def __init__(
        self, message: str, status: int = 400, retry_after: Optional[float] = None
    ):
        super().__init__(message)
        self.status = int(status)
        self.retry_after = None if retry_after is None else float(retry_after)


def _require(condition: bool, message: str) -> None:
    """Raise a 400 :class:`RequestError` unless ``condition`` holds."""
    if not condition:
        raise RequestError(message)


def _as_int(value: Any, field: str) -> int:
    """Coerce a JSON value to ``int``, rejecting bools and non-numbers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{field!r} must be an integer, got {value!r}")
    return value


def pop_deadline(payload: Any) -> Optional[float]:
    """Remove and validate an optional ``deadline_s`` field from a payload.

    Every work-submitting endpoint accepts ``deadline_s``: the seconds the
    client is willing to wait before the server answers 504 instead.  The
    field is popped *before* the endpoint-specific parser runs, so the
    single-point ``/v1/transpile`` form (payload *is* the point) stays
    valid.  Returns ``None`` when absent.
    """
    if not isinstance(payload, dict) or "deadline_s" not in payload:
        return None
    value = payload.pop("deadline_s")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"'deadline_s' must be a number, got {value!r}")
    try:
        deadline = float(value)
    except OverflowError:  # an integer beyond the float range
        deadline = math.inf
    # json parses the NaN and Infinity literals: neither is a deadline.
    if not (math.isfinite(deadline) and deadline > 0):
        raise RequestError("'deadline_s' must be a finite number greater than 0")
    return deadline


def _workload(name: Any) -> str:
    """A registered workload name (raising 400 otherwise)."""
    _require(
        name in available_workloads(),
        f"unknown workload {name!r}; available: {available_workloads()}",
    )
    return name


def _size(value: Any) -> int:
    """A circuit width: an integer of at least 1."""
    size = _as_int(value, "size")
    _require(size >= 1, "'size' must be at least 1")
    return size


def _options(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The :class:`PointSpec` options a grid's points share (seed >= 0, as on the CLI)."""
    level = _as_int(payload.get("level", 1), "level")
    _require(
        level in available_levels(),
        f"unknown optimization level {level}; available: {available_levels()}",
    )
    scale = payload.get("scale", "small")
    _require(scale in ("small", "large"), "'scale' must be 'small' or 'large'")
    for stage in ("layout", "routing"):
        name = payload.get(stage)
        if name is not None:
            _require(
                name in available_passes(stage),
                f"unknown {stage} pass {name!r}; available: {available_passes(stage)}",
            )
    seed = _as_int(payload.get("seed", 0), "seed")
    _require(seed >= 0, "'seed' must be non-negative")
    return {
        "scale": scale,
        "optimization_level": level,
        "layout": payload.get("layout"),
        "routing": payload.get("routing"),
        "seed": seed,
    }


@functools.lru_cache(maxsize=256)
def _resolve_target(topology: str, basis: str, scale: str) -> Target:
    """Build (once) the target named by registry strings (400 on a bad name).

    Resolution is memoized per ``(topology, basis, scale)``: building a
    target constructs the topology graph and its distance structures,
    which would otherwise dominate fully cached requests.  Targets are
    treated as read-only by the pipeline, so sharing one instance across
    requests is safe (the single dispatcher serializes jobs).
    """
    try:
        return Target.from_names(topology, basis, scale=scale, name=f"{topology}-{basis}")
    except (ValueError, KeyError) as error:
        raise RequestError(str(error)) from None


@dataclass(frozen=True)
class PointSpec:
    """One validated compilation point of a ``/v1/transpile`` request.

    Mirrors the knobs of ``repro run`` (and of
    :func:`repro.core.pipeline.run_point`): a workload instance, a design
    point named by registry entries, and the transpiler configuration.
    """

    workload: str
    size: int
    topology: str
    basis: str
    scale: str = "small"
    optimization_level: int = 1
    layout: Optional[str] = None
    routing: Optional[str] = None
    seed: int = 0

    @classmethod
    def from_payload(cls, payload: Any) -> "PointSpec":
        """Validate one JSON object into a spec (raising :class:`RequestError`)."""
        _require(isinstance(payload, dict), "each point must be a JSON object")
        known = {
            "workload",
            "size",
            "topology",
            "basis",
            "scale",
            "level",
            "layout",
            "routing",
            "seed",
        }
        unknown = sorted(set(payload) - known)
        _require(not unknown, f"unknown point fields: {unknown}")
        _require("workload" in payload, "point is missing 'workload'")
        _require("size" in payload, "point is missing 'size'")
        return cls(
            workload=_workload(payload["workload"]),
            size=_size(payload["size"]),
            topology=str(payload.get("topology", "Corral1,1")),
            basis=str(payload.get("basis", "siswap")),
            **_options(payload),
        )

    def resolve_target(self) -> Target:
        """The design point this spec names (raising 400 on a bad name)."""
        return _resolve_target(self.topology, self.basis, self.scale)

    def point(self) -> tuple:
        """This spec as :func:`~repro.core.pipeline.run_point` arguments."""
        return (
            self.workload,
            self.size,
            self.resolve_target(),
            self.seed,
            self.layout,
            self.routing,
            self.optimization_level,
        )


def parse_transpile_request(payload: Any) -> List[PointSpec]:
    """Validate a ``/v1/transpile`` body (single point or ``{"points": []}``)."""
    _require(isinstance(payload, dict), "request body must be a JSON object")
    if "points" in payload:
        points = payload["points"]
        _require(isinstance(points, list) and points, "'points' must be a non-empty list")
        _require(
            len(points) <= MAX_POINTS_PER_REQUEST,
            f"at most {MAX_POINTS_PER_REQUEST} points per request",
        )
        specs = [PointSpec.from_payload(point) for point in points]
    else:
        specs = [PointSpec.from_payload(payload)]
    for spec in specs:
        # A bad name or a width the device cannot hold is a 400 now, not a
        # 500 from the queue.  Parsing runs on the event loop, so nothing is
        # built: a width the builder rejects is a 400 when the job raises.
        target = spec.resolve_target()
        _require(
            spec.size <= target.num_qubits,
            f"a {spec.size}-qubit workload does not fit topology "
            f"{spec.topology!r}, which has {target.num_qubits} qubits at "
            f"scale {spec.scale!r}",
        )
    return specs


@dataclass(frozen=True)
class SweepRequest:
    """One validated ``/v1/sweep`` request.

    The grid is kept in one form, ``workloads x sizes x targets`` plus the
    options every point shares, and ``count`` is its number of points,
    counted at parse time without building it.  The job builds the grid
    once: :attr:`points` expands it through
    :func:`repro.core.pipeline.sweep_grid`.
    """

    workloads: List[str]
    sizes: List[int]
    targets: List[Target]
    count: int
    chunk_size: int
    optimization_level: int = 1
    layout: Optional[str] = None
    routing: Optional[str] = None
    seed: int = 0

    @property
    def points(self) -> List[tuple]:
        """The grid's :func:`~repro.core.pipeline.run_point` arguments, in order."""
        options = (self.seed, self.layout, self.routing, self.optimization_level)
        grid = sweep_grid(self.workloads, self.sizes, self.targets)
        return [(*cell, *options) for cell in grid]


def parse_sweep_request(payload: Any) -> SweepRequest:
    """Validate a ``/v1/sweep`` body into a :class:`SweepRequest`.

    The grid is the cross product ``workloads x sizes x targets`` in
    canonical order (the same nested-loop order as
    :func:`repro.core.pipeline.sweep_grid`), with sizes wider than a
    target skipped.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    known = {
        "workloads",
        "sizes",
        "targets",
        "scale",
        "level",
        "layout",
        "routing",
        "seed",
        "chunk_size",
    }
    unknown = sorted(set(payload) - known)
    _require(not unknown, f"unknown sweep fields: {unknown}")
    for name in ("workloads", "sizes", "targets"):
        _require(
            isinstance(payload.get(name), list) and payload[name],
            f"'{name}' must be a non-empty list",
        )
    chunk_size = _as_int(payload.get("chunk_size", DEFAULT_CHUNK_SIZE), "chunk_size")
    _require(chunk_size >= 1, "'chunk_size' must be at least 1")
    # An explicit null option means its default, as an absent one does.
    options = _options({key: value for key, value in payload.items() if value is not None})
    scale = options.pop("scale")
    targets = []
    for entry in payload["targets"]:
        _require(
            isinstance(entry, dict) and "topology" in entry,
            "each target must be an object with at least 'topology'",
        )
        spec = dict(entry)
        topology = spec.pop("topology")
        basis = spec.pop("basis", "siswap")
        _require(not spec, f"unknown target fields: {sorted(spec)}")
        targets.append(_resolve_target(str(topology), str(basis), scale))
    workloads = [_workload(workload) for workload in payload["workloads"]]
    sizes = [_size(size) for size in payload["sizes"]]
    # Parsing runs on the event loop, so the grid is counted, not built:
    # every workload runs each size that fits each target.
    count = len(workloads) * sum(
        sum(size <= target.num_qubits for size in sizes) for target in targets
    )
    _require(count > 0, "sweep grid is empty (every size exceeds its target)")
    _require(
        count <= MAX_POINTS_PER_REQUEST,
        f"at most {MAX_POINTS_PER_REQUEST} points per request",
    )
    return SweepRequest(
        workloads=workloads,
        sizes=sizes,
        targets=targets,
        count=count,
        chunk_size=chunk_size,
        **options,
    )


# -- execution ----------------------------------------------------------------


def stats_snapshot(cache: Optional[Any]) -> Optional[Dict[str, int]]:
    """The cache's counters as a JSON-ready dict (``None`` when uncached)."""
    if cache is None:
        return None
    stats = cache.stats()
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "disk_hits": stats.disk_hits,
        "disk_misses": stats.disk_misses,
        "computed": stats.computed,
        "currsize": stats.currsize,
        "maxsize": stats.maxsize,
    }


def stats_delta(
    before: Optional[Dict[str, int]], after: Optional[Dict[str, int]]
) -> Optional[Dict[str, int]]:
    """Per-request cache counters (cumulative ``after`` minus ``before``)."""
    if before is None or after is None:
        return None
    delta = {
        key: after[key] - before[key]
        for key in ("hits", "misses", "disk_hits", "disk_misses", "computed")
    }
    delta["currsize"] = after["currsize"]
    delta["maxsize"] = after["maxsize"]
    return delta


def run_transpile_job(specs: Sequence[PointSpec], runner: Any) -> Dict[str, Any]:
    """The ``/v1/transpile`` work item: execute and package one response body.

    Points go through :func:`repro.core.pipeline.map_points` on the
    resident runner, exactly as CLI sweeps do, so server requests and CLI
    sweeps share cache records for identical points.  A point the
    runner's failure policy quarantines raises
    :class:`~repro.runtime.runner.PoisonTaskError`, which the server
    answers with 500.
    """
    cache = runner.result_cache
    before = stats_snapshot(cache)
    start = time.perf_counter()
    records = map_points([spec.point() for spec in specs], runner)
    results = [metrics.as_dict() for metrics in records]
    return {
        "results": results,
        "count": len(results),
        "elapsed_seconds": round(time.perf_counter() - start, 6),
        "cache": stats_delta(before, stats_snapshot(cache)),
    }


def run_sweep_job(
    points: Sequence[tuple],
    chunk_size: int,
    runner: Any,
    emit: Callable[[Dict[str, Any]], None],
) -> int:
    """The ``/v1/sweep`` work item: execute chunk by chunk, streaming lines.

    ``emit`` receives one ``{"type": "start"}`` line, one
    ``{"type": "progress"}`` line per completed chunk and a final
    ``{"type": "result"}`` line carrying every record, the
    ``failed_points`` the runner's failure policy quarantined (each a
    ``{"label": ...}``, as in :class:`~repro.core.pipeline.SweepResult`)
    and the per-request cache delta.  Each chunk is one
    :func:`~repro.core.pipeline.map_points` call, so its records are in
    the result cache when its progress line goes out: a crash loses at
    most the running chunk, and re-POSTing the body to a server on the
    same cache directory recomputes only what is missing.  Returns the
    number of records.
    """
    cache = runner.result_cache
    before = stats_snapshot(cache)
    start = time.perf_counter()
    chunks = [points[i : i + chunk_size] for i in range(0, len(points), chunk_size)]
    emit({"type": "start", "total": len(points), "chunks": len(chunks)})
    records: List[Dict[str, Any]] = []
    failed_points: List[Dict[str, str]] = []
    completed = 0
    for chunk in chunks:
        chunk_start = time.perf_counter()
        try:
            chunk_records = map_points(chunk, runner)
        except PoisonTaskError as error:
            # The stream goes on without the quarantined points.
            chunk_records = error.results
        for point, metrics in zip(chunk, chunk_records):
            if metrics is None:
                failed_points.append({"label": point_label(point)})
            else:
                records.append(metrics.as_dict())
        completed += len(chunk)
        emit(
            {
                "type": "progress",
                "completed": completed,
                "total": len(points),
                "chunk_seconds": round(time.perf_counter() - chunk_start, 6),
            }
        )
    emit(
        {
            "type": "result",
            "records": records,
            "count": len(records),
            "failed_points": failed_points,
            "elapsed_seconds": round(time.perf_counter() - start, 6),
            "cache": stats_delta(before, stats_snapshot(cache)),
        }
    )
    return len(records)
