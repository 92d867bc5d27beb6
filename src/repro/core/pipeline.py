"""Sweep runner: transpile workload grids over design points, collect metrics.

This is the programmatic equivalent of the paper's experimental flow
(Fig. 10) applied over a grid of circuit sizes, workloads and design
points; the experiment modules in :mod:`repro.experiments` are thin
wrappers that pick the grids matching each figure.  Design points are
:class:`~repro.transpiler.target.Target` objects, and the transpiler
configuration — layout / routing pass names and the staged
``optimization_level`` — is threaded through every point and into the
result-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.transpiler.compile import transpile
from repro.transpiler.metrics import TranspileMetrics
from repro.transpiler.target import Target
from repro.workloads.registry import build_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runner import ExperimentRunner


@dataclass
class SweepResult:
    """A flat collection of per-point metrics with grouping helpers.

    ``failed_points`` names the points that were quarantined/skipped by
    the runner's failure policy instead of producing a record (each entry
    at least carries a ``label``); a fault-free sweep leaves it empty.
    """

    records: List[TranspileMetrics] = field(default_factory=list)
    failed_points: List[Dict[str, object]] = field(default_factory=list)

    def add(self, metrics: TranspileMetrics) -> None:
        """Append one measurement."""
        self.records.append(metrics)

    def filter(self, **criteria) -> "SweepResult":
        """Records whose fields match all keyword criteria.

        Matching goes through ``record.as_dict()`` — exactly like
        :meth:`series` and :meth:`average` — so flattened ``extra`` fields
        (``workload``, ``backend``, ``duration_ns``, ...) are filterable
        too, not only dataclass attributes.
        """
        selected = []
        for record in self.records:
            data = record.as_dict()
            if all(data.get(key) == value for key, value in criteria.items()):
                selected.append(record)
        return SweepResult(selected)

    def series(self, group_by: str, x_field: str, y_field: str) -> Dict[str, List[tuple]]:
        """Build plot-ready series: ``{group: [(x, y), ...]}`` sorted by x."""
        series: Dict[str, List[tuple]] = {}
        for record in self.records:
            data = record.as_dict()
            series.setdefault(str(data[group_by]), []).append(
                (data[x_field], data[y_field])
            )
        return {key: sorted(values) for key, values in series.items()}

    def average(self, y_field: str, **criteria) -> float:
        """Mean of a metric over the matching records."""
        matching = self.filter(**criteria).records
        if not matching:
            raise ValueError(f"no records match {criteria!r}")
        values = [record.as_dict()[y_field] for record in matching]
        return float(sum(values) / len(values))

    def as_dicts(self) -> List[Dict[str, object]]:
        """All records as flat dictionaries."""
        return [record.as_dict() for record in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def run_point(
    workload: str,
    num_qubits: int,
    target: Target,
    seed: int = 0,
    layout_method: Optional[str] = None,
    routing_method: Optional[str] = None,
    optimization_level: int = 1,
) -> TranspileMetrics:
    """Transpile one workload instance onto one design point, return metrics.

    ``layout_method`` / ``routing_method`` default to the level preset
    (dense + SABRE at the paper's level 1).
    """
    circuit = build_workload(workload, num_qubits, seed=seed)
    result = transpile(
        circuit,
        target,
        layout_method=layout_method,
        routing_method=routing_method,
        seed=seed,
        optimization_level=optimization_level,
    )
    metrics = result.metrics
    metrics.extra["workload"] = workload
    metrics.extra["backend"] = target.name
    return metrics


def sweep_grid(
    workloads: Sequence[str], sizes: Sequence[int], targets: Sequence[Target]
) -> List[tuple]:
    """The (workload, size, target) points of a sweep, in canonical order.

    Widths larger than a design point are skipped, exactly as the serial
    loop always did; the order is the iteration order of the nested loops
    so parallel and serial execution collect records identically.
    """
    return [
        (workload, size, target)
        for workload in workloads
        for size in sizes
        for target in targets
        if size <= target.num_qubits
    ]


def point_label(point: tuple) -> str:
    """The ``W-N on T`` status label of one :func:`run_point` argument tuple."""
    workload, num_qubits, target = point[:3]
    return f"{workload}-{num_qubits} on {target.name}"


def map_points(
    points: Sequence[tuple],
    runner: Optional["ExperimentRunner"] = None,
    progress: Optional[callable] = None,
) -> List[Optional[TranspileMetrics]]:
    """Run :func:`run_point` over argument tuples, returning records in order.

    The one place a compilation point becomes a runner task: sweep
    chunks, seed sweeps and server requests all dispatch through here,
    keyed by :func:`~repro.runtime.cache.point_cache_key` when the runner
    caches, so identical points share cache records.
    ``progress`` receives the :func:`point_label` of every point the
    runner dispatches, before it compiles (cache hits are not announced).
    ``runner=None`` runs serially, uncached.  A point quarantined by the
    runner's failure policy yields ``None``.
    """
    if runner is None:
        # Imported lazily so the core layer has no import-time dependency
        # on the runtime package (which itself builds on core).
        from repro.runtime.runner import serial_runner

        runner = serial_runner()
    keys = None
    if runner.result_cache is not None:
        from repro.runtime.cache import point_cache_key

        keys = [point_cache_key(*point) for point in points]
    labels = [point_label(point) for point in points]
    return runner.map(run_point, points, keys=keys, labels=labels, progress=progress)


#: Points per ``map`` call of :func:`run_sweep`: the most a killed sweep on
#: a persistent result cache can lose.
SWEEP_CHUNK_POINTS = 256


def run_sweep(
    workloads: Sequence[str],
    sizes: Sequence[int],
    targets: Iterable[Target],
    seed: int = 0,
    layout_method: Optional[str] = None,
    routing_method: Optional[str] = None,
    optimization_level: int = 1,
    progress: Optional[callable] = None,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Run the full (workload x size x design point) grid.

    Args:
        workloads: workload names from :mod:`repro.workloads.registry`.
        sizes: circuit widths; widths larger than a design point are
            skipped.
        targets: design points to evaluate (:class:`Target` objects).
        seed: base RNG seed (shared across the grid so that identical
            circuits are compared across design points).
        layout_method / routing_method: registry pass names (``None``
            defers to the level preset).
        optimization_level: staged-pipeline preset (0..3); level 1 is the
            paper's flow.
        progress: optional callable invoked with a status string per point.
        runner: optional :class:`repro.runtime.ExperimentRunner`; when
            given, points are executed through it (process-pool fan-out
            and/or result caching) with ordered collection, so the returned
            records are identical to the serial loop's.

    The grid is mapped in chunks of :data:`SWEEP_CHUNK_POINTS` consecutive
    points through the one runner, so a runner with a persistent cache
    stores each chunk as it finishes: a rerun of a killed sweep on the
    same cache directory recomputes only the missing points, and a point
    quarantined by the failure policy is never stored, so any rerun
    retries it.
    """
    options = (seed, layout_method, routing_method, optimization_level)
    grid = sweep_grid(list(workloads), list(sizes), list(targets))
    points = [(*cell, *options) for cell in grid]
    if runner is None:
        # One runner for every chunk: fault plans schedule against its
        # dispatch ordinals, which must not restart per chunk.
        from repro.runtime.runner import serial_runner

        runner = serial_runner()
    result = SweepResult()
    for base in range(0, len(points), SWEEP_CHUNK_POINTS):
        chunk = points[base : base + SWEEP_CHUNK_POINTS]
        for point, record in zip(chunk, map_points(chunk, runner, progress)):
            if record is None:
                # Quarantined under the runner's failure policy: the sweep
                # completes without the point instead of dying with it.
                result.failed_points.append({"label": point_label(point)})
            else:
                result.add(record)
    return result
