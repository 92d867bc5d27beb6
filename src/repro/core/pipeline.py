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
    """
    points = sweep_grid(list(workloads), list(sizes), list(targets))
    labels = [f"{w}-{s} on {t.name}" for w, s, t in points]
    if runner is None:
        # Imported lazily so the core layer has no import-time dependency
        # on the runtime package (which itself builds on core).
        from repro.runtime.runner import serial_runner

        runner = serial_runner()
    tasks = [
        (workload, size, target, seed, layout_method, routing_method, optimization_level)
        for workload, size, target in points
    ]
    keys = None
    if runner.result_cache is not None:
        from repro.runtime.cache import point_cache_key

        keys = [
            point_cache_key(
                w, s, t, seed, layout_method, routing_method, optimization_level
            )
            for w, s, t in points
        ]
    result = SweepResult()
    records = runner.map(run_point, tasks, keys=keys, labels=labels, progress=progress)
    for label, record in zip(labels, records):
        if record is None:
            # Quarantined under the runner's failure policy: the sweep
            # completes without the point instead of dying with it.
            result.failed_points.append({"label": label})
        else:
            result.add(record)
    return result


def sweep_spec_digest(
    workloads: Sequence[str],
    sizes: Sequence[int],
    targets: Sequence[Target],
    seed: int,
    layout_method: Optional[str],
    routing_method: Optional[str],
    optimization_level: int,
) -> str:
    """Content digest of a full sweep specification.

    Two invocations describing the same sweep — same workloads, sizes,
    design points (by their cache identity, which includes topology and
    noise model), seed and transpiler configuration — digest identically
    across processes, so a checkpoint written by one run is recognized by
    its resume.
    """
    from repro.runtime import key_digest

    return key_digest(
        (
            tuple(workloads),
            tuple(int(size) for size in sizes),
            tuple(target.cache_key() for target in targets),
            int(seed),
            layout_method,
            routing_method,
            int(optimization_level),
        )
    )


def run_sweep_sharded(
    workloads: Sequence[str],
    sizes: Sequence[int],
    targets: Iterable[Target],
    checkpoint_dir,
    seed: int = 0,
    layout_method: Optional[str] = None,
    routing_method: Optional[str] = None,
    optimization_level: int = 1,
    shard_points: int = 256,
    resume: bool = True,
    progress: Optional[callable] = None,
    shard_progress: Optional[callable] = None,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Run a sweep as deterministic shards with checkpoint/resume.

    The grid is split into contiguous shards of ``shard_points`` points
    (canonical :func:`sweep_grid` order), each persisted to
    ``checkpoint_dir`` the moment it completes.  A rerun over the same
    specification recomputes only the missing shards — a crashed or
    killed sweep resumes where it stopped, and a finished sweep replays
    entirely from the checkpoint.  The returned :class:`SweepResult` is
    record-for-record identical to :func:`run_sweep` over the same
    arguments.

    Args:
        checkpoint_dir: directory for the shard manifest and shard files
            (created if missing).
        shard_points: points per shard — the granularity of loss on a
            crash and of progress reporting.
        resume: continue an existing checkpoint.  When False, an existing
            manifest raises instead of silently recomputing or mixing —
            pass ``resume=True`` or point at a fresh directory.
        shard_progress: optional callable invoked as
            ``shard_progress(index, num_shards, status, points)`` after
            each shard, with ``status`` one of ``"restored"`` /
            ``"computed"`` / ``"retried"`` (a restored shard whose
            recorded failed points were recomputed).
        (The remaining arguments match :func:`run_sweep`.)

    Raises:
        repro.runtime.checkpoint.CheckpointMismatch: the directory
            checkpoints a different sweep, or ``resume=False`` found an
            existing checkpoint.
    """
    from repro.runtime.checkpoint import CheckpointMismatch, SweepCheckpoint

    targets = list(targets)
    workloads = list(workloads)
    sizes = list(sizes)
    points = sweep_grid(workloads, sizes, targets)
    digest = sweep_spec_digest(
        workloads,
        sizes,
        targets,
        seed,
        layout_method,
        routing_method,
        optimization_level,
    )
    checkpoint = SweepCheckpoint(checkpoint_dir)
    if not resume and checkpoint.exists():
        raise CheckpointMismatch(
            f"checkpoint at {checkpoint.directory} already exists; resume it "
            "or choose a fresh directory"
        )
    checkpoint.initialize(digest, len(points), shard_points)
    shard_points = checkpoint.manifest["shard_points"]

    if runner is None:
        from repro.runtime.runner import serial_runner

        runner = serial_runner()
    def _map_points(chunk_points):
        labels = [f"{w}-{s} on {t.name}" for w, s, t in chunk_points]
        tasks = [
            (w, s, t, seed, layout_method, routing_method, optimization_level)
            for w, s, t in chunk_points
        ]
        keys = None
        if runner.result_cache is not None:
            from repro.runtime.cache import point_cache_key

            keys = [
                point_cache_key(
                    w, s, t, seed, layout_method, routing_method, optimization_level
                )
                for w, s, t in chunk_points
            ]
        return runner.map(
            run_point, tasks, keys=keys, labels=labels, progress=progress
        )

    completed = checkpoint.completed_shards() if resume else set()
    result = SweepResult()
    for index in range(checkpoint.num_shards):
        base = index * shard_points
        chunk = points[base : base + shard_points]
        records = None
        if index in completed:
            records = checkpoint.load_shard(index)
            if records is not None and len(records) != len(chunk):
                records = None  # stale/corrupt shard: recompute it
        status = "restored"
        if records is None:
            status = "computed"
            records = _map_points(chunk)
            checkpoint.store_shard(index, records)
        elif any(record is None for record in records):
            # A restored shard with quarantined holes: the successful
            # points survive untouched, only the recorded failed points
            # are retried.
            status = "retried"
            holes = [pos for pos, record in enumerate(records) if record is None]
            retried = _map_points([chunk[pos] for pos in holes])
            for pos, record in zip(holes, retried):
                records[pos] = record
            checkpoint.store_shard(index, records)
        if status != "restored":
            failures = {
                base + pos: {
                    "shard": index,
                    "label": f"{chunk[pos][0]}-{chunk[pos][1]} on {chunk[pos][2].name}",
                    "reason": "quarantined by the failure policy",
                }
                for pos, record in enumerate(records)
                if record is None
            }
            checkpoint.update_failures(base, base + len(chunk), failures)
        for pos, record in enumerate(records):
            if record is None:
                result.failed_points.append(
                    {
                        "point": base + pos,
                        "shard": index,
                        "label": f"{chunk[pos][0]}-{chunk[pos][1]} on {chunk[pos][2].name}",
                    }
                )
            else:
                result.add(record)
        if shard_progress is not None:
            shard_progress(index, checkpoint.num_shards, status, len(chunk))
    return result
