"""Streaming ``/v1/sweep`` behaviour: progress lines, parity, cache reuse."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.pipeline as pipeline
from repro.core.pipeline import run_sweep, sweep_grid
from repro.runtime import (
    PersistentResultCache,
    PoisonTaskError,
    collect_garbage,
    serial_runner,
)
from repro.server import ServeClient, ServeError, ServerHandle, jobs
from repro.server.jobs import RequestError, parse_sweep_request
from repro.transpiler.target import Target
from repro.workloads import available_workloads

pytestmark = pytest.mark.fast

TARGETS = [{"topology": "Corral1,1", "basis": "siswap"}]

#: The GHZ 4/5/6 sweep body the resume tests send.
SWEEP = {"workloads": ["GHZ"], "sizes": [4, 5, 6], "targets": TARGETS}

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_sweep_streams_start_progress_result(client):
    events = []
    result = client.sweep(
        ["GHZ"], [4, 5, 6], TARGETS, on_progress=events.append, chunk_size=2
    )
    assert result["type"] == "result"
    assert result["count"] == 3
    assert result["failed_points"] == []
    assert [e["type"] for e in events] == ["start", "progress", "progress"]
    assert events[0] == {"type": "start", "total": 3, "chunks": 2}
    assert [e["completed"] for e in events[1:]] == [2, 3]
    assert all(e["total"] == 3 for e in events[1:])
    assert all(e["chunk_seconds"] >= 0 for e in events[1:])


def test_sweep_records_match_direct_run_sweep(client):
    result = client.sweep(["GHZ"], [4, 6], TARGETS)
    target = Target.from_names(
        "Corral1,1", "siswap", scale="small", name="Corral1,1-siswap"
    )
    direct = run_sweep(["GHZ"], [4, 6], [target])
    assert result["records"] == [record.as_dict() for record in direct.records]


def test_sweep_warm_repeat_is_all_hits(client):
    cold = client.sweep(["GHZ"], [4, 5], TARGETS)
    assert cold["cache"]["computed"] == 2
    warm = client.sweep(["GHZ"], [4, 5], TARGETS)
    assert warm["cache"]["computed"] == 0
    assert warm["cache"]["hits"] == 2
    assert warm["records"] == cold["records"]


def test_sweep_skips_sizes_wider_than_target(client):
    # The small Corral1,1 target has a finite qubit count; an absurd width
    # is silently dropped from the grid, exactly like run_sweep's grid.
    result = client.sweep(["GHZ"], [4, 10_000], TARGETS)
    assert result["count"] == 1
    assert result["records"][0]["circuit_qubits"] == 4


def test_sweep_empty_grid_is_400(client):
    with pytest.raises(ServeError) as excinfo:
        client.sweep(["GHZ"], [10_000], TARGETS)
    assert excinfo.value.status == 400


def test_sweep_reports_a_width_the_builder_rejects_in_band(client):
    # The grid is checked without building circuits, so the adder's own
    # minimum surfaces from the job as the stream's error line.
    with pytest.raises(ServeError) as excinfo:
        client.sweep(["Adder"], [2], TARGETS)
    assert excinfo.value.payload["type"] == "error"
    assert "four qubits" in excinfo.value.payload["error"]


@pytest.mark.parametrize("seed", [-1, True])
def test_sweep_bad_seed_is_400(client, seed):
    with pytest.raises(ServeError) as excinfo:
        client.sweep(["GHZ"], [4], TARGETS, seed=seed)
    assert excinfo.value.status == 400


@pytest.mark.parametrize(
    "name, value", [("bogus_option", 1), ("run_id", "run-a"), ("shard_points", 2)]
)
def test_sweep_unknown_field_is_400(client, name, value):
    with pytest.raises(ServeError) as excinfo:
        client.sweep(["GHZ"], [4], TARGETS, **{name: value})
    assert excinfo.value.status == 400
    assert f"unknown sweep fields: [{name!r}]" in str(excinfo.value)


def test_sweep_shares_cache_with_transpile(client):
    client.transpile({"workload": "GHZ", "size": 6})
    result = client.sweep(["GHZ"], [6], TARGETS)
    # The sweep point is identical to the transpile point, so it must be
    # served from the cache rather than recomputed.
    assert result["cache"]["computed"] == 0
    assert result["cache"]["hits"] == 1


class _QuarantiningRunner:
    """A serial, uncached runner whose failure policy quarantines GHZ-5."""

    result_cache = None

    def map(self, fn, tasks, keys=None, labels=None, progress=None):
        results = [None if task[1] == 5 else fn(*task) for task in tasks]
        if None in results:
            raise PoisonTaskError(["GHZ-5 on Corral1,1-siswap (injected)"], results)
        return results


def test_quarantined_point_is_listed_not_fatal():
    lines = []
    points = parse_sweep_request(dict(SWEEP)).points
    assert jobs.run_sweep_job(points, 2, _QuarantiningRunner(), lines.append) == 2
    assert [line["type"] for line in lines] == ["start", "progress", "progress", "result"]
    result = lines[-1]
    assert result["failed_points"] == [{"label": "GHZ-5 on Corral1,1-siswap"}]
    assert result["count"] == 2
    assert [record["circuit_qubits"] for record in result["records"]] == [4, 6]


class TestResumeFromCache:
    """A re-POST to a server on the same cache directory is the resume."""

    def test_restarted_server_resumes_from_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"

        def sweep_on_a_fresh_server():
            with ServerHandle(port=0, parallel=False, cache_dir=str(cache_dir)) as handle:
                client = ServeClient(port=handle.port, timeout=30.0)
                return client.sweep(SWEEP["workloads"], SWEEP["sizes"], TARGETS)

        first = sweep_on_a_fresh_server()
        assert first["cache"]["computed"] == 3
        second = sweep_on_a_fresh_server()
        assert second["cache"]["computed"] == 0
        assert second["cache"]["disk_hits"] == 3
        assert second["records"] == first["records"]
        # The cache is the only copy: once GC evicts it, nothing is left.
        collect_garbage(cache_dir, max_bytes=0, compact=True)
        assert sweep_on_a_fresh_server()["cache"]["computed"] == 3
        assert not (cache_dir / "checkpoints").exists()

    def test_sigkilled_sweep_keeps_its_finished_chunks(self, tmp_path):
        cache_dir = tmp_path / "cache"
        script = f"""
import os, signal
from repro.runtime import PersistentResultCache, serial_runner
from repro.server import jobs

def die_at_first_progress(line):
    if line["type"] == "progress":
        os.kill(os.getpid(), signal.SIGKILL)

points = jobs.parse_sweep_request({SWEEP!r}).points
runner = serial_runner(PersistentResultCache({str(cache_dir)!r}))
jobs.run_sweep_job(points, 1, runner, die_at_first_progress)
"""
        env = dict(os.environ, PYTHONPATH=_SRC)
        env.pop("REPRO_CACHE_DIR", None)
        process = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
        )
        assert process.returncode == -signal.SIGKILL, process.stderr
        # The first chunk's record reached the cache before its progress line.
        lines = []
        cache = PersistentResultCache(cache_dir)
        try:
            points = parse_sweep_request(dict(SWEEP)).points
            jobs.run_sweep_job(points, 1, serial_runner(cache), lines.append)
        finally:
            cache.close()
        result = lines[-1]
        assert result["cache"]["computed"] == 2
        assert result["cache"]["disk_hits"] == 1
        target = Target.from_names(
            "Corral1,1", "siswap", scale="small", name="Corral1,1-siswap"
        )
        direct = run_sweep(["GHZ"], [4, 5, 6], [target])
        assert result["records"] == [record.as_dict() for record in direct.records]


class TestGridBuiltOnce:
    """Parsing counts the grid; each job builds it once, off the event loop."""

    @pytest.fixture
    def grid_calls(self, monkeypatch):
        calls = []

        def counting_sweep_grid(*args):
            calls.append(args)
            return sweep_grid(*args)

        monkeypatch.setattr(jobs, "sweep_grid", counting_sweep_grid)
        monkeypatch.setattr(pipeline, "sweep_grid", counting_sweep_grid)
        return calls

    def test_parsing_a_large_grid_builds_nothing(self, grid_calls):
        request = parse_sweep_request(
            {
                "workloads": available_workloads(),
                "sizes": list(range(1, 2001)),
                "targets": TARGETS * 20,
            }
        )
        # 9 workloads x 20 targets x the 16 sizes that fit each target.
        assert request.count == 2880
        assert grid_calls == []

    def test_oversized_and_empty_grids_keep_their_messages(self, grid_calls):
        with pytest.raises(RequestError) as oversized:
            parse_sweep_request(
                {"workloads": ["GHZ"], "sizes": [4] * 4097, "targets": TARGETS}
            )
        assert oversized.value.status == 400
        assert str(oversized.value) == "at most 4096 points per request"
        with pytest.raises(RequestError) as empty:
            parse_sweep_request(
                {"workloads": ["GHZ"], "sizes": [10_000], "targets": TARGETS}
            )
        assert empty.value.status == 400
        assert str(empty.value) == (
            "sweep grid is empty (every size exceeds its target)"
        )
        assert grid_calls == []

    def test_streamed_sweep_builds_the_grid_once(self, client, grid_calls):
        result = client.sweep(["GHZ"], [4, 5], TARGETS)
        assert result["count"] == 2
        assert len(grid_calls) == 1
