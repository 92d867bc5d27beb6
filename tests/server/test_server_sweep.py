"""Streaming ``/v1/sweep`` behaviour: progress lines, parity, cache reuse."""

from __future__ import annotations

import pytest

import repro.core.pipeline as pipeline
from repro.core.pipeline import run_sweep, sweep_grid
from repro.server import ServeError, jobs
from repro.server.jobs import RequestError, parse_sweep_request
from repro.transpiler.target import Target
from repro.workloads import available_workloads

pytestmark = pytest.mark.fast

TARGETS = [{"topology": "Corral1,1", "basis": "siswap"}]


def test_sweep_streams_start_progress_result(client):
    events = []
    result = client.sweep(
        ["GHZ"], [4, 5, 6], TARGETS, on_progress=events.append, chunk_size=2
    )
    assert result["type"] == "result"
    assert result["count"] == 3
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


def test_sweep_unknown_field_is_400(client):
    with pytest.raises(ServeError) as excinfo:
        client.sweep(["GHZ"], [4], TARGETS, bogus_option=1)
    assert excinfo.value.status == 400


def test_sweep_shares_cache_with_transpile(client):
    client.transpile({"workload": "GHZ", "size": 6})
    result = client.sweep(["GHZ"], [6], TARGETS)
    # The sweep point is identical to the transpile point, so it must be
    # served from the cache rather than recomputed.
    assert result["cache"]["computed"] == 0
    assert result["cache"]["hits"] == 1


class TestCheckpointedSweep:
    def test_run_id_streams_shard_lines(self, client):
        events = []
        result = client.sweep(
            ["GHZ"],
            [4, 5, 6],
            TARGETS,
            on_progress=events.append,
            run_id="run-a",
            shard_points=2,
        )
        assert result["type"] == "result"
        assert result["count"] == 3
        assert result["computed"] == 3
        assert events[0] == {
            "type": "start",
            "total": 3,
            "run_id": "run-a",
            "shards": 2,
        }
        shard_lines = [e for e in events if e["type"] == "shard"]
        assert [e["shard"] for e in shard_lines] == [1, 2]
        assert all(e["status"] == "computed" for e in shard_lines)
        assert [e["points"] for e in shard_lines] == [2, 1]

    def test_repost_restores_from_checkpoint(self, client):
        cold = client.sweep(
            ["GHZ"], [4, 5], TARGETS, run_id="run-b", shard_points=1
        )
        assert cold["computed"] == 2
        events = []
        warm = client.sweep(
            ["GHZ"],
            [4, 5],
            TARGETS,
            on_progress=events.append,
            run_id="run-b",
            shard_points=1,
        )
        assert warm["computed"] == 0
        statuses = [e["status"] for e in events if e["type"] == "shard"]
        assert statuses == ["restored", "restored"]
        assert warm["records"] == cold["records"]

    def test_checkpoints_live_under_the_cache_dir(self, client, live_server):
        client.sweep(["GHZ"], [4], TARGETS, run_id="run-c", shard_points=1)
        cache_dir = live_server.server.runner.result_cache.cache_dir
        checkpoint = cache_dir / "checkpoints" / "run-c"
        assert (checkpoint / "manifest.json").is_file()
        assert sorted(p.name for p in checkpoint.glob("shard-*.rsd")) == [
            "shard-00000.rsd"
        ]

    def test_different_spec_same_run_id_is_refused(self, client):
        client.sweep(["GHZ"], [4], TARGETS, run_id="run-d")
        with pytest.raises(ServeError):
            client.sweep(["GHZ"], [5], TARGETS, run_id="run-d")

    @pytest.mark.parametrize("run_id", ["", "../escape", "a/b", "x" * 65])
    def test_bad_run_id_is_400(self, client, run_id):
        with pytest.raises(ServeError) as excinfo:
            client.sweep(["GHZ"], [4], TARGETS, run_id=run_id)
        assert excinfo.value.status == 400

    def test_shard_points_without_run_id_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.sweep(["GHZ"], [4], TARGETS, shard_points=2)
        assert excinfo.value.status == 400

    def test_run_id_without_persistent_cache_is_400(self):
        from repro.server import ServeClient, ServerHandle

        with ServerHandle(port=0, parallel=False) as handle:
            bare = ServeClient(port=handle.port, timeout=30.0)
            with pytest.raises(ServeError) as excinfo:
                bare.sweep(["GHZ"], [4], TARGETS, run_id="run-e")
            assert excinfo.value.status == 400
            assert "persistent cache" in str(excinfo.value)


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

    def test_run_id_sweep_builds_the_grid_once(self, client, grid_calls):
        result = client.sweep(["GHZ"], [4, 5], TARGETS, run_id="run-once")
        assert result["count"] == 2
        assert len(grid_calls) == 1
