"""Graceful drain and queue backpressure."""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.server import ServeClient, ServeError, ServerHandle
from repro.server import jobs

pytestmark = pytest.mark.fast


def test_shutdown_drains_in_flight_stream(tmp_path):
    """A sweep already streaming when shutdown arrives still completes."""
    handle = ServerHandle(
        port=0, parallel=False, cache_dir=str(tmp_path / "cache")
    ).start()
    try:
        connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        body = json.dumps(
            {
                "workloads": ["GHZ"],
                "sizes": [4, 5, 6],
                "targets": [{"topology": "Corral1,1"}],
                "chunk_size": 1,
            }
        ).encode()
        connection.request(
            "POST", "/v1/sweep", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        assert response.status == 200
        first = json.loads(response.readline())
        assert first["type"] == "start"

        # The stream is in flight: ask for shutdown from a second client.
        control = ServeClient(port=handle.port, timeout=10.0)
        assert control.shutdown() == {"status": "draining"}

        # The drain must deliver the rest of the stream, result included.
        events = [json.loads(line) for line in iter(response.readline, b"") if line.strip()]
        response.close()
        assert events[-1]["type"] == "result"
        assert events[-1]["count"] == 3
    finally:
        handle.stop()

    # After the drain the socket is gone.
    with pytest.raises(OSError):
        http.client.HTTPConnection("127.0.0.1", handle.port, timeout=2).request(
            "GET", "/v1/health"
        )


def test_queue_full_answers_503(monkeypatch):
    """With the one dispatcher slot busy and the queue full, reject with 503."""
    release = threading.Event()
    started = threading.Event()

    def blocking_job(specs, runner):
        started.set()
        assert release.wait(timeout=30)
        return {"results": [], "count": 0, "elapsed_seconds": 0.0, "cache": None}

    monkeypatch.setattr(jobs, "run_transpile_job", blocking_job)

    with ServerHandle(port=0, parallel=False, no_cache=True, queue_size=1) as handle:
        point = {"workload": "GHZ", "size": 4}
        results = {}

        def post(name):
            client = ServeClient(port=handle.port, timeout=60.0)
            try:
                results[name] = client.transpile(point)
            except ServeError as error:
                results[name] = error

        # First request occupies the dispatcher (blocked inside the job)...
        first = threading.Thread(target=post, args=("first",))
        first.start()
        assert started.wait(timeout=30)
        # ...second parks in the queue's single slot...
        second = threading.Thread(target=post, args=("second",))
        second.start()
        probe = ServeClient(port=handle.port, timeout=10.0)
        for _ in range(200):
            if probe.health()["queue_depth"] >= 1:
                break
            time.sleep(0.01)
        assert probe.health()["queue_depth"] == 1
        # ...so a third is rejected immediately with 503.
        overflow = ServeClient(port=handle.port, timeout=10.0)
        with pytest.raises(ServeError) as excinfo:
            overflow.transpile(point)
        assert excinfo.value.status == 503

        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert results["first"]["count"] == 0
        assert results["second"]["count"] == 0


def test_shutdown_closes_the_pool_and_the_cache(tmp_path, monkeypatch):
    """The drain closes the resident cache after the runner's pool."""
    from repro.runtime import PersistentResultCache

    closed = []
    close_cache = PersistentResultCache.close

    def spy_close(cache):
        closed.append(cache)
        close_cache(cache)

    monkeypatch.setattr(PersistentResultCache, "close", spy_close)
    with ServerHandle(
        port=0, parallel=True, workers=2, warmup=True, cache_dir=str(tmp_path / "cache")
    ) as handle:
        runner = handle.server.runner
        assert runner.pool_alive
    assert not runner.pool_alive
    assert any(cache is runner.result_cache for cache in closed)
