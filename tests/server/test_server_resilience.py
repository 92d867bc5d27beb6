"""Server resilience: pool self-healing, deadlines and retry hints.

The compilation server must degrade, never die, when its worker pool is
killed out from under it: ``/v1/health`` flips to ``degraded``, the
dispatcher rebuilds the pool before the next job, and the health flips
back.  A point that crashes every worker it touches answers 500 and the
server keeps serving.  Clients get actionable failure semantics — ``deadline_s``
converts an over-budget wait into a 504, 503s carry ``Retry-After``,
and :class:`~repro.server.client.ServeClient` retries transient
refusals/503s with capped backoff.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.server import ServeClient, ServeError, ServerHandle
from repro.server import jobs

pytestmark = [pytest.mark.fast, pytest.mark.chaos]

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestPoolSelfHealing:
    def test_killed_worker_degrades_then_heals(self, tmp_path):
        handle = ServerHandle(
            port=0,
            parallel=True,
            workers=2,
            cache_dir=str(tmp_path / "cache"),
            warmup=True,
        ).start()
        try:
            client = ServeClient(port=handle.port, timeout=120.0)
            runner = handle.server.runner
            assert runner.pool_alive
            health = client.health()
            assert health["status"] == "ok"
            assert health["pool"] == {"alive": True, "broken": False, "restarts": 0}

            # SIGKILL one resident worker; the executor notices and marks
            # the pool broken without any job in flight.
            victim = next(iter(runner._pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            assert _wait_for(lambda: runner.pool_broken)
            assert client.health()["status"] == "degraded"

            # The next job heals the pool instead of answering 500.
            response = client.transpile({"workload": "GHZ", "size": 4})
            assert response["count"] == 1
            health = client.health()
            assert health["status"] == "ok"
            assert health["pool"]["broken"] is False
            assert client.metrics()["pool"]["restarts"] == 1
        finally:
            handle.stop()

    def test_poisoned_point_answers_500_and_the_server_keeps_serving(self):
        """A single point that crashes every worker is quarantined on the pool.

        The two warm-up tasks take dispatch ordinals 0 and 1, so the first
        request's point is ordinal 2.  Its pool crashes, rebuilds and the
        isolated probe are torn down without signalling the server.
        """
        env = dict(os.environ, PYTHONPATH=_SRC, REPRO_FAULT_PLAN="crash@2x*")
        for name in ("REPRO_CACHE_DIR", "REPRO_SERVE_TOKEN"):
            env.pop(name, None)
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--no-cache"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([server.stderr], [], [], 60.0)
            assert ready, "the server printed no banner within 60 s"
            banner = server.stderr.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", banner)
            assert match, banner
            client = ServeClient(port=int(match.group(1)), timeout=120.0)
            with pytest.raises(ServeError) as excinfo:
                client.transpile({"workload": "GHZ", "size": 4})
            assert excinfo.value.status == 500
            assert "GHZ-4 on Corral1,1-siswap" in str(excinfo.value)
            time.sleep(0.5)
            assert client.health()["status"] == "ok"
            assert client.transpile({"workload": "GHZ", "size": 5})["count"] == 1
            client.shutdown()
            stdout, stderr = server.communicate(timeout=60)
            assert server.returncode == 0, stderr
        finally:
            # The server's session also holds its pool workers, which
            # outlive a server that died.
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            server.communicate()

    def test_metrics_expose_fault_stats(self, tmp_path):
        with ServerHandle(
            port=0, parallel=False, cache_dir=str(tmp_path / "cache")
        ) as handle:
            metrics = ServeClient(port=handle.port).metrics()
            assert metrics["faults"] == {
                "retries": 0,
                "timeouts": 0,
                "pool_rebuilds": 0,
                "quarantined": [],
            }
            assert metrics["pool"] is None  # serial server has no pool


class TestDeadlines:
    def test_transpile_deadline_answers_504(self, monkeypatch):
        def slow_job(specs, runner):
            time.sleep(5.0)
            return {"results": [], "count": 0, "elapsed_seconds": 0.0, "cache": None}

        monkeypatch.setattr(jobs, "run_transpile_job", slow_job)
        with ServerHandle(port=0, parallel=False, no_cache=True) as handle:
            client = ServeClient(port=handle.port, timeout=30.0)
            start = time.perf_counter()
            with pytest.raises(ServeError) as excinfo:
                client.transpile({"workload": "GHZ", "size": 4}, deadline_s=0.3)
            assert excinfo.value.status == 504
            assert excinfo.value.retry_after is not None
            assert time.perf_counter() - start < 4.0

    def test_sweep_deadline_surfaces_as_stream_error(self, monkeypatch):
        def slow_sweep(specs, chunk_size, runner, emit):
            emit({"type": "start", "total": len(specs), "chunks": 1})
            time.sleep(5.0)
            emit({"type": "result", "records": [], "count": 0})
            return 0

        monkeypatch.setattr(jobs, "run_sweep_job", slow_sweep)
        with ServerHandle(port=0, parallel=False, no_cache=True) as handle:
            client = ServeClient(port=handle.port, timeout=30.0)
            with pytest.raises(ServeError) as excinfo:
                client.sweep(
                    ["GHZ"],
                    [4],
                    [{"topology": "Corral1,1"}],
                    deadline_s=0.3,
                )
            assert excinfo.value.status == 504
            assert "deadline" in str(excinfo.value)

    @pytest.mark.parametrize("deadline", [-1, float("nan"), float("inf")])
    def test_invalid_deadline_is_400(self, deadline):
        # json sends a float NaN or infinity as a bare NaN/Infinity literal.
        with ServerHandle(port=0, parallel=False, no_cache=True) as handle:
            client = ServeClient(port=handle.port)
            with pytest.raises(ServeError) as excinfo:
                client.transpile({"workload": "GHZ", "size": 4}, deadline_s=deadline)
            assert excinfo.value.status == 400
            with pytest.raises(ServeError) as excinfo:
                client.sweep(
                    ["GHZ"], [4], [{"topology": "Corral1,1"}], deadline_s=deadline
                )
            assert excinfo.value.status == 400
            assert "deadline_s" in str(excinfo.value)


class TestRetryAfter:
    def test_queue_full_503_carries_retry_after(self, monkeypatch):
        release = threading.Event()
        started = threading.Event()

        def blocking_job(specs, runner):
            started.set()
            assert release.wait(timeout=30)
            return {"results": [], "count": 0, "elapsed_seconds": 0.0, "cache": None}

        monkeypatch.setattr(jobs, "run_transpile_job", blocking_job)
        with ServerHandle(port=0, parallel=False, no_cache=True, queue_size=1) as handle:
            point = {"workload": "GHZ", "size": 4}
            outcomes = {}

            def post(name):
                client = ServeClient(port=handle.port, timeout=60.0)
                try:
                    outcomes[name] = client.transpile(point)
                except ServeError as error:
                    outcomes[name] = error

            first = threading.Thread(target=post, args=("first",))
            first.start()
            assert started.wait(timeout=30)
            second = threading.Thread(target=post, args=("second",))
            second.start()
            probe = ServeClient(port=handle.port, timeout=10.0)
            assert _wait_for(lambda: probe.health()["queue_depth"] >= 1)

            # retries=0 exposes the raw 503 instead of waiting it out.
            overflow = ServeClient(port=handle.port, timeout=10.0, retries=0)
            with pytest.raises(ServeError) as excinfo:
                overflow.transpile(point)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 1.0

            release.set()
            first.join(timeout=30)
            second.join(timeout=30)
            assert outcomes["first"]["count"] == 0
            assert outcomes["second"]["count"] == 0


class TestClientRetries:
    def test_refused_connections_are_retried(self, tmp_path):
        with ServerHandle(
            port=0, parallel=False, cache_dir=str(tmp_path / "cache")
        ) as handle:
            client = ServeClient(
                port=handle.port, timeout=30.0, retries=2, retry_backoff=0.01
            )
            attempts = {"n": 0}
            real_open = client._open

            def flaky_open(method, path, payload=None):
                attempts["n"] += 1
                if attempts["n"] <= 2:
                    raise ConnectionRefusedError("simulated restart window")
                return real_open(method, path, payload)

            client._open = flaky_open
            assert client.health()["status"] == "ok"
            assert attempts["n"] == 3

    def test_retries_exhausted_raises_the_refusal(self):
        client = ServeClient(port=1, timeout=1.0, retries=1, retry_backoff=0.01)
        with pytest.raises(ConnectionRefusedError):
            client.health()
