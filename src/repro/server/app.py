"""Persistent asyncio compilation server (``repro serve``).

Every one-shot CLI invocation pays interpreter startup, module imports,
worker-pool spawn and memory-LRU warmup before the fast hot paths run.
This server pays those costs once: a resident
:class:`~repro.runtime.runner.ExperimentRunner` (warm process pool) and a
resident result cache (shared :class:`~repro.runtime.disk_cache.
PersistentResultCache` when ``--cache-dir`` is given) serve every request
of the process lifetime.  See ``docs/architecture.md`` for the one-shot
vs. server comparison and ``docs/api.md`` for the HTTP API reference.

Design notes:

* **Transport** — JSON over HTTP/1.1 on stdlib ``asyncio`` streams; no
  third-party web framework, no new runtime dependencies.  Connections
  are one-request (``Connection: close``); ``/v1/sweep`` responses stream
  newline-delimited JSON progress lines via chunked transfer encoding.
* **Concurrency** — client handlers are cheap asyncio tasks; compilation
  work is wrapped into jobs on a *bounded FIFO queue* drained by a single
  dispatcher, which runs each job in a thread off the event loop.  Jobs
  therefore serialize onto the shared runner pool in arrival order (no
  starvation, no interleaved pool access); a full queue answers 503
  immediately instead of stalling clients.
* **Auth** — optional shared bearer token (``REPRO_SERVE_TOKEN`` or the
  ``token=`` argument); when set, every ``/v1/*`` endpoint except
  ``/v1/health`` requires ``Authorization: Bearer <token>``.
* **Shutdown** — SIGINT/SIGTERM (or ``POST /v1/shutdown``) drain:
  accepting stops, queued and in-flight jobs finish, their responses are
  delivered, then the pool and cache close.
* **Resilience** — a dead or broken worker pool never takes the server
  down: every miss, a single point included, compiles on the pool, a
  point that keeps crashing its workers is quarantined there and answers
  500, the dispatcher restarts a broken pool before the next job,
  ``/v1/health`` reports ``degraded`` (with a ``pool`` sub-object) until
  it is healed,
  503 responses carry ``Retry-After``, and requests may set
  ``deadline_s`` to receive 504 instead of waiting indefinitely.  See
  ``docs/robustness.md``.
"""

from __future__ import annotations

import asyncio
import functools
import hmac
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.runtime.disk_cache import PersistentResultCache, resolve_result_cache
from repro.runtime.runner import ExperimentRunner
from repro.server import jobs
from repro.workloads.registry import WorkloadWidthError

#: Default TCP port (chosen once, documented in docs/api.md).
DEFAULT_PORT = 8537

#: Default bound on queued-but-not-yet-running jobs per server.
DEFAULT_QUEUE_SIZE = 64

#: Environment variable holding the shared bearer token.
TOKEN_ENV = "REPRO_SERVE_TOKEN"

#: Hard cap on request body size (a transpile/sweep spec is tiny).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-connection read timeout: a client that never finishes its request
#: cannot pin a handler task forever.
READ_TIMEOUT_SECONDS = 30.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Sentinel closing a streaming response's line queue.
_STREAM_DONE = object()


def _json_default(value: Any):
    """Serialize numpy scalars (and anything str-able) in response bodies."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def _encode_json(payload: Any) -> bytes:
    """One compact JSON line (newline-terminated) as bytes."""
    return (json.dumps(payload, default=_json_default) + "\n").encode("utf-8")


def _error_headers(error: "jobs.RequestError") -> Optional[Dict[str, str]]:
    """Extra response headers for an error (``Retry-After`` when advised)."""
    retry_after = getattr(error, "retry_after", None)
    if retry_after is None:
        return None
    return {"Retry-After": f"{max(1, round(retry_after))}"}


class ServerBindError(OSError):
    """The server could not listen on its host and port.

    Raised by :meth:`ReproServer.start` for a bind failure only (an
    unresolvable host, a port in use), after the runner is closed, so
    ``repro serve`` can tell it apart from an ``OSError`` while serving.
    """


def _warm_task(index: int) -> int:
    """No-op pool task (module-level so it pickles to worker processes)."""
    return index


class _Job:
    """One queued unit of compilation work plus its completion future."""

    def __init__(self, fn):
        self._fn = fn
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()

    async def run(self, loop: asyncio.AbstractEventLoop) -> None:
        """Execute the work in a thread; resolve the waiting handler."""
        try:
            value = await loop.run_in_executor(None, self._fn)
        except Exception as error:  # job failures answer 500, never kill the server
            if not self.future.cancelled():
                self.future.set_exception(error)
        else:
            if not self.future.cancelled():
                self.future.set_result(value)


class ReproServer:
    """The compilation server: one warm runner + cache behind an HTTP API.

    Args:
        host / port: bind address (``port=0`` picks an ephemeral port,
            readable from :attr:`port` after :meth:`start`).
        parallel: run the resident runner with a process pool (the
            default; the runner falls back to serial execution where
            pools are unavailable).
        workers: pool size (``None``: CPU count / ``REPRO_WORKERS``).
        cache_dir: directory for the shared persistent result cache
            (``None`` defers to ``REPRO_CACHE_DIR``, else a process-local
            LRU).
        no_cache: disable result caching entirely.
        queue_size: bound on queued jobs; a full queue answers 503.
        token: shared bearer token; ``None`` defers to
            ``REPRO_SERVE_TOKEN`` (empty/unset means no auth).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        parallel: bool = True,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        no_cache: bool = False,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        token: Optional[str] = None,
    ):
        self._host = host
        self._requested_port = int(port)
        self._queue_size = max(1, int(queue_size))
        self._token = token if token is not None else os.environ.get(TOKEN_ENV) or None
        self._cache = resolve_result_cache(cache_dir=cache_dir, no_cache=no_cache)
        self._runner = ExperimentRunner(
            parallel=parallel, max_workers=workers, result_cache=self._cache
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._handlers: set = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._started_monotonic = 0.0
        self._started_wall = 0.0
        self._requests: Dict[str, int] = {}
        self._responses: Dict[int, int] = {}
        self._jobs_completed = 0
        self._jobs_failed = 0
        self._jobs_expired = 0
        self._points_completed = 0
        self._pool_restarts = 0

    # -- introspection -------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0`` after start)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    @property
    def runner(self) -> ExperimentRunner:
        """The resident experiment runner serving every request."""
        return self._runner

    @property
    def address(self) -> str:
        """``http://host:port`` of the listening socket."""
        return f"http://{self._host}:{self.port}"

    @property
    def token(self) -> Optional[str]:
        """The required bearer token (``None`` when auth is off)."""
        return self._token

    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` completed."""
        return time.monotonic() - self._started_monotonic

    # -- lifecycle -----------------------------------------------------------

    async def start(self, warmup: bool = True) -> None:
        """Bind the socket, start the dispatcher, optionally warm the pool.

        A bind failure closes the runner and raises :class:`ServerBindError`.
        """
        if warmup and self._runner.parallel:
            # Spawn the worker processes (and run their interpreter imports)
            # before the socket opens, so no request ever touches the runner
            # concurrently with the warmup and the first real request doesn't
            # pay the pool cold-start.
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._warm_pool)
        self._queue = asyncio.Queue(maxsize=self._queue_size)
        self._stopped = asyncio.Event()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._requested_port
            )
        except OSError as error:
            await self.shutdown()
            raise ServerBindError(
                f"cannot listen on {self._host}:{self._requested_port}: {error}"
            ) from error
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()

    def _warm_pool(self) -> None:
        count = max(2, self._runner.max_workers)
        self._runner.map(_warm_task, [(index,) for index in range(count)])

    async def serve_forever(self) -> None:
        """Block until a drain (signal or ``/v1/shutdown``) completes."""
        assert self._stopped is not None, "start() must run first"
        await self._stopped.wait()

    async def run(self, warmup: bool = True, banner=None) -> None:
        """Start, install signal handlers where possible, and serve."""
        await self.start(warmup=warmup)
        loop = asyncio.get_running_loop()
        for signame in ("SIGINT", "SIGTERM"):
            try:
                loop.add_signal_handler(
                    getattr(signal, signame),
                    lambda: asyncio.ensure_future(self.shutdown()),
                )
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main thread or platform without signal support: the
                # shutdown endpoint / direct shutdown() still work.
                pass
        if banner is not None:
            banner(self)
        await self.serve_forever()

    async def shutdown(self) -> None:
        """Drain gracefully: finish queued/in-flight work, then close."""
        if self._draining:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._queue is not None:
            await self._queue.join()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        current = asyncio.current_task()
        pending = [t for t in self._handlers if t is not current and not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=10.0)
        if self._server is not None:
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - straggler sockets
                pass
        self._runner.close()
        if isinstance(self._cache, PersistentResultCache):
            self._cache.close()
        if self._stopped is not None:
            self._stopped.set()

    # -- dispatcher ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain the job queue FIFO; one job at a time owns the runner.

        Before each job the loop checks the resident pool: a pool whose
        worker died between requests (SIGKILL, OOM) is torn down and
        restarted here — off the event loop — so the job runs against a
        live pool instead of failing with ``BrokenProcessPool``.
        """
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            try:
                if self._runner.parallel and self._runner.pool_broken:
                    healed = await loop.run_in_executor(
                        None, self._runner.ensure_pool
                    )
                    if healed:
                        self._pool_restarts += 1
                await job.run(loop)
            finally:
                self._queue.task_done()

    def _submit(self, fn) -> _Job:
        """Enqueue one work item, or raise ``RequestError`` 503 when full."""
        if self._draining:
            raise jobs.RequestError("server is draining", status=503)
        job = _Job(fn)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise jobs.RequestError(
                f"request queue full ({self._queue_size} pending)",
                status=503,
                retry_after=1.0,
            ) from None
        return job

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on EOF/garbage/timeout."""

        async def _readline() -> bytes:
            return await asyncio.wait_for(
                reader.readline(), timeout=READ_TIMEOUT_SECONDS
            )

        try:
            request_line = await _readline()
            if not request_line.strip():
                return None
            parts = request_line.decode("latin-1").split()
            if len(parts) != 3:
                return None
            method, path, _version = parts
            headers: Dict[str, str] = {}
            for _ in range(100):
                line = await _readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            else:
                return None
            length = int(headers.get("content-length", "0") or "0")
            if length < 0 or length > MAX_BODY_BYTES:
                raise jobs.RequestError("request body too large", status=413)
            body = b""
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=READ_TIMEOUT_SECONDS
                )
            return method.upper(), path, headers, body
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            return None

    def _authorized(self, headers: Dict[str, str]) -> bool:
        if self._token is None:
            return True
        supplied = headers.get("authorization", "")
        expected = f"Bearer {self._token}"
        return hmac.compare_digest(supplied.encode(), expected.encode())

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = _encode_json(payload)
        extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        self._responses[status] = self._responses.get(status, 0) + 1

    async def _write_stream_head(self, writer: asyncio.StreamWriter) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        self._responses[200] = self._responses.get(200, 0) + 1

    async def _write_stream_line(
        self, writer: asyncio.StreamWriter, payload: Any
    ) -> None:
        data = _encode_json(payload)
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    async def _finish_stream(self, writer: asyncio.StreamWriter) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- request routing -----------------------------------------------------

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
        except jobs.RequestError as error:
            await self._write_response(
                writer, error.status, {"error": str(error)}, _error_headers(error)
            )
            return
        if request is None:
            return
        method, path, headers, body = request
        self._requests[path] = self._requests.get(path, 0) + 1
        if path != "/v1/health" and not self._authorized(headers):
            await self._write_response(
                writer, 401, {"error": "missing or invalid bearer token"}
            )
            return
        try:
            if path == "/v1/health":
                await self._require_method(method, "GET")
                await self._write_response(writer, 200, self._health_payload())
            elif path == "/v1/metrics":
                await self._require_method(method, "GET")
                await self._write_response(writer, 200, self._metrics_payload())
            elif path == "/v1/transpile":
                await self._require_method(method, "POST")
                await self._handle_transpile(writer, body)
            elif path == "/v1/sweep":
                await self._require_method(method, "POST")
                await self._handle_sweep(writer, body)
            elif path == "/v1/shutdown":
                await self._require_method(method, "POST")
                await self._write_response(writer, 200, {"status": "draining"})
                asyncio.ensure_future(self.shutdown())
            else:
                await self._write_response(
                    writer, 404, {"error": f"unknown endpoint {path!r}"}
                )
        except jobs.RequestError as error:
            await self._write_response(
                writer, error.status, {"error": str(error)}, _error_headers(error)
            )
        except Exception as error:  # defensive: a bug answers 500, not a hang
            await self._write_response(
                writer, 500, {"error": f"{type(error).__name__}: {error}"}
            )

    async def _require_method(self, method: str, expected: str) -> None:
        if method != expected:
            raise jobs.RequestError(f"use {expected} for this endpoint", status=405)

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise jobs.RequestError(f"invalid JSON body: {error}") from None

    # -- endpoint payloads ---------------------------------------------------

    def _pool_payload(self) -> Optional[Dict[str, Any]]:
        """Pool liveness sub-object for health/metrics (``None`` if serial)."""
        if not self._runner.parallel:
            return None
        return {
            "alive": self._runner.pool_alive,
            "broken": self._runner.pool_broken,
            "restarts": self._pool_restarts,
        }

    def _health_payload(self) -> Dict[str, Any]:
        if self._draining:
            status = "draining"
        elif self._runner.pool_broken:
            # A worker died and the pool has not been rebuilt yet; the
            # dispatcher heals it before the next job, so the server is
            # degraded, not down.
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_capacity": self._queue_size,
            "parallel": self._runner.parallel,
            "workers": self._runner.max_workers,
            "auth": self._token is not None,
            "pool": self._pool_payload(),
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        cache = self._runner.result_cache
        cache_dir = (
            str(cache.cache_dir) if isinstance(cache, PersistentResultCache) else None
        )
        return {
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "started_at_unix": round(self._started_wall, 3),
            "requests": dict(self._requests),
            "responses": {str(code): count for code, count in self._responses.items()},
            "jobs": {
                "completed": self._jobs_completed,
                "failed": self._jobs_failed,
                "expired": self._jobs_expired,
            },
            "points_completed": self._points_completed,
            "pool": self._pool_payload(),
            "faults": self._runner.fault_stats.as_dict(),
            "queue": {
                "depth": self._queue.qsize() if self._queue is not None else 0,
                "capacity": self._queue_size,
            },
            "cache": jobs.stats_snapshot(cache),
            "cache_dir": cache_dir,
        }

    async def _handle_transpile(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        parsed = self._parse_body(body)
        deadline = jobs.pop_deadline(parsed)
        specs = jobs.parse_transpile_request(parsed)
        job = self._submit(
            functools.partial(jobs.run_transpile_job, specs, self._runner)
        )
        try:
            if deadline is None:
                payload = await job.future
            else:
                payload = await asyncio.wait_for(job.future, deadline)
        except asyncio.TimeoutError:
            # wait_for cancelled the future; the worker thread finishes the
            # job anyway (warming the cache), but this client stops waiting.
            self._jobs_expired += 1
            raise jobs.RequestError(
                f"deadline of {deadline:g}s exceeded", status=504, retry_after=1.0
            ) from None
        except Exception as error:
            self._jobs_failed += 1
            if isinstance(error, WorkloadWidthError):
                # Bad input that only the workload builder can judge.
                raise jobs.RequestError(str(error)) from None
            raise jobs.RequestError(
                f"transpile failed: {type(error).__name__}: {error}", status=500
            ) from None
        self._jobs_completed += 1
        self._points_completed += payload["count"]
        await self._write_response(writer, 200, payload)

    async def _handle_sweep(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        parsed = self._parse_body(body)
        deadline = jobs.pop_deadline(parsed)
        request = jobs.parse_sweep_request(parsed)
        loop = asyncio.get_running_loop()
        lines: asyncio.Queue = asyncio.Queue()

        def _emit(line: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(lines.put_nowait, line)

        def _work() -> Optional[int]:
            # Failures are reported in-band as an {"type": "error"} line and
            # swallowed (returning None), so a stream whose client already
            # disconnected never leaves an unretrieved future exception.
            try:
                return jobs.run_sweep_job(
                    request.points, request.chunk_size, self._runner, _emit
                )
            except Exception as error:
                _emit({"type": "error", "error": f"{type(error).__name__}: {error}"})
                return None
            finally:
                loop.call_soon_threadsafe(lines.put_nowait, _STREAM_DONE)

        job = self._submit(_work)
        deadline_at = None if deadline is None else loop.time() + deadline
        await self._write_stream_head(writer)
        expired = False
        while True:
            if deadline_at is None:
                line = await lines.get()
            else:
                try:
                    line = await asyncio.wait_for(
                        lines.get(), max(0.0, deadline_at - loop.time())
                    )
                except asyncio.TimeoutError:
                    # The stream head is already on the wire, so the 504
                    # equivalent is an in-band error line; the job future
                    # is cancelled so its eventual result is discarded.
                    job.future.cancel()
                    self._jobs_expired += 1
                    expired = True
                    await self._write_stream_line(
                        writer,
                        {
                            "type": "error",
                            "status": 504,
                            "error": f"deadline of {deadline:g}s exceeded",
                        },
                    )
                    break
            if line is _STREAM_DONE:
                break
            await self._write_stream_line(writer, line)
        await self._finish_stream(writer)
        if expired:
            return
        try:
            completed = await job.future
        except asyncio.CancelledError:  # pragma: no cover - drain race
            completed = None
        if completed is None:
            self._jobs_failed += 1
        else:
            self._jobs_completed += 1
            self._points_completed += completed


# -- entry points --------------------------------------------------------------


def run_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    parallel: bool = True,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    queue_size: int = DEFAULT_QUEUE_SIZE,
    token: Optional[str] = None,
) -> str:
    """Run a server until drained (the blocking ``repro serve`` body).

    Returns a one-line summary for the CLI to print after shutdown.
    """
    server = ReproServer(
        host=host,
        port=port,
        parallel=parallel,
        workers=workers,
        cache_dir=cache_dir,
        no_cache=no_cache,
        queue_size=queue_size,
        token=token,
    )

    def _banner(instance: ReproServer) -> None:
        print(
            f"repro serve listening on {instance.address} "
            f"(pid {os.getpid()}, workers {instance.runner.max_workers}, "
            f"auth {'on' if instance._token is not None else 'off'})",
            file=sys.stderr,
            flush=True,
        )

    asyncio.run(server.run(banner=_banner))
    requests = sum(server._requests.values())
    return (
        f"repro serve stopped after {server.uptime_seconds():.1f}s: "
        f"{requests} requests, {server._points_completed} points compiled"
    )


class ServerHandle:
    """A server running on a background thread (tests, benchmarks, demos).

    Usage::

        with ServerHandle(port=0, parallel=False) as handle:
            client = ServeClient(port=handle.port)
            client.health()

    The context exit drains the server exactly like SIGTERM would.
    """

    def __init__(self, warmup: bool = False, **kwargs):
        self._server = ReproServer(**kwargs)
        self._warmup = warmup
        self._ready = threading.Event()
        self._start_error: Optional[Exception] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self._server.start(warmup=self._warmup)
        except Exception as error:
            # Handed to start(), which re-raises it in the caller's thread.
            self._start_error = error
            return
        finally:
            self._ready.set()
        await self._server.serve_forever()

    def start(self, timeout: float = 30.0) -> "ServerHandle":
        """Launch the thread and wait for the socket to be bound.

        A start failure (e.g. :class:`ServerBindError`) is re-raised here
        as soon as it happens.
        """
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within timeout")
        if self._start_error is not None:
            raise self._start_error
        return self

    @property
    def port(self) -> int:
        """The bound (possibly ephemeral) port."""
        return self._server.port

    @property
    def server(self) -> ReproServer:
        """The underlying server instance."""
        return self._server

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server and join its thread (idempotent)."""
        if self._loop is not None and self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self._server.shutdown(), self._loop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
