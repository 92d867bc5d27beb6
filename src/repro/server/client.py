"""Thin stdlib HTTP client for the compilation server.

:class:`ServeClient` wraps :mod:`http.client` so tests, benchmarks and
examples can talk to a running ``repro serve`` without any dependency
beyond the standard library.  Each call opens one connection (the server
answers with ``Connection: close``); :meth:`ServeClient.sweep` reads the
chunked newline-delimited JSON stream incrementally and invokes an
optional progress callback per line.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Callable, Dict, List, Optional

from repro.server.app import DEFAULT_PORT


class ServeError(Exception):
    """A non-2xx (or in-stream error) response from the server.

    ``retry_after`` carries the server's ``Retry-After`` header (seconds)
    when one was sent, so callers handling a 503/504 themselves know when
    a retry is worth attempting.
    """

    def __init__(self, status: int, payload: Any, retry_after: Optional[float] = None):
        message = payload.get("error") if isinstance(payload, dict) else str(payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.payload = payload
        self.retry_after = retry_after


def _parse_retry_after(response: http.client.HTTPResponse) -> Optional[float]:
    """The response's ``Retry-After`` header as seconds, if parseable."""
    raw = response.getheader("Retry-After")
    if raw is None:
        return None
    try:
        return max(0.0, float(raw))
    except ValueError:
        return None


class ServeClient:
    """Client for one ``repro serve`` endpoint.

    Args:
        host / port: where the server listens.
        token: bearer token matching the server's ``REPRO_SERVE_TOKEN``
            (``None`` sends no ``Authorization`` header).
        timeout: per-request socket timeout in seconds.
        retries: how many times a refused connection or a 503 response is
            retried before the error propagates (``0`` disables retries).
        retry_backoff: base seconds of the exponential backoff between
            retries; a server-sent ``Retry-After`` header overrides it.
    """

    #: Upper bound on one backoff sleep, so capped exponential growth
    #: (and an absurd ``Retry-After``) cannot stall a caller for long.
    MAX_BACKOFF_SECONDS = 5.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        token: Optional[str] = None,
        timeout: float = 300.0,
        retries: int = 2,
        retry_backoff: float = 0.1,
    ):
        self._host = host
        self._port = int(port)
        self._token = token
        self._timeout = float(timeout)
        self._retries = max(0, int(retries))
        self._retry_backoff = float(retry_backoff)

    # -- plumbing ------------------------------------------------------------

    def _headers(self, has_body: bool) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if has_body:
            headers["Content-Type"] = "application/json"
        if self._token is not None:
            headers["Authorization"] = f"Bearer {self._token}"
        return headers

    def _open(
        self, method: str, path: str, payload: Any = None
    ) -> http.client.HTTPResponse:
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection.request(method, path, body=body, headers=self._headers(body is not None))
        return connection.getresponse()

    def _backoff_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based)."""
        if retry_after is not None:
            return min(self.MAX_BACKOFF_SECONDS, retry_after)
        return min(self.MAX_BACKOFF_SECONDS, self._retry_backoff * (2**attempt))

    def _open_with_retries(
        self, method: str, path: str, payload: Any = None
    ) -> http.client.HTTPResponse:
        """Open one request, retrying refused connections and 503 answers.

        A 503 means the server queue is momentarily full (or it is
        restarting behind a supervisor); both clear on their own, so up to
        ``retries`` attempts are spaced by the server's ``Retry-After``
        hint (exponential backoff when absent).  Any other status — and a
        503 once the attempts are spent — is returned to the caller.
        """
        attempt = 0
        while True:
            try:
                response = self._open(method, path, payload)
            except ConnectionRefusedError:
                if attempt >= self._retries:
                    raise
                delay = self._backoff_delay(attempt, None)
            else:
                if response.status != 503 or attempt >= self._retries:
                    return response
                retry_after = _parse_retry_after(response)
                response.read()
                response.close()
                delay = self._backoff_delay(attempt, retry_after)
            time.sleep(delay)
            attempt += 1

    def request(self, method: str, path: str, payload: Any = None) -> Any:
        """One non-streaming request; returns the decoded JSON body.

        Raises :class:`ServeError` on any non-2xx status (after the
        transparent 503/refused-connection retries are exhausted).
        """
        response = self._open_with_retries(method, path, payload)
        try:
            data = response.read()
        finally:
            response.close()
        decoded = json.loads(data.decode("utf-8")) if data else None
        if not 200 <= response.status < 300:
            raise ServeError(response.status, decoded, _parse_retry_after(response))
        return decoded

    # -- endpoints -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health``."""
        return self.request("GET", "/v1/health")

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics``."""
        return self.request("GET", "/v1/metrics")

    def transpile(
        self, point_or_points: Any, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """``POST /v1/transpile`` with one point dict or a list of them.

        ``deadline_s`` asks the server to answer 504 (raised here as
        :class:`ServeError`) instead of keeping this client waiting longer
        than that many seconds.
        """
        payload = (
            {"points": list(point_or_points)}
            if isinstance(point_or_points, (list, tuple))
            else dict(point_or_points)
        )
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        return self.request("POST", "/v1/transpile", payload)

    def sweep(
        self,
        workloads: List[str],
        sizes: List[int],
        targets: List[Dict[str, str]],
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        **options: Any,
    ) -> Dict[str, Any]:
        """``POST /v1/sweep``; blocks until the final result line.

        ``targets`` is a list of ``{"topology": ..., "basis": ...}`` dicts;
        ``options`` passes through ``scale`` / ``level`` / ``layout`` /
        ``routing`` / ``seed`` / ``chunk_size`` / ``deadline_s``.  Every
        streamed line (``start`` and ``progress`` types) is handed to
        ``on_progress``; the final ``result`` line is returned, with the
        points the server's failure policy quarantined in its
        ``failed_points``.  Sending the same sweep again to a server on
        the same cache directory resumes it: only points missing from the
        cache are computed.  An in-stream ``error`` line (which
        is how a ``deadline_s`` expiry surfaces mid-stream, with
        ``status: 504``), a truncated stream or a non-2xx status raises
        :class:`ServeError`.
        """
        payload = {
            "workloads": list(workloads),
            "sizes": list(sizes),
            "targets": list(targets),
            **options,
        }
        response = self._open_with_retries("POST", "/v1/sweep", payload)
        try:
            if response.status != 200:
                decoded = json.loads(response.read().decode("utf-8") or "null")
                raise ServeError(
                    response.status, decoded, _parse_retry_after(response)
                )
            for line in iter(response.readline, b""):
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                kind = event.get("type")
                if kind == "result":
                    return event
                if kind == "error":
                    raise ServeError(int(event.get("status", 500)), event)
                if on_progress is not None:
                    on_progress(event)
        finally:
            response.close()
        raise ServeError(500, {"error": "stream ended without a result line"})

    def shutdown(self) -> Dict[str, Any]:
        """``POST /v1/shutdown``: ask the server to drain and exit."""
        return self.request("POST", "/v1/shutdown")

    # -- convenience ---------------------------------------------------------

    def wait_until_ready(self, timeout: float = 30.0, interval: float = 0.05) -> bool:
        """Poll ``/v1/health`` until the server answers (or time runs out)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                self.health()
                return True
            except (ConnectionError, socket.error, ServeError):
                time.sleep(interval)
        return False
