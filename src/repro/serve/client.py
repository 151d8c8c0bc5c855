"""The HTTP serving client.

:class:`HttpClient` speaks JSON to a :class:`~repro.serve.http
.ServeHTTPServer` over stdlib :mod:`http.client` (no third-party HTTP
stack), holding one persistent HTTP/1.1 connection per calling thread:
a caller pays the TCP handshake once, not per request, and a client
shared across threads never interleaves two requests on one socket.  A
*reused* connection that the server has closed in the meantime (its
idle timeout, or a reply that ended the connection) fails before any
response byte arrives; the client reconnects and sends that request
once more.  It raises the exception types the engine raises in process
— :class:`~repro.exceptions.DeadlineExceeded` for shed requests,
:class:`~repro.exceptions.ShardError` for backpressure, an unavailable
engine or an engine-side failure, and
:class:`~repro.exceptions.ConfigurationError` for malformed input — so
QoS handling code reads the same either side of the wire.  In-process
callers use :class:`~repro.serve.ModelServer` directly.

It speaks the typed vocabulary of :mod:`repro.serve.api`:
``predict_request(...)`` returns a :class:`~repro.serve.PredictResponse`.
JSON round-trips float64 losslessly in both directions, so its
``values`` carry the bits :meth:`ModelServer.predict_request
<repro.serve.ModelServer.predict_request>` returns on the same engine
(pinned in ``tests/test_serve_http.py``).
"""

from __future__ import annotations

import http.client
import json
import threading
import weakref
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, DeadlineExceeded, ShardError
from repro.serve.api import PredictRequest, PredictResponse

__all__ = ["HttpClient"]

#: Failures of a reused connection that mean the server closed it before
#: reading the request: nothing of a response arrived, so the request
#: can be sent again on a fresh connection.  A timeout is not one.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


class HttpClient:
    """A client of a :class:`~repro.serve.http.ServeHTTPServer` base URL
    (e.g. ``"http://127.0.0.1:8041"``).

    Each calling thread gets its own persistent connection (an
    ``HTTPSConnection`` for ``https://`` URLs), opened on its first
    request and reused after that, so one client may be shared by any
    number of threads.  When a request on a reused connection fails
    with a disconnect before any response arrived
    (``RemoteDisconnected``, ``ConnectionResetError`` or
    ``BrokenPipeError``), the client reconnects and resends it exactly
    once; after a timeout, or once a response has started, it never
    resends.  The resend is safe because every endpoint it calls is a
    pure read: ``POST /predict`` evaluates the model and changes no
    server state.

    :meth:`close` closes every connection the client opened, on every
    thread (a later request reconnects); the client is also a context
    manager::

        with HttpClient(http_srv.url) as client:
            client.predict_request(x).values
    """

    def __init__(self, base_url: str, *, timeout_s: float = 60.0) -> None:
        scheme, _, rest = str(base_url).partition("://")
        netloc, _, path = rest.partition("/")
        if scheme not in ("http", "https") or not netloc:
            raise ConfigurationError(
                f"base_url must be an http(s) URL, got {base_url!r}"
            )
        self.base_url = str(base_url).rstrip("/")
        if not float(timeout_s) > 0:
            raise ConfigurationError(
                f"timeout_s must be > 0, got {timeout_s!r}"
            )
        self.timeout_s = float(timeout_s)
        self._netloc = netloc
        self._path_prefix = ("/" + path).rstrip("/")
        self._connection_type = (
            http.client.HTTPSConnection if scheme == "https"
            else http.client.HTTPConnection
        )
        # The thread's connection lives in its thread-local slot; the
        # weak set only lets close() reach every live one.
        self._local = threading.local()
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._lock = threading.Lock()

    # ------------------------------------------------------------- plumbing
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "connection", None)
        if conn is None:
            conn = self._connection_type(self._netloc, timeout=self.timeout_s)
            self._local.connection = conn
            with self._lock:
                self._connections.add(conn)
        return conn

    def _round_trip(
        self,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        method = "GET" if data is None else "POST"
        headers = {} if data is None else {"Content-Type": "application/json"}
        conn = self._connection()
        conn.timeout = self.timeout_s if timeout is None else float(timeout)
        try:
            resp = self._send(
                conn, method, self._path_prefix + path, data, headers
            )
            raw = resp.read()
        except BaseException:
            conn.close()  # never leave a half-used connection for reuse
            raise
        try:
            return resp.status, json.loads(raw)
        except ValueError:
            if resp.status == 200:
                raise
            # Error statuses carry the adapter's JSON error schema; the
            # stdlib's own error pages (malformed request line) do not.
            detail = f"{resp.status} {resp.reason}"
            return resp.status, {"error": "http_error", "detail": detail}

    @staticmethod
    def _send(
        conn: http.client.HTTPConnection,
        method: str,
        url: str,
        data: bytes | None,
        headers: dict,
    ) -> http.client.HTTPResponse:
        """Send one request and read its status line and headers,
        resending once on a fresh connection if a reused one turns out
        closed by the server."""
        reused = conn.sock is not None
        if reused:
            conn.sock.settimeout(conn.timeout)
        try:
            conn.request(method, url, body=data, headers=headers)
            return conn.getresponse()
        except _STALE_CONNECTION:
            if not reused:
                raise
        conn.close()
        conn.request(method, url, body=data, headers=headers)
        return conn.getresponse()

    @staticmethod
    def _raise_for(status: int, payload: dict) -> None:
        detail = payload.get("detail", payload.get("error", "unknown"))
        if status == 400:
            raise ConfigurationError(f"rejected by server: {detail}")
        if status == 504 or payload.get("error") == "deadline_exceeded":
            raise DeadlineExceeded(str(detail))
        raise ShardError(f"serving endpoint failed ({status}): {detail}")

    # ------------------------------------------------------------ interface
    def predict_request(
        self, request: Any, timeout: float | None = None
    ) -> PredictResponse:
        """``POST /predict`` one request (a :class:`~repro.serve
        .PredictRequest` or a raw array, wrapped with default QoS)."""
        if not isinstance(request, PredictRequest):
            request = PredictRequest(rows=request)
        rows = np.asarray(request.rows, dtype=np.float64)
        body: dict[str, Any] = {
            "rows": rows.tolist(),
            # Numbers by PredictRequest's checks, but maybe NumPy ones,
            # which json cannot encode.
            "priority": int(request.priority),
            "request_id": request.request_id,
        }
        if request.deadline_s is not None:
            body["deadline_s"] = float(request.deadline_s)
        status, payload = self._round_trip("/predict", body, timeout)
        if status != 200:
            self._raise_for(status, payload)
        return PredictResponse(
            values=np.asarray(payload["values"], dtype=np.float64),
            run_id=str(payload.get("run_id", "")),
            request_id=str(payload.get("request_id", request.request_id)),
            queue_s=float(payload.get("queue_s", float("nan"))),
            batch_s=float(payload.get("batch_s", float("nan"))),
        )

    def health(self) -> dict:
        status, payload = self._round_trip("/healthz")
        payload["http_status"] = status
        return payload

    def stats(self) -> dict:
        status, payload = self._round_trip("/metrics")
        if status != 200:  # pragma: no cover - adapter always serves it
            self._raise_for(status, payload)
        return payload

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        """Close every connection this client opened, on every thread."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
