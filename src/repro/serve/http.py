"""HTTP front end for :class:`~repro.serve.ModelServer`.

The in-process server becomes a network service through a deliberately
small stdlib adapter — :class:`ServeHTTPServer` wraps
``http.server.ThreadingHTTPServer`` (one daemon thread per connection,
no third-party dependencies) and translates JSON requests into the
typed :class:`~repro.serve.PredictRequest` /
:class:`~repro.serve.PredictResponse` vocabulary.

**Persistent connections.**  The handler speaks HTTP/1.1, so one
connection carries any number of requests (:class:`~repro.serve
.HttpClient` keeps one per calling thread).  Replies go out with
Nagle's algorithm off (``TCP_NODELAY``), so a reply's body never waits
on the client's delayed ACK of its headers.  A connection idle for
:data:`IDLE_TIMEOUT_S` is closed and its thread exits.  A reply that
leaves request bytes unread — a ``POST`` to an unknown route, a missing
or bad ``Content-Length`` — carries ``Connection: close``, so those
bytes are never parsed as the next request.  :meth:`ServeHTTPServer
.close` shuts down every open connection and waits for its thread; a
request that arrives as the adapter closes gets ``503`` without
reaching the engine.  The endpoints:

``POST /predict``
    Body ``{"rows": [[...], ...], "priority": 0, "deadline_s": 0.2,
    "request_id": "..."}`` (everything but ``rows`` optional; any other
    field is refused).  Replies ``200`` with a
    :meth:`PredictResponse.as_dict() <repro.serve.PredictResponse
    .as_dict>` payload — predicted values plus per-request timings
    (``queue_s``/``batch_s``) and the serving run id.
    Errors map onto transport-meaningful statuses: ``400`` for
    malformed requests (bad or over-deep JSON, out-of-range numbers,
    a non-integral priority, wrong shape/features, non-finite rows),
    ``503`` with
    ``Retry-After`` when the queue is at its backpressure bound,
    ``504`` with ``{"shed": true, "error": "deadline_exceeded"}`` when
    the request's deadline expired before its tick (the dispatcher shed
    it without spending shard work), and ``500`` when the engine failed
    the request (its tick raised, or its prediction is non-finite).

``GET /healthz``
    Liveness/readiness: the engine's
    :meth:`~repro.serve.ModelServer.health` dict, ``200`` with
    ``"status": "ok"`` while serving, ``503`` once the engine is
    closed.

``GET /metrics``
    The run-ID-stamped :meth:`~repro.serve.ModelServer.stats` snapshot
    as JSON — counters, gauges and latency histograms with p50/p95/p99.

**Bitwise contract, over the wire.**  JSON is a lossless float64
transport in both directions: ``json.dumps`` emits shortest
round-trip reprs and ``json.loads`` parses them back to the identical
IEEE-754 double, so ``POST /predict`` responses carry *exactly* the
bits an in-process :meth:`~repro.serve.ModelServer.predict_request` —
and therefore a solo :func:`~repro.shard.sharded_predict` — would return
(pinned by ``tests/test_serve_http.py``).

The adapter *borrows* the :class:`~repro.serve.ModelServer` by default
(closing the adapter stops the listener and ends its connections but
leaves the engine serving in-process callers); pass
``owns_server=True`` to tie their lifecycles.  The adapter counts the
connections it accepts under the engine's ``serve/http_connections``
counter.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, DeadlineExceeded, ShardError
from repro.serve.api import PredictRequest, PredictResponse

__all__ = ["ServeHTTPServer"]

_LOG = logging.getLogger("repro.serve.http")

#: Largest accepted ``POST /predict`` body; a row payload beyond this is
#: a misbehaving client, not load (64 MiB of JSON is ~4M float64 reprs).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle (or stall mid-request)
#: before its handler closes it and its thread exits.
IDLE_TIMEOUT_S = 15.0


def _request_from_payload(payload: Any) -> PredictRequest:
    """Build a typed request from a decoded JSON body (400 on nonsense)."""
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ConfigurationError(
            'predict body must be a JSON object with a "rows" field'
        )
    unknown = set(payload) - {"rows", "priority", "deadline_s", "request_id"}
    if unknown:
        raise ConfigurationError(
            f"unknown predict fields {sorted(unknown)}; expected rows, "
            "priority, deadline_s, request_id"
        )
    rows = np.asarray(payload["rows"], dtype=np.float64)
    kwargs: dict[str, Any] = {"rows": rows}
    if payload.get("priority") is not None:
        # Passed as decoded: PredictRequest is the one priority check.
        kwargs["priority"] = payload["priority"]
    if payload.get("deadline_s") is not None:
        kwargs["deadline_s"] = float(payload["deadline_s"])
    if payload.get("request_id") is not None:
        kwargs["request_id"] = str(payload["request_id"])
    return PredictRequest(**kwargs)


class _Handler(BaseHTTPRequestHandler):
    """Routes the three endpoints onto the wrapped ModelServer."""

    # The adapter instance is attached to the *server* per bind (see
    # _Listener); handlers reach it through self.server.
    protocol_version = "HTTP/1.1"
    # A reply is written as headers, then body: with Nagle's algorithm
    # on, the body waits for the client's delayed ACK of the headers on
    # every request of a kept-alive connection.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    # ------------------------------------------------------------- plumbing
    def log_message(self, fmt: str, *args: Any) -> None:
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _reply(
        self,
        status: int,
        payload: dict,
        headers: dict | None = None,
        *,
        close: bool = False,
    ) -> None:
        """Send one JSON reply; ``close`` ends the connection after it
        (``Connection: close``), which every reply that leaves request
        bytes unread on the socket must do, so they are never parsed as
        the next request."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _closed_reply(self) -> None:
        """Refuse a request that arrived as the adapter closed, without
        touching the (borrowed) engine."""
        self._reply(
            503, {"error": "unavailable", "detail": "HTTP adapter closed"},
            close=True,
        )

    def _declares_body(self) -> bool:
        return (
            "Transfer-Encoding" in self.headers
            or self.headers.get("Content-Length", "0").strip() != "0"
        )

    # ------------------------------------------------------------ endpoints
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        adapter: "ServeHTTPServer" = self.server.adapter  # type: ignore[attr-defined]
        if adapter.closed:
            self._closed_reply()
            return
        adapter.model_server.metrics.inc("serve/http_requests")
        # No GET route reads a body: close after replying to one that
        # came with a body.
        close = self._declares_body()
        if self.path in ("/healthz", "/health"):
            health = adapter.model_server.health()
            self._reply(
                200 if health["status"] == "ok" else 503, health, close=close
            )
        elif self.path == "/metrics":
            self._reply(200, adapter.model_server.stats(), close=close)
        else:
            self._reply(
                404,
                {"error": "not_found",
                 "detail": f"no route {self.path!r}; try /predict, "
                           "/healthz, /metrics"},
                close=close,
            )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        adapter: "ServeHTTPServer" = self.server.adapter  # type: ignore[attr-defined]
        if adapter.closed:
            self._closed_reply()
            return
        adapter.model_server.metrics.inc("serve/http_requests")
        if self.path != "/predict":
            # The body is left unread: end the connection with the reply.
            self._reply(
                404,
                {"error": "not_found",
                 "detail": f"no POST route {self.path!r}; try /predict"},
                close=True,
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES or (
            "Transfer-Encoding" in self.headers
        ):
            # Nothing of the body is read, so the connection cannot
            # carry another request.
            self._reply(
                400,
                {"error": "bad_request",
                 "detail": f"Content-Length must be in (0, {MAX_BODY_BYTES}]"
                           f" with no Transfer-Encoding, got "
                           f"{self.headers.get('Content-Length')!r}"},
                close=True,
            )
            return
        try:
            payload = json.loads(self.rfile.read(length))
            request = _request_from_payload(payload)
        except (
            ConfigurationError, ValueError, TypeError, OverflowError,
            RecursionError,
        ) as exc:
            # OverflowError: a number past float range (``1e400``) where
            # an int or finite float is expected; RecursionError: JSON
            # nested deeper than the decoder's recursion limit.
            self._reply(400, {"error": "bad_request", "detail": str(exc)})
            return
        try:
            future = adapter.model_server.submit_request(request)
        except ConfigurationError as exc:
            # Shape/feature validation happens at enqueue: still the
            # client's fault, still a 400.
            self._reply(400, {"error": "bad_request", "detail": str(exc)})
            return
        except ShardError as exc:
            # Backpressure (queue full) or closed: tell the client to
            # back off rather than queueing unboundedly.
            self._reply(
                503,
                {"error": "unavailable", "detail": str(exc),
                 "request_id": request.request_id},
                headers={"Retry-After": "1"},
            )
            return
        try:
            response: PredictResponse = future.result(
                adapter.request_timeout_s
            )
        except DeadlineExceeded as exc:
            adapter.model_server.metrics.inc("serve/http_shed")
            self._reply(
                504,
                {"error": "deadline_exceeded", "shed": True,
                 "detail": str(exc), "request_id": request.request_id},
            )
            return
        except Exception as exc:  # engine failure or adapter timeout
            future.cancel()  # no-op unless the request is still queued
            self._reply(
                500,
                {"error": type(exc).__name__, "detail": str(exc),
                 "request_id": request.request_id},
            )
            return
        self._reply(200, response.as_dict())


class _Listener(ThreadingHTTPServer):
    """The adapter's ``ThreadingHTTPServer``: one daemon handler thread
    per accepted connection, each open connection tracked with its
    thread so that :meth:`close_connections` can end the kept-alive
    ones and wait for their handlers."""

    def __init__(
        self, address: tuple[str, int], adapter: "ServeHTTPServer"
    ) -> None:
        # Reach-back pointer for handlers (one listener per adapter, so
        # instance state never crosses adapters).
        self.adapter = adapter
        self._open: dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(
        self, request: socket.socket, client_address: Any
    ) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"repro-serve-http:{self.server_port}",
            daemon=True,
        )
        with self._open_lock:
            self._open[request] = thread
        self.adapter.model_server.metrics.inc("serve/http_connections")
        thread.start()

    def shutdown_request(self, request: socket.socket) -> None:
        # Forget the socket before it is closed, so close_connections
        # never touches a closed (and possibly reused) descriptor.
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self, timeout_s: float) -> None:
        """Shut down every open connection, then wait up to
        ``timeout_s`` for each handler thread: one blocked reading its
        next request sees end-of-stream and exits."""
        with self._open_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the peer already reset it
                    pass
            threads = list(self._open.values())
        for thread in threads:
            thread.join(timeout_s)

    def handle_error(self, request: Any, client_address: Any) -> None:
        if self.adapter.closed:
            # A reply cut off by close(): expected, not worth a traceback.
            _LOG.debug("serve.http connection from %s ended by close",
                       client_address)
            return
        super().handle_error(request, client_address)


class ServeHTTPServer:
    """A threaded HTTP listener over a live
    :class:`~repro.serve.ModelServer`.

    Each accepted connection is kept alive and served by its own daemon
    thread until the client closes it, it sits idle for
    :data:`IDLE_TIMEOUT_S`, a reply ends it, or :meth:`close` shuts it
    down.

    Parameters
    ----------
    model_server:
        The serving engine to expose.  Borrowed by default: closing the
        adapter leaves it serving in-process callers.
    host, port:
        Bind address; ``port=0`` (default) picks a free ephemeral port
        (read it back from :attr:`port` / :attr:`url`).
    owns_server:
        When True, :meth:`close` also closes the wrapped engine (and
        with it any group the engine owns).
    request_timeout_s:
        Hard cap an HTTP worker waits on a request's future before
        failing the connection with ``500`` (deadlines should fire long
        before this backstop).

    Usage::

        with ModelServer(model, g=2) as engine:
            with ServeHTTPServer(engine) as http_srv:
                requests.post(f"{http_srv.url}/predict",
                              json={"rows": x.tolist()})
    """

    def __init__(
        self,
        model_server: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        owns_server: bool = False,
        request_timeout_s: float = 60.0,
    ) -> None:
        if model_server.closed:
            raise ConfigurationError(
                "model_server is closed; serve a live one"
            )
        if not float(request_timeout_s) > 0:
            raise ConfigurationError(
                f"request_timeout_s must be > 0, got {request_timeout_s!r}"
            )
        self.model_server = model_server
        self.owns_server = bool(owns_server)
        self.request_timeout_s = float(request_timeout_s)
        self._closed = False
        self._httpd = _Listener((host, int(port)), self)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        _LOG.info(
            "serve.http.open run=%s addr=%s:%d owns_server=%s",
            model_server.run_id[:8], self.host, self.port, self.owns_server,
        )

    # ------------------------------------------------------------ inspection
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the listener (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        return self._closed

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        """Stop the listener and end every open connection (idempotent);
        close the engine too when ``owns_server``.

        Kept-alive connections are shut down, so their clients see the
        connection end rather than another reply; a request that
        arrives as the adapter closes gets a ``503`` without reaching
        the engine.  Returns once every handler thread has exited (a
        handler waiting on the engine finishes that request first)."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._thread.join(timeout=10)
        self._httpd.close_connections(self.request_timeout_s)
        self._httpd.server_close()
        if self.owns_server:
            self.model_server.close()
        _LOG.info("serve.http.close addr=%s:%d", self.host, self.port)

    def __enter__(self) -> "ServeHTTPServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"<ServeHTTPServer {state} {self.url}>"
