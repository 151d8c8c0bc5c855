"""The HTTP serving client.

:class:`HttpClient` speaks JSON to a :class:`~repro.serve.http
.ServeHTTPServer` over stdlib :mod:`urllib` (no third-party HTTP stack)
and raises the exception types the engine raises in process —
:class:`~repro.exceptions.DeadlineExceeded` for shed requests,
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

import json
import urllib.error
import urllib.request
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, DeadlineExceeded, ShardError
from repro.serve.api import PredictRequest, PredictResponse

__all__ = ["HttpClient"]


class HttpClient:
    """A client of a :class:`~repro.serve.http.ServeHTTPServer` base URL
    (e.g. ``"http://127.0.0.1:8041"``)."""

    def __init__(self, base_url: str, *, timeout_s: float = 60.0) -> None:
        if not str(base_url).startswith(("http://", "https://")):
            raise ConfigurationError(
                f"base_url must be an http(s) URL, got {base_url!r}"
            )
        self.base_url = str(base_url).rstrip("/")
        if not float(timeout_s) > 0:
            raise ConfigurationError(
                f"timeout_s must be > 0, got {timeout_s!r}"
            )
        self.timeout_s = float(timeout_s)

    # ------------------------------------------------------------- plumbing
    def _round_trip(
        self,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        timeout = self.timeout_s if timeout is None else float(timeout)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            # Error statuses still carry a JSON body (the adapter's
            # error schema); surface it instead of the bare HTTPError.
            try:
                payload = json.loads(exc.read())
            except Exception:
                payload = {"error": "http_error", "detail": str(exc)}
            return exc.code, payload

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
            "priority": request.priority,
            "request_id": request.request_id,
        }
        if request.deadline_s is not None:
            body["deadline_s"] = request.deadline_s
        if request.tags:
            body["tags"] = dict(request.tags)
        status, payload = self._round_trip("/predict", body, timeout)
        if status != 200:
            self._raise_for(status, payload)
        return PredictResponse(
            values=np.asarray(payload["values"], dtype=np.float64),
            run_id=str(payload.get("run_id", "")),
            request_id=str(payload.get("request_id", request.request_id)),
            queue_s=float(payload.get("queue_s", float("nan"))),
            batch_s=float(payload.get("batch_s", float("nan"))),
            retries=int(payload.get("retries", 0)),
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
