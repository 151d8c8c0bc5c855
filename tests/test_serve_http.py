"""HTTP transport suite (:mod:`repro.serve.http` / :mod:`.client`).

The load-bearing claim is that HTTP adds a *transport*, not a numeric
path: ``POST /predict`` responses are bit-identical to in-process
:meth:`~repro.serve.ModelServer.predict_request` — and therefore to a
solo :func:`~repro.shard.sharded_predict` — because JSON round-trips
float64 losslessly.  Around that: the health/metrics endpoints, the
error mapping (400 malformed / 500 engine failure / 503 backpressure /
504 shed), a property test that ``/predict`` answers every JSON body,
the per-request timings on the wire, :class:`~repro.serve
.HttpClient` agreeing with the engine it calls, and the kept-alive
connections: reused per calling thread, re-opened once after the server
closed an idle one, never left holding unread request bytes, and ended
by the adapter's ``close()``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import KernelModel
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    ShardError,
)
from repro.kernels import GaussianKernel
from repro.serve import (
    HttpClient,
    ModelServer,
    PredictRequest,
    PredictResponse,
    ServeHTTPServer,
    ServeOptions,
)
from repro.serve.http import _Handler
from repro.shard import ShardGroup, sharded_predict

N, D, L = 151, 4, 3


@pytest.fixture(scope="module")
def served():
    """One engine + HTTP adapter shared by the module (per-test servers
    would pay a socket bind per test for no isolation gain: requests are
    independent and the suite never closes the shared pair)."""
    rng = np.random.default_rng(29)
    centers = rng.standard_normal((N, D))
    weights = rng.standard_normal((N, L))
    kernel = GaussianKernel(bandwidth=2.0)
    with ShardGroup.build(
        centers, weights, g=2, kernel=kernel, transport="thread"
    ) as group:
        with ModelServer(group=group) as server:
            with ServeHTTPServer(server) as http_srv:
                yield group, server, http_srv


def _post(url: str, payload: Any, timeout: float = 30.0):
    """POST ``payload`` as JSON (a ``str`` is sent verbatim)."""
    body = payload if isinstance(payload, str) else json.dumps(payload)
    req = urllib.request.Request(
        url,
        data=body.encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# --------------------------------------------------------------------------
# Bitwise round trip
# --------------------------------------------------------------------------


def test_http_predict_bitwise_vs_in_process(served):
    group, server, http_srv = served
    rng = np.random.default_rng(31)
    for rows in (1, 7, 23):
        x = rng.standard_normal((rows, D))
        want = np.asarray(sharded_predict(group, x))
        np.testing.assert_array_equal(
            server.predict_request(x, timeout=60).values, want
        )
        status, payload = _post(
            f"{http_srv.url}/predict", {"rows": x.tolist()}
        )
        assert status == 200
        got = np.asarray(payload["values"], dtype=np.float64)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_http_client_predict_bitwise(served):
    group, _, http_srv = served
    rng = np.random.default_rng(37)
    x = rng.standard_normal((9, D))
    client = HttpClient(http_srv.url)
    np.testing.assert_array_equal(
        client.predict_request(x).values,
        np.asarray(sharded_predict(group, x)),
    )


def test_http_client_sends_numpy_integer_priority(served):
    """A NumPy integer priority is a valid one; the client sends it as a
    JSON integer and the answer is the engine's."""
    group, _, http_srv = served
    x = np.random.default_rng(43).standard_normal((3, D))
    request = PredictRequest(rows=x, priority=np.int64(2))
    with HttpClient(http_srv.url) as client:
        resp = client.predict_request(request)
    assert resp.request_id == request.request_id
    np.testing.assert_array_equal(
        resp.values, np.asarray(sharded_predict(group, x))
    )


def test_http_client_sends_numpy_float_deadline(served):
    """A NumPy float deadline is a valid one (``np.float32`` does not
    subclass ``float``); the client sends it as a JSON number and the
    answer is the engine's."""
    group, _, http_srv = served
    x = np.random.default_rng(43).standard_normal((3, D))
    request = PredictRequest(rows=x, deadline_s=np.float32(5.0))
    with HttpClient(http_srv.url) as client:
        resp = client.predict_request(request)
    assert resp.request_id == request.request_id
    np.testing.assert_array_equal(
        resp.values, np.asarray(sharded_predict(group, x))
    )


def test_single_sample_round_trip(served):
    group, server, http_srv = served
    x = np.random.default_rng(41).standard_normal(D)
    resp = HttpClient(http_srv.url).predict_request(PredictRequest(rows=x))
    # The engine's (l,) single-sample form.
    want = server.predict_request(x, timeout=60).values
    assert resp.values.shape == want.shape == (L,)
    np.testing.assert_array_equal(resp.values, want)
    np.testing.assert_array_equal(
        resp.values, np.asarray(sharded_predict(group, x)).reshape(-1)
    )


def test_response_carries_timings_and_identity(served):
    _, server, http_srv = served
    x = np.zeros((2, D))
    req = PredictRequest(rows=x, request_id="r-timed")
    resp = HttpClient(http_srv.url).predict_request(req)
    assert isinstance(resp, PredictResponse)
    assert resp.request_id == "r-timed"
    assert resp.run_id == server.run_id
    assert resp.queue_s >= 0.0 and resp.batch_s > 0.0


# --------------------------------------------------------------------------
# Health and metrics endpoints
# --------------------------------------------------------------------------


def test_healthz(served):
    _, server, http_srv = served
    with urllib.request.urlopen(f"{http_srv.url}/healthz", timeout=30) as r:
        payload = json.loads(r.read())
        assert r.status == 200
    assert payload == server.health()
    assert payload["status"] == "ok"
    assert payload["run_id"] == server.run_id
    assert payload["transport"] == "thread" and payload["g"] == 2


def test_metrics_snapshot(served):
    _, server, http_srv = served
    server.predict_request(np.zeros((1, D)), timeout=60)  # one sample
    with urllib.request.urlopen(f"{http_srv.url}/metrics", timeout=30) as r:
        snap = json.loads(r.read())
    assert snap["run_id"]["id"] == server.run_id
    assert "serve/request_s" in snap["histograms"]
    assert snap["counters"]["serve/http_requests"] >= 1


def test_unknown_routes_404(served):
    _, _, http_srv = served
    for get in (f"{http_srv.url}/nope",):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(get, timeout=30)
        assert err.value.code == 404
    status, payload = _post(f"{http_srv.url}/predictx", {"rows": [[0.0]]})
    assert status == 404 and payload["error"] == "not_found"


# --------------------------------------------------------------------------
# Error mapping
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload",
    [
        {},  # no rows
        {"rows": [[0.0] * D], "surprise": 1},  # unknown field
        {"rows": "nonsense"},  # not numeric
        {"rows": [[0.0] * (D + 1)]},  # wrong feature count
        {"rows": [[0.0] * D], "tags": {"arm": "a"}},  # not a predict field
        {"rows": [[0.0] * D], "deadline_s": -1.0},
        {"rows": [[0.0] * D], "priority": 1.5},
    ],
    ids=["no-rows", "unknown-field", "non-numeric", "bad-features",
         "bad-tags", "bad-deadline", "fractional-priority"],
)
def test_malformed_requests_400(served, payload):
    _, _, http_srv = served
    status, body = _post(f"{http_srv.url}/predict", payload)
    assert status == 400
    assert body["error"] == "bad_request" and body["detail"]


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)
def test_non_finite_rows_400_others_unaffected(served, bad):
    """``json.dumps`` writes non-finite floats as JSON's NaN/Infinity
    literals, which decode back to non-finite rows: the engine refuses
    them with a 400, while concurrent well-formed requests from other
    callers still come back bitwise."""
    group, _, http_srv = served
    x = np.random.default_rng(43).standard_normal((3, D))
    poisoned = x.copy()
    poisoned[1, 2] = bad
    want = np.asarray(sharded_predict(group, x))
    client = HttpClient(http_srv.url)
    with ThreadPoolExecutor(max_workers=3) as pool:
        good = [pool.submit(client.predict_request, x) for _ in range(3)]
        status, body = _post(
            f"{http_srv.url}/predict", {"rows": poisoned.tolist()}
        )
        with pytest.raises(ConfigurationError, match="finite"):
            client.predict_request(poisoned)
        for f in good:
            np.testing.assert_array_equal(f.result(timeout=60).values, want)
    assert status == 400
    assert body["error"] == "bad_request" and "finite" in body["detail"]


def test_expired_deadline_maps_to_504_shed(served):
    """A shed request surfaces as 504 with the shed flag — and the
    HttpClient raises the same DeadlineExceeded the engine raises."""
    group, _, _ = served
    with ModelServer(
        group=group, options=ServeOptions(batch_wait=5e-3)
    ) as slow:
        with ServeHTTPServer(slow) as adapter:
            status, body = _post(
                f"{adapter.url}/predict",
                {"rows": np.zeros((1, D)).tolist(), "deadline_s": 1e-6},
            )
            assert status == 504
            assert body["error"] == "deadline_exceeded"
            assert body["shed"] is True
            with pytest.raises(DeadlineExceeded):
                HttpClient(adapter.url).predict_request(
                    PredictRequest(rows=np.zeros((1, D)), deadline_s=1e-6)
                )
            shed = slow.stats()["counters"]["serve/http_shed"]
            assert shed == 2


def test_closed_engine_maps_to_503(served):
    group, _, _ = served
    engine = ModelServer(group=group)
    adapter = ServeHTTPServer(engine)
    try:
        engine.close()
        status, body = _post(
            f"{adapter.url}/predict", {"rows": np.zeros((1, D)).tolist()}
        )
        assert status == 503 and body["error"] == "unavailable"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{adapter.url}/healthz", timeout=30)
        assert err.value.code == 503
        # The client surface raises the engine's exception type.
        with pytest.raises(ShardError):
            HttpClient(adapter.url).predict_request(np.zeros((1, D)))
    finally:
        adapter.close()


def test_http_client_raises_configuration_error_on_400(served):
    _, _, http_srv = served
    with pytest.raises(ConfigurationError):
        HttpClient(http_srv.url).predict_request(np.zeros((1, D + 2)))


@pytest.mark.parametrize(
    "body",
    [
        # json.loads reads 1e400 as inf; int(inf) raises OverflowError.
        '{"rows": [[0.0, 0.0, 0.0, 0.0]], "priority": 1e400}',
        # Deeper than the JSON decoder's recursion limit.
        '{"rows": ' + "[" * 200_000 + "]" * 200_000 + "}",
    ],
    ids=["overflowing-priority", "over-deep-rows"],
)
def test_unparseable_bodies_400_and_server_answers_next(served, body):
    """Bodies whose decoding raises outside ValueError/TypeError still
    get a 400 (not a dropped connection), and the server keeps
    serving."""
    group, _, http_srv = served
    status, payload = _post(f"{http_srv.url}/predict", body)
    assert status == 400 and payload["error"] == "bad_request"
    x = np.ones((1, D))
    status, payload = _post(f"{http_srv.url}/predict", {"rows": x.tolist()})
    assert status == 200
    np.testing.assert_array_equal(
        np.asarray(payload["values"]), np.asarray(sharded_predict(group, x))
    )


# Finite floats are bounded so a well-formed row's prediction stays
# finite (an input near float max overflows the kernel's distance to
# NaN — the 500 path, pinned by test_nan_weight_model_maps_to_500).
_floats = st.floats(min_value=-1e100, max_value=1e100) | st.sampled_from(
    [float("nan"), float("inf"), float("-inf")]
)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=16,
)
_rows = st.lists(
    st.lists(_floats, min_size=D, max_size=D), max_size=3
) | _json
_bodies = _json | st.fixed_dictionaries(
    {"rows": _rows},
    optional={
        key: _json | _floats
        for key in ("priority", "deadline_s", "request_id")
    },
)


@settings(max_examples=150, deadline=None)
@given(body=_bodies)
def test_predict_answers_any_json_body(served, body):
    """Every JSON body gets a reply: 200 or a 4xx — or a 504 when it
    carried a deadline the dispatcher shed — never a 500 or a dropped
    connection."""
    _, _, http_srv = served
    status, _ = _post(f"{http_srv.url}/predict", body)
    shed = status == 504 and isinstance(body, dict) and "deadline_s" in body
    assert status == 200 or 400 <= status < 500 or shed, (status, body)


def test_nan_weight_model_maps_to_500(served):
    """A non-finite prediction fails its request server-side: a 500
    naming the request id, never a 200 carrying NaN."""
    group, _, _ = served
    rng = np.random.default_rng(47)
    weights = rng.standard_normal((N, L))
    weights[0, 0] = np.nan
    model = KernelModel(
        kernel=GaussianKernel(bandwidth=2.0),
        centers=rng.standard_normal((N, D)),
        weights=weights,
    )
    with ModelServer(model, g=2, transport="thread") as engine:
        with ServeHTTPServer(engine) as adapter:
            status, body = _post(
                f"{adapter.url}/predict",
                {"rows": np.zeros((1, D)).tolist(), "request_id": "r-nan"},
            )
            with pytest.raises(ShardError, match="500"):
                HttpClient(adapter.url).predict_request(np.zeros((1, D)))
        counters = engine.stats()["counters"]
    assert status == 500
    assert body["error"] == "ReproError" and "r-nan" in body["detail"]
    assert counters["serve/failed_requests"] == 2
    assert counters.get("serve/requests", 0) == 0


# --------------------------------------------------------------------------
# Client and adapter lifecycle
# --------------------------------------------------------------------------


def test_http_client_agrees_with_engine(served):
    """The HTTP client's values, health and stats are the engine's."""
    _, server, http_srv = served
    remote = HttpClient(http_srv.url)
    x = np.random.default_rng(43).standard_normal((6, D))
    np.testing.assert_array_equal(
        server.predict_request(x, timeout=60).values,
        remote.predict_request(x).values,
    )
    health = remote.health()
    assert health.pop("http_status") == 200
    assert health == server.health()
    assert remote.stats()["run_id"]["id"] == server.run_id


def test_http_client_validates_construction():
    with pytest.raises(ConfigurationError, match="base_url"):
        HttpClient("ftp://example")
    with pytest.raises(ConfigurationError, match="timeout_s"):
        HttpClient("http://127.0.0.1:1", timeout_s=0)


def test_adapter_rejects_closed_engine(served):
    group, _, _ = served
    engine = ModelServer(group=group)
    engine.close()
    with pytest.raises(ConfigurationError, match="closed"):
        ServeHTTPServer(engine)


def test_adapter_close_is_idempotent_and_borrows(served):
    group, _, _ = served
    engine = ModelServer(group=group)
    adapter = ServeHTTPServer(engine)
    url = adapter.url
    adapter.close()
    adapter.close()
    assert adapter.closed
    # Borrowed engine still serves in-process after the listener stops.
    engine.predict_request(np.zeros((1, D)), timeout=60)
    engine.close()
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(f"{url}/healthz", timeout=2)


def test_owns_server_ties_lifecycles(served):
    group, _, _ = served
    engine = ModelServer(group=group)
    with ServeHTTPServer(engine, owns_server=True):
        pass
    assert engine.closed
    assert not group.closed  # the group stays borrowed throughout


# --------------------------------------------------------------------------
# Kept-alive connections
# --------------------------------------------------------------------------


def _connections(server: ModelServer) -> float:
    """Connections the server's HTTP adapters have accepted so far."""
    return server.stats()["counters"].get("serve/http_connections", 0)


def _handler_threads(adapter: ServeHTTPServer) -> list[threading.Thread]:
    name = f"repro-serve-http:{adapter.port}"
    return [t for t in threading.enumerate() if t.name == name]


def test_one_connection_serves_sequential_requests(served):
    group, server, http_srv = served
    x = np.random.default_rng(53).standard_normal((2, D))
    want = np.asarray(sharded_predict(group, x))
    before = _connections(server)
    with HttpClient(http_srv.url) as client:
        for _ in range(8):
            np.testing.assert_array_equal(
                client.predict_request(x).values, want
            )
        assert client.health()["status"] == "ok"
        assert client.stats()["run_id"]["id"] == server.run_id
    assert _connections(server) - before == 1


def test_idle_closed_connection_reconnects_transparently(served, monkeypatch):
    """The server ends a connection idle past the handler timeout; the
    client's next request fails on the dead socket before any response
    and is resent once on a fresh connection."""
    group, server, _ = served
    monkeypatch.setattr(_Handler, "timeout", 0.2)
    x = np.random.default_rng(59).standard_normal((1, D))
    want = np.asarray(sharded_predict(group, x))
    with ServeHTTPServer(server) as adapter:
        before = _connections(server)
        client = HttpClient(adapter.url)
        np.testing.assert_array_equal(client.predict_request(x).values, want)
        deadline = time.monotonic() + 10
        while _handler_threads(adapter) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _handler_threads(adapter), "idle connection not closed"
        np.testing.assert_array_equal(client.predict_request(x).values, want)
        assert _connections(server) - before == 2
        client.close()


def test_shared_client_one_connection_per_thread(served):
    group, server, http_srv = served
    rng = np.random.default_rng(61)
    xs = [rng.standard_normal((k % 3 + 1, D)) for k in range(20)]
    wants = [np.asarray(sharded_predict(group, x)) for x in xs]
    before = _connections(server)
    barrier = threading.Barrier(4, timeout=30)

    def run(i: int) -> list[np.ndarray]:
        barrier.wait()  # all four threads hold a connection at once
        return [client.predict_request(x).values for x in xs[i::4]]

    with HttpClient(http_srv.url) as client:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(4)))
    for i, got in enumerate(results):
        for values, want in zip(got, wants[i::4]):
            np.testing.assert_array_equal(values, want)
    assert _connections(server) - before == 4


def test_client_close_ends_connections_and_reconnects(served):
    group, server, http_srv = served
    x = np.zeros((1, D))
    want = np.asarray(sharded_predict(group, x))
    before = _connections(server)
    client = HttpClient(http_srv.url)
    client.predict_request(x)
    client.close()
    np.testing.assert_array_equal(client.predict_request(x).values, want)
    client.close()
    assert _connections(server) - before == 2


def test_replies_disable_nagle(served, monkeypatch):
    """A reply is written as headers then body; on a kept-alive socket
    with Nagle's algorithm on, the body would wait for the client's
    delayed ACK.  Every accepted socket has TCP_NODELAY set."""
    _, server, _ = served
    nodelay: list[int] = []
    setup = _Handler.setup

    def spy(handler: _Handler) -> None:
        setup(handler)
        nodelay.append(handler.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        ))

    monkeypatch.setattr(_Handler, "setup", spy)
    with ServeHTTPServer(server) as adapter:
        with HttpClient(adapter.url) as client:
            client.predict_request(np.zeros((1, D)))
    assert nodelay and all(nodelay)


def test_unread_body_never_reaches_the_next_request(served):
    """A ``POST`` to an unknown route is answered without reading its
    body; the reply ends the connection, so the client's next request
    is not parsed out of the leftover body bytes."""
    group, _, http_srv = served
    x = np.random.default_rng(67).standard_normal((3, D))
    with HttpClient(http_srv.url) as client:
        status, payload = client._round_trip(
            "/nope", {"rows": x.tolist(), "pad": "x" * 4096}
        )
        assert status == 404 and payload["error"] == "not_found"
        np.testing.assert_array_equal(
            client.predict_request(x).values,
            np.asarray(sharded_predict(group, x)),
        )


_BODY = b'{"rows": [[0.0, 0.0, 0.0, 0.0]]}'


@pytest.mark.parametrize(
    "request_line, header, status",
    [
        ("POST /predict", "Content-Length: abc", 400),
        ("POST /predict", "Content-Length: 0", 400),
        ("POST /predict", f"Content-Length: {10**12}", 400),
        ("POST /predict", "Transfer-Encoding: chunked", 400),
        ("GET /healthz", f"Content-Length: {len(_BODY)}", 200),
    ],
    ids=["non-numeric-length", "zero-length", "huge-length", "chunked",
         "get-with-body"],
)
def test_reply_leaving_body_unread_closes_connection(
    served, request_line, header, status
):
    """A reply sent without reading the request's body says
    ``Connection: close`` and ends the connection."""
    _, _, http_srv = served
    with socket.create_connection((http_srv.host, http_srv.port), 30) as sock:
        sock.sendall(
            f"{request_line} HTTP/1.1\r\nHost: x\r\n{header}\r\n\r\n"
            .encode() + _BODY
        )
        reply = b""
        while chunk := sock.recv(65536):  # the server ends the connection
            reply += chunk
    head_bytes, _, payload = reply.partition(b"\r\n\r\n")
    assert head_bytes.startswith(f"HTTP/1.1 {status}".encode())
    assert b"Connection: close" in head_bytes
    json.loads(payload)  # one complete JSON reply, nothing after it


def test_closed_adapter_stops_serving_kept_alive_connections(served):
    """After close(), a client holding a live connection is never
    served again: its socket is shut down, the resend finds no
    listener, and the engine sees no further request."""
    group, _, _ = served
    engine = ModelServer(group=group)
    try:
        adapter = ServeHTTPServer(engine)
        client = HttpClient(adapter.url, timeout_s=10)
        x = np.zeros((1, D))
        client.predict_request(x)
        assert _handler_threads(adapter)  # the kept-alive connection
        counters = dict(engine.stats()["counters"])
        adapter.close()
        assert not _handler_threads(adapter)
        with pytest.raises((ShardError, ConnectionError)):
            client.predict_request(x)
        after = engine.stats()["counters"]
        for name in ("serve/requests", "serve/http_requests"):
            assert after.get(name, 0) == counters.get(name, 0), name
        client.close()
    finally:
        engine.close()
