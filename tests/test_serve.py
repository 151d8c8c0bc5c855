"""Serving-engine correctness suite (:mod:`repro.serve`).

The load-bearing contract is **bitwise parity**: any response produced
by the micro-batched :class:`~repro.serve.ModelServer` — however the
dispatcher happened to coalesce it — carries exactly the bits a solo
:func:`~repro.shard.sharded_predict` call on the same group would
produce.  The suite pins that across transports and shard counts, then
covers the service-hardening surface: drain-on-close semantics,
backpressure, bounded retries and their accounting, non-finite
outputs failing loudly, option validation, per-request span relay,
run-ID-stamped latency histograms, and the JSON snapshot export.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.model import KernelModel
from repro.exceptions import ConfigurationError, ReproError, ShardError
from repro.instrument import OpMeter, meter_scope
from repro.kernels import GaussianKernel
from repro.observe import MetricsRegistry, Tracer, trace_scope
from repro.serve import ModelServer, PredictRequest, ServeOptions
from repro.shard import ShardGroup, sharded_predict, transport_available

N, D, L = 193, 5, 3


def _transport_param(name: str):
    marks = []
    if name == "process" and not transport_available("process"):
        marks.append(pytest.mark.skip(reason="no fork-safe shared memory"))
    return pytest.param(name, marks=marks)


transports = pytest.mark.parametrize(
    "transport", [_transport_param("thread"), _transport_param("process")]
)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((N, D))
    weights = rng.standard_normal((N, L))
    kernel = GaussianKernel(bandwidth=2.0)
    x = rng.standard_normal((37, D))
    return kernel, centers, weights, x


def _build_group(problem, transport: str, g: int) -> ShardGroup:
    kernel, centers, weights, _ = problem
    return ShardGroup.build(
        centers, weights, g=g, kernel=kernel, transport=transport
    )


# --------------------------------------------------------------------------
# Bitwise contract
# --------------------------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2])
@transports
def test_batched_bitwise_vs_solo_loop(problem, transport, g):
    """Concurrent batched responses == the per-request solo loop, bit
    for bit, on thread and process transports alike."""
    kernel, centers, weights, _ = problem
    rng = np.random.default_rng(11)
    requests = [rng.standard_normal((r, D)) for r in (1, 4, 1, 9, 2, 1, 6, 3)]
    with _build_group(problem, transport, g) as group:
        expected = [np.asarray(sharded_predict(group, x)) for x in requests]
        # A window plus a full-cohort budget forces real coalescing: the
        # tick must carry several requests for the parity claim to mean
        # anything (asserted below via the batch-size histogram).
        server = ModelServer(
            group=group,
            options=ServeOptions(
                max_batch_requests=len(requests), batch_wait=0.05
            ),
        )
        try:
            futures = [server.submit_request(x) for x in requests]
            results = [f.result(timeout=60).values for f in futures]
        finally:
            server.close()
        max_batch = server.stats()["histograms"]["serve/batch_requests"]["max"]
    for got, want in zip(results, expected):
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert max_batch >= 2, "dispatcher never coalesced; parity test is vacuous"


@pytest.mark.parametrize("g", [1, 2])
def test_batched_op_counts_match_solo_loop(problem, g):
    """A tick coalescing k requests records the kernel_eval and gemm
    totals of k solo sharded_predict calls on the server's meter."""
    rng = np.random.default_rng(12)
    requests = [rng.standard_normal((r, D)) for r in (1, 4, 0, 2, 7)]
    with _build_group(problem, "thread", g) as group:
        with meter_scope(OpMeter()) as solo:
            for x in requests:
                sharded_predict(group, x)
        server = ModelServer(
            group=group,
            options=ServeOptions(
                max_batch_requests=len(requests), batch_wait=0.2
            ),
        )
        try:
            futures = [server.submit_request(x) for x in requests]
            for f in futures:
                f.result(timeout=60)
        finally:
            server.close()
        batches = server.stats()["histograms"]["serve/batch_requests"]
    assert batches["max"] >= 2, "dispatcher never coalesced"
    served, want = server.meter.as_dict(), solo.as_dict()
    for category in ("kernel_eval", "gemm"):
        assert served[category] == want[category] > 0


@transports
def test_drain_on_close_resolves_burst(problem, transport):
    """close() with the default drain serves every queued request."""
    rng = np.random.default_rng(3)
    requests = [rng.standard_normal((2, D)) for _ in range(16)]
    with _build_group(problem, transport, 2) as group:
        expected = [np.asarray(sharded_predict(group, x)) for x in requests]
        server = ModelServer(group=group)
        futures = [server.submit_request(x) for x in requests]
        server.close()
        assert server.closed
        for f, want in zip(futures, expected):
            np.testing.assert_array_equal(f.result(timeout=0).values, want)
        # Borrowed group survives the server.
        assert not group.closed
        sharded_predict(group, requests[0])


def test_close_without_drain_fails_queued(problem):
    """close(drain=False) fails still-queued futures with ShardError,
    counts each under failed (or abandoned, when its caller had already
    cancelled) and leaves the in-flight tick to complete."""
    with _build_group(problem, "thread", 2) as group:
        entered, release = threading.Event(), threading.Event()
        real_async = group.map_allreduce_async

        def blocking_async(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return real_async(*args, **kwargs)

        group.map_allreduce_async = blocking_async
        try:
            server = ModelServer(
                group=group,
                options=ServeOptions(
                    max_batch_requests=1, pipeline_depth=1, batch_wait=0.0
                ),
            )
            inflight = server.submit_request(np.zeros((1, D)))
            assert entered.wait(timeout=10)
            queued = [
                server.submit_request(np.zeros((1, D))) for _ in range(3)
            ]
            assert queued[0].cancel()
            threading.Timer(0.2, release.set).start()
            server.close(drain=False)
            for f in queued[1:]:
                with pytest.raises(ShardError, match="closed"):
                    f.result(timeout=0)
            assert inflight.result(timeout=10).values.shape == (1, L)
            counters = server.stats()["counters"]
            assert counters["serve/failed_requests"] == 2
            assert counters["serve/abandoned_requests"] == 1
            assert counters["serve/requests"] == 1
        finally:
            group.map_allreduce_async = real_async
            release.set()


# --------------------------------------------------------------------------
# Shape contract
# --------------------------------------------------------------------------


@transports
def test_zero_row_request(problem, transport):
    """A (0, d) request resolves to a well-formed (0, l) result."""
    with _build_group(problem, transport, 2) as group:
        with ModelServer(group=group) as server:
            out = server.predict_request(
                np.empty((0, D)), timeout=60
            ).values
    assert out.shape == (0, L)
    assert out.dtype == np.float64


def test_single_sample_squeeze(problem):
    """(d,) input resolves to its (l,) result row."""
    kernel, centers, weights, x = problem
    with _build_group(problem, "thread", 2) as group:
        want = np.asarray(sharded_predict(group, x[:1]))[0]
        with ModelServer(group=group) as server:
            got = server.predict_request(x[0], timeout=60).values
    assert got.shape == (L,)
    np.testing.assert_array_equal(got, want)


def test_mixed_zero_row_in_batch(problem):
    """Zero-row requests coalesced with real ones stay well-formed."""
    rng = np.random.default_rng(5)
    with _build_group(problem, "thread", 2) as group:
        xs = [rng.standard_normal((3, D)), np.empty((0, D)),
              rng.standard_normal((2, D))]
        expected = [np.asarray(sharded_predict(group, x)) for x in xs]
        server = ModelServer(
            group=group,
            options=ServeOptions(max_batch_requests=3, batch_wait=0.05),
        )
        try:
            futures = [server.submit_request(x) for x in xs]
            for f, want in zip(futures, expected):
                np.testing.assert_array_equal(
                    f.result(timeout=60).values, want
                )
        finally:
            server.close()


# --------------------------------------------------------------------------
# Options and constructor validation
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_batch_requests": 0},
        {"max_batch_rows": 0},
        {"max_queue": 0},
        {"max_scalars": 0},
        {"pipeline_depth": 0},
        {"max_retries": -1},
        {"retry_backoff_s": -0.1},
        {"batch_wait": -1e-3},
        {"drain_timeout_s": 0.0},
    ],
)
def test_options_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ServeOptions(**kwargs)


def test_constructor_validation(problem):
    kernel, centers, weights, _ = problem
    model = KernelModel(kernel=kernel, centers=centers, weights=weights)
    with _build_group(problem, "thread", 1) as group:
        with pytest.raises(ConfigurationError, match="exactly one"):
            ModelServer(model, group=group)
        with pytest.raises(ConfigurationError, match="exactly one"):
            ModelServer()
        with pytest.raises(ConfigurationError, match="ServeOptions"):
            ModelServer(group=group, options={"max_batch_requests": 4})
    # group is now closed by the context manager:
    with pytest.raises(ConfigurationError, match="closed"):
        ModelServer(group=group)
    kernelless = ShardGroup.build(centers, weights, g=1, transport="thread")
    try:
        with pytest.raises(ConfigurationError, match="kernel"):
            ModelServer(group=kernelless)
    finally:
        kernelless.close()


def test_request_validation(problem):
    with _build_group(problem, "thread", 1) as group:
        with ModelServer(group=group) as server:
            with pytest.raises(ConfigurationError, match="features"):
                server.submit_request(np.zeros((2, D + 1)))
            with pytest.raises(ConfigurationError, match=r"\(b, d\)"):
                server.submit_request(np.zeros((2, 2, D)))


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)
def test_non_finite_rows_rejected_others_unaffected(problem, bad):
    """A NaN/inf row is refused at enqueue, never served as a NaN
    prediction; requests around it are served bit for bit."""
    _, _, _, x = problem
    poisoned = x[:3].copy()
    poisoned[1, 2] = bad
    with _build_group(problem, "thread", 2) as group:
        want = np.asarray(sharded_predict(group, x))
        with ModelServer(
            group=group,
            options=ServeOptions(max_batch_requests=4, batch_wait=0.02),
        ) as server:
            good = [server.submit_request(x) for _ in range(2)]
            with pytest.raises(ConfigurationError, match="finite"):
                server.submit_request(poisoned)
            with pytest.raises(ConfigurationError, match="finite"):
                server.submit_request(PredictRequest(rows=poisoned[1]))
            good.append(server.submit_request(x))
            for f in good:
                np.testing.assert_array_equal(
                    f.result(timeout=60).values, want
                )
        assert server.stats()["counters"]["serve/requests"] == len(good)


# --------------------------------------------------------------------------
# Lifecycle
# --------------------------------------------------------------------------


def test_submit_after_close_raises_and_close_is_idempotent(problem):
    with _build_group(problem, "thread", 1) as group:
        server = ModelServer(group=group)
        server.close()
        server.close()  # idempotent
        assert server.closed
        with pytest.raises(ShardError, match="closed"):
            server.submit_request(np.zeros((1, D)))


def test_owned_group_closes_with_server(problem):
    kernel, centers, weights, x = problem
    model = KernelModel(kernel=kernel, centers=centers, weights=weights)
    server = ModelServer(model, g=2, transport="thread")
    want = np.asarray(sharded_predict(server.group, x))
    got = server.predict_request(x, timeout=60).values
    np.testing.assert_array_equal(got, want)
    server.close()
    assert server.group.closed


def test_backpressure_queue_full(problem):
    """Submissions past max_queue raise instead of queueing unboundedly."""
    with _build_group(problem, "thread", 1) as group:
        entered, release = threading.Event(), threading.Event()
        real_async = group.map_allreduce_async

        def blocking_async(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return real_async(*args, **kwargs)

        group.map_allreduce_async = blocking_async
        try:
            server = ModelServer(
                group=group,
                options=ServeOptions(
                    max_batch_requests=1, pipeline_depth=1, max_queue=2
                ),
            )
            first = server.submit_request(np.zeros((1, D)))
            assert entered.wait(timeout=10)
            queued = [
                server.submit_request(np.zeros((1, D))) for _ in range(2)
            ]
            with pytest.raises(ShardError, match="full"):
                server.submit_request(np.zeros((1, D)))
            release.set()
            for f in [first, *queued]:
                assert f.result(timeout=30).values.shape == (1, L)
            server.close()
        finally:
            group.map_allreduce_async = real_async
            release.set()


# --------------------------------------------------------------------------
# Failure policy
# --------------------------------------------------------------------------


class _FailingPending:
    def result(self):
        raise ShardError("injected async tick failure")


def test_retry_recovers_and_is_metered(problem):
    """A failed async tick is retried synchronously; the response still
    carries solo bits and serve/retries records the one retry."""
    _, _, _, x = problem
    with _build_group(problem, "thread", 1) as group:
        want = np.asarray(sharded_predict(group, x))
        real_async = group.map_allreduce_async
        fail_once = {"armed": True}

        def flaky_async(*args, **kwargs):
            if fail_once["armed"]:
                fail_once["armed"] = False
                return _FailingPending()
            return real_async(*args, **kwargs)

        group.map_allreduce_async = flaky_async
        try:
            server = ModelServer(
                group=group,
                options=ServeOptions(max_retries=1, retry_backoff_s=0.0),
            )
            resp = server.predict_request(x, timeout=60)
            server.close()
        finally:
            group.map_allreduce_async = real_async
        np.testing.assert_array_equal(resp.values, want)
        assert resp.retries == 1
        counters = server.stats()["counters"]
        assert counters.get("serve/retries", 0) == 1
        assert counters.get("serve/failed_requests", 0) == 0


@pytest.mark.parametrize("max_retries", [0, 1, 2])
def test_exhausted_retries_fail_futures(problem, max_retries):
    """When every attempt dies, the batch's futures carry the error and
    serve/failed_requests counts them; serve/retries counts exactly the
    retries made — the server stays usable."""
    _, _, _, x = problem
    with _build_group(problem, "thread", 1) as group:
        real_async = group.map_allreduce_async
        real_sync = group.map_allreduce
        group.map_allreduce_async = lambda *a, **k: _FailingPending()
        sync_calls = []

        def failing_sync(*args, **kwargs):
            sync_calls.append(1)
            raise ShardError("injected sync tick failure")

        group.map_allreduce = failing_sync
        try:
            server = ModelServer(
                group=group,
                options=ServeOptions(
                    max_retries=max_retries, retry_backoff_s=0.0
                ),
            )
            fut = server.submit_request(x)
            with pytest.raises(ShardError):
                fut.result(timeout=60)
            counters = server.stats()["counters"]
            assert counters.get("serve/failed_requests", 0) == 1
            assert counters.get("serve/retries", 0) == max_retries
            assert len(sync_calls) == max_retries
        finally:
            group.map_allreduce_async = real_async
            group.map_allreduce = real_sync
        # Engine recovers once the fault clears.
        got = server.predict_request(x, timeout=60).values
        server.close()
        np.testing.assert_array_equal(
            got, np.asarray(sharded_predict(group, x))
        )


def test_failed_launch_runs_attempt_zero_synchronously(problem):
    """A tick whose launch raised runs attempt 0 as a synchronous call:
    served without a retry."""
    _, _, _, x = problem
    with _build_group(problem, "thread", 1) as group:
        real_async = group.map_allreduce_async

        def broken_launch(*args, **kwargs):
            raise RuntimeError("injected launch failure")

        group.map_allreduce_async = broken_launch
        try:
            with ModelServer(group=group) as server:
                resp = server.predict_request(x, timeout=60)
        finally:
            group.map_allreduce_async = real_async
        np.testing.assert_array_equal(
            resp.values, np.asarray(sharded_predict(group, x))
        )
        assert resp.retries == 0
        assert server.stats()["counters"].get("serve/retries", 0) == 0


def test_nan_weight_fails_requests_not_served(problem):
    """A model with one NaN weight poisons that output column for every
    request: each fails with a ReproError naming its request id and is
    counted under serve/failed_requests, never as a served request."""
    kernel, centers, weights, x = problem
    weights = weights.copy()
    weights[0, 0] = np.nan
    model = KernelModel(kernel=kernel, centers=centers, weights=weights)
    with ModelServer(model, g=2, transport="thread") as server:
        with pytest.raises(ReproError, match="r-nan"):
            server.predict_request(
                PredictRequest(rows=x[:2], request_id="r-nan"), timeout=60
            )
        counters = server.stats()["counters"]
    assert counters["serve/failed_requests"] == 1
    assert counters.get("serve/requests", 0) == 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_output_fails_only_its_request(problem):
    """Non-finite rows fail their own request; the other requests of the
    same tick resolve with their solo bits."""
    kernel, centers, weights, x = problem
    centers, weights = centers.copy(), weights.copy()
    # Two far-away centers whose weights sum past float max: a row next
    # to them predicts inf, a row near the others sees K = 0 there.
    centers[:2] = 50.0
    weights[:2] = 1e308
    with ShardGroup.build(
        centers, weights, g=2, kernel=kernel, transport="thread"
    ) as group:
        want = np.asarray(sharded_predict(group, x))
        server = ModelServer(
            group=group,
            options=ServeOptions(max_batch_requests=3, batch_wait=0.05),
        )
        try:
            bad = server.submit_request(
                PredictRequest(rows=centers[:1], request_id="r-inf")
            )
            good = [server.submit_request(x) for _ in range(2)]
            with pytest.raises(ReproError, match="r-inf"):
                bad.result(timeout=60)
            for f in good:
                np.testing.assert_array_equal(
                    f.result(timeout=60).values, want
                )
        finally:
            server.close()
        max_batch = server.stats()["histograms"]["serve/batch_requests"]["max"]
    counters = server.stats()["counters"]
    assert counters["serve/failed_requests"] == 1
    assert counters["serve/requests"] == 2
    assert max_batch >= 2, "dispatcher never coalesced; test is vacuous"


# --------------------------------------------------------------------------
# Observability
# --------------------------------------------------------------------------


def test_latency_histograms_and_run_id(problem):
    _, _, _, x = problem
    registry = MetricsRegistry(run_id={"id": "serve-test-run"})
    with _build_group(problem, "thread", 2) as group:
        with ModelServer(group=group, metrics=registry) as server:
            for _ in range(12):
                server.predict_request(x[:2], timeout=60)
            snapshot = server.stats()
    assert snapshot["run_id"]["id"] == "serve-test-run"
    for name in ("serve/queue_s", "serve/request_s"):
        hist = snapshot["histograms"][name]
        assert hist["count"] == 12
        for q in ("p50", "p95", "p99"):
            assert np.isfinite(hist[q])
    assert snapshot["histograms"]["serve/request_s"]["p50"] >= 0.0
    assert snapshot["counters"]["serve/requests"] == 12


def test_span_relay_is_per_caller(problem):
    """Each caller's tracer receives exactly its own request's serving
    spans — a concurrent caller's spans never leak in."""
    _, _, _, x = problem
    with _build_group(problem, "thread", 2) as group:
        server = ModelServer(
            group=group,
            options=ServeOptions(max_batch_requests=4, batch_wait=0.05),
        )
        tracers = [Tracer(), Tracer()]
        barrier = threading.Barrier(3)

        def traced_client(tracer: Tracer) -> None:
            with trace_scope(tracer):
                barrier.wait(timeout=10)
                server.predict_request(x[:3], timeout=60)

        def untraced_client() -> None:
            barrier.wait(timeout=10)
            server.predict_request(x[:2], timeout=60)

        threads = [
            threading.Thread(target=traced_client, args=(tracers[0],)),
            threading.Thread(target=traced_client, args=(tracers[1],)),
            threading.Thread(target=untraced_client),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.close()
    for tracer in tracers:
        counts = tracer.counts()
        for name in ("serve/queue", "serve/batch", "serve/kernel",
                     "serve/scatter"):
            assert counts.get(name, 0) == 1, (name, counts)


def test_export_writes_json_snapshot(problem, tmp_path):
    _, _, _, x = problem
    with _build_group(problem, "thread", 1) as group:
        with ModelServer(group=group) as server:
            server.predict_request(x[:1], timeout=60)
            out = tmp_path / "snapshot.json"
            server.export(out)
    import json

    payload = json.loads(out.read_text())
    assert payload["counters"]["serve/requests"] == 1


# --------------------------------------------------------------------------
# serve-report experiment
# --------------------------------------------------------------------------


def test_serve_report_experiment_smoke():
    from repro.experiments.serve_report import (
        ServeReportConfig,
        run_serve_report,
    )

    result = run_serve_report(
        ServeReportConfig(
            n=199, d=4, l=2, g=2, transport="thread",
            n_clients=3, requests_per_client=2, rows_per_request=3,
        )
    )
    claims = {c.claim_id: c for c in result.claims}
    assert set(claims) >= {"serve/batched-bitwise", "serve/drain-on-close"}
    for claim in result.claims:
        assert claim.holds, claim.claim_id
