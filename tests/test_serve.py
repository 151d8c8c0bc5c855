"""Serving-engine correctness suite (:mod:`repro.serve`).

The load-bearing contract is **bitwise parity**: any response produced
by the micro-batched :class:`~repro.serve.ModelServer` — however the
dispatcher happened to coalesce it — carries exactly the bits a solo
:func:`~repro.shard.sharded_predict` call on the same group would
produce.  The suite pins that across transports and shard counts, then
covers the service-hardening surface: drain-on-close semantics,
backpressure, one attempt per tick and its accounting, non-finite
outputs failing loudly, option validation, per-request span relay,
run-ID-stamped latency histograms, and the JSON snapshot export.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import use_precision
from repro.core.model import KernelModel
from repro.exceptions import ConfigurationError, ReproError, ShardError
from repro.instrument import OpMeter, meter_scope
from repro.kernels import GaussianKernel
from repro.observe import MetricsRegistry, Tracer, trace_scope
from repro.serve import ModelServer, PredictRequest, ServeOptions
from repro.serve.server import _LOCAL_TICK_SCALARS
from repro.shard import ProcessTransport, ShardGroup, sharded_predict

N, D, L = 193, 5, 3


def _transport_param(name: str):
    marks = []
    if name == "process" and not ProcessTransport.is_available():
        marks.append(pytest.mark.skip(reason="no fork-safe shared memory"))
    return pytest.param(name, marks=marks)


transports = pytest.mark.parametrize(
    "transport", [_transport_param("thread"), _transport_param("process")]
)
needs_process = pytest.mark.skipif(
    not ProcessTransport.is_available(), reason="no fork-safe shared memory"
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


def _inject(server: ModelServer, seam) -> list[bool]:
    """Route every tick of ``server`` through ``seam(real, inflight)``,
    ``real`` being the server's own tick seam — the one place a tick
    reaches the group on the local and the worker path alike.  Returns
    the ``local`` flag of each tick seen, so a test can check which path
    it exercised."""
    real = server._reduce_tick
    seen: list[bool] = []

    def wrapped(inflight):
        seen.append(inflight.local)
        return seam(real, inflight)

    server._reduce_tick = wrapped
    return seen


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


# --------------------------------------------------------------------------
# Local ticks: small ticks of an in-process NumPy group run on the
# dispatcher; large ticks and every other group's ticks go to the workers
# --------------------------------------------------------------------------


def _count_submits(group: ShardGroup) -> list[int]:
    """Count each executor's submit_metered calls from now on."""
    counts = [0] * group.g
    for i, ex in enumerate(group.executors):
        real = ex.submit_metered

        def counted(*args, _i=i, _real=real, **kwargs):
            counts[_i] += 1
            return _real(*args, **kwargs)

        ex.submit_metered = counted
    return counts


def test_small_ticks_never_reach_the_workers(problem):
    """A burst of small requests on a thread group is served without one
    submit_metered call: every tick runs on the dispatcher."""
    rng = np.random.default_rng(21)
    requests = [rng.standard_normal((r, D)) for r in (1, 2, 1, 3) * 8]
    with _build_group(problem, "thread", 2) as group:
        expected = [np.asarray(sharded_predict(group, x)) for x in requests]
        submits = _count_submits(group)
        with ModelServer(group=group) as server:
            futures = [server.submit_request(x) for x in requests]
            results = [f.result(timeout=60).values for f in futures]
        assert submits == [0, 0]
    assert server.stats()["counters"]["serve/batches"] >= 1
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)


def test_large_tick_goes_to_the_workers(problem):
    """A 1024-row tick whose block outgrows one tail tile still goes to
    the workers, one task each; a 1-row tick of the same group stays on
    the dispatcher."""
    kernel = problem[0]
    rng = np.random.default_rng(22)
    centers = rng.standard_normal((600, D))
    weights = rng.standard_normal((600, L))
    big, small = rng.standard_normal((1024, D)), rng.standard_normal((1, D))
    assert 1024 * 300 > _LOCAL_TICK_SCALARS >= 300
    with ShardGroup.build(
        centers, weights, g=2, kernel=kernel, transport="thread"
    ) as group:
        want_big = np.asarray(sharded_predict(group, big))
        want_small = np.asarray(sharded_predict(group, small))
        submits = _count_submits(group)
        with ModelServer(group=group) as server:
            got_big = server.predict_request(big, timeout=60).values
            assert submits == [1, 1]
            got_small = server.predict_request(small, timeout=60).values
            assert submits == [1, 1]
        # One request per tick: local ticks queue up behind a worker tick
        # still in flight, and every response keeps its bits and order.
        with ModelServer(
            group=group, options=ServeOptions(max_batch_requests=1)
        ) as server:
            mixed = [
                server.submit_request(x) for x in (big, small, big, small)
            ]
            got_mixed = [f.result(timeout=60).values for f in mixed]
        assert submits == [3, 3]
    np.testing.assert_array_equal(got_big, want_big)
    np.testing.assert_array_equal(got_small, want_small)
    for got, want in zip(got_mixed, (want_big, want_small) * 2):
        np.testing.assert_array_equal(got, want)


@needs_process
def test_process_tick_is_one_task_per_worker(problem):
    """On a process group every tick goes to the workers: rpc_count
    rises by exactly one task per worker per tick."""
    _, _, _, x = problem
    with _build_group(problem, "process", 2) as group:
        before = [ex.rpc_count for ex in group.executors]
        with ModelServer(group=group) as server:
            for i in range(5):
                server.predict_request(x[i : i + 1], timeout=60)
        ticks = server.stats()["counters"]["serve/batches"]
        after = [ex.rpc_count for ex in group.executors]
    assert ticks == 5
    assert [a - b for a, b in zip(after, before)] == [ticks] * 2


@transports
def test_closed_group_fails_ticks_with_shard_error(problem, transport):
    """A borrowed group closed under a live server fails each tick once
    with ShardError, on the local and the worker path: the tick seam is
    entered once per tick."""
    _, _, _, x = problem
    group = _build_group(problem, transport, 2)
    server = ModelServer(group=group)
    seen = _inject(server, lambda real, inflight: real(inflight))
    try:
        server.predict_request(x[:1], timeout=60)
        group.close()
        for _ in range(2):
            with pytest.raises(ShardError, match="closed"):
                server.predict_request(x[:1], timeout=60)
        counters = server.stats()["counters"]
        assert counters["serve/failed_requests"] == 2
        assert counters["serve/requests"] == 1
        assert seen == [transport == "thread"] * 3
    finally:
        server.close()
        group.close()


@pytest.mark.parametrize("precision", [np.float64, np.float32])
@pytest.mark.parametrize("g", [1, 2, 4])
def test_local_ticks_bitwise_vs_solo(problem, g, precision):
    """Local ticks mixing 0-, 1-, 4- and 7-row requests carry the bits
    of a solo sharded_predict per request, in every precision tier (the
    server serves under the precision active where it was built)."""
    rng = np.random.default_rng(23)
    requests = [rng.standard_normal((r, D)) for r in (0, 1, 4, 7, 1, 0, 7, 4)]
    with _build_group(problem, "thread", g) as group, use_precision(precision):
        expected = [np.asarray(sharded_predict(group, x)) for x in requests]
        submits = _count_submits(group)
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
        assert submits == [0] * g
    max_batch = server.stats()["histograms"]["serve/batch_requests"]["max"]
    assert max_batch >= 2, "dispatcher never coalesced; parity test is vacuous"
    for got, want in zip(results, expected):
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_local_tick_computes_inside_its_kernel_span(problem, monkeypatch):
    """A local tick's kernel_eval ops are recorded while its serve/kernel
    span is open — never inside serve/batch — and serve/kernel_s holds
    the same intervals."""
    _, _, _, x = problem
    records: list[tuple[OpMeter, str, float]] = []
    real_record = OpMeter.record

    def timed_record(self, category, ops):
        records.append((self, category, time.perf_counter()))
        real_record(self, category, ops)

    monkeypatch.setattr(OpMeter, "record", timed_record)
    tracer = Tracer()
    with _build_group(problem, "thread", 2) as group:
        with ModelServer(group=group) as server, trace_scope(tracer):
            for i in range(5):
                server.predict_request(x[2 * i : 2 * i + 2], timeout=60)
    kernel_spans = [
        (ev.start_s, ev.start_s + ev.duration_s, ev.duration_s)
        for ev in server.tracer.events if ev.name == "serve/kernel"
    ]
    batch_spans = [
        (ev.start_s, ev.start_s + ev.duration_s)
        for ev in tracer.events if ev.name == "serve/batch"
    ]
    evals = [
        t for meter, category, t in records
        if meter is server.meter and category == "kernel_eval"
    ]
    assert len(kernel_spans) == len(batch_spans) == 5
    assert len(evals) >= 5
    for t in evals:
        assert any(lo <= t <= hi for lo, hi, _ in kernel_spans)
        assert not any(lo <= t <= hi for lo, hi in batch_spans)
    assert server.metrics.histogram_values("serve/kernel_s") == [
        d for _, _, d in kernel_spans
    ]


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


def test_close_without_drain_fails_queued(problem, transport="thread"):
    """close(drain=False) fails still-queued futures with ShardError,
    counts each under failed (or abandoned, when its caller had already
    cancelled) and leaves the in-flight tick to complete."""
    with _build_group(problem, transport, 2) as group:
        entered, release = threading.Event(), threading.Event()

        def blocking_launch(real, inflight):
            entered.set()
            release.wait(timeout=30)
            return real(inflight)

        try:
            server = ModelServer(
                group=group,
                options=ServeOptions(max_batch_requests=1, batch_wait=0.0),
            )
            seen = _inject(server, blocking_launch)
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
            assert seen == [transport == "thread"]
        finally:
            release.set()


@needs_process
def test_close_without_drain_fails_queued_on_workers(problem):
    """The same, on a process group: the worker path."""
    test_close_without_drain_fails_queued(problem, "process")


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
        {"batch_wait": -1e-3},
        {"batch_wait": "adaptive"},
        {"batch_wait": "0.1s"},
        {"drain_timeout_s": 0.0},
        {"batch_wait": float("inf")},
        {"batch_wait": float("nan")},
        {"drain_timeout_s": float("inf")},
        {"drain_timeout_s": float("nan")},
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


def test_backpressure_queue_full(problem, transport="thread"):
    """Submissions past max_queue raise instead of queueing unboundedly."""
    with _build_group(problem, transport, 1) as group:
        entered, release = threading.Event(), threading.Event()

        def blocking_launch(real, inflight):
            entered.set()
            release.wait(timeout=30)
            return real(inflight)

        try:
            server = ModelServer(
                group=group,
                options=ServeOptions(max_batch_requests=1, max_queue=2),
            )
            seen = _inject(server, blocking_launch)
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
            assert set(seen) == {transport == "thread"}
        finally:
            release.set()


@needs_process
def test_backpressure_queue_full_on_workers(problem):
    """The same, on a process group: the worker path."""
    test_backpressure_queue_full(problem, "process")


# --------------------------------------------------------------------------
# Failure policy
# --------------------------------------------------------------------------


class _FailingPending:
    """A launched tick whose harvest raises ``error``."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def result(self):
        raise self.error


@pytest.mark.parametrize("at", ["launch", "harvest"])
def test_failed_tick_fails_its_batch_once(problem, at, transport="thread"):
    """A tick that raises at launch or at harvest enters the tick seam
    exactly once: every request it carries fails with the original
    error, serve/failed_requests counts the batch, the other requests
    are served with solo bits, and so is the next request."""
    _, _, _, x = problem
    error = ShardError(f"injected {at} failure")
    with _build_group(problem, transport, 2) as group:
        want = np.asarray(sharded_predict(group, x))
        ticks = []

        def failing_tick(real, inflight):
            ticks.append(inflight)
            if len(ticks) > 1:
                return real(inflight)
            if at == "launch":
                raise error
            return _FailingPending(error)

        server = ModelServer(
            group=group,
            options=ServeOptions(max_batch_requests=3, batch_wait=0.05),
        )
        seen = _inject(server, failing_tick)
        try:
            futures = [server.submit_request(x) for _ in range(3)]
            for f in futures:
                f.exception(timeout=60)
            failed = {id(req.future) for req in ticks[0].batch}
            for f in futures:
                if id(f) in failed:
                    assert f.exception() is error
                else:
                    np.testing.assert_array_equal(f.result().values, want)
            got = server.predict_request(x, timeout=60).values
        finally:
            server.close()
        counters = server.stats()["counters"]
    np.testing.assert_array_equal(got, want)
    assert failed
    assert counters["serve/failed_requests"] == len(failed)
    assert counters["serve/requests"] == 4 - len(failed)
    assert counters["serve/batches"] == len(ticks) - 1
    assert len({id(tick) for tick in ticks}) == len(ticks)
    assert seen == [transport == "thread"] * len(ticks)


@needs_process
@pytest.mark.parametrize("at", ["launch", "harvest"])
def test_failed_tick_fails_its_batch_once_on_workers(problem, at):
    """The same, on a process group: the worker path."""
    test_failed_tick_fails_its_batch_once(problem, at, "process")


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
