"""The micro-batched in-process prediction server.

See :mod:`repro.serve` for the architecture overview.  This module holds
the two public pieces — :class:`ServeOptions` (validated serving knobs)
and :class:`ModelServer` (the persistent session).  The serving task
every transport ships to its workers is the shards' one matvec task,
:func:`repro.shard.ops._serve_batch_task`.

Bitwise contract
----------------
The dispatcher coalesces concurrent requests into one task per shard
and one all-reduce per tick, but each request's rows are computed as the
request's *own* kernel blocks: inside the shard task
(:func:`repro.shard.ops._serve_batch_task`) the streamed
:func:`~repro.kernels.ops.kernel_matvec` forms exactly the blocks a solo
call over that request would.  A single coalesced ``(B, n)`` GEMM would
be faster still, yet BLAS does not guarantee that a row of a batched
product equals the same row computed alone — so it
could not keep the serving invariant this repo's suite pins: *a batched
response is bit-identical to the per-request*
:func:`~repro.shard.sharded_predict` *loop*.  Segment-wise evaluation
reproduces the per-request arithmetic exactly, and the element-wise
all-reduce is row-stable, so bitwise parity holds by construction while
the tick still pays one collective for the whole batch.

Where the task runs does not change its bits.  A *local* tick — one of
a group whose shards live in this process on host NumPy arrays (the
thread transport with NumPy backends), whose rows times the largest
shard's center count fit one tail tile of the NumPy backend
(``_LOCAL_TICK_SCALARS``) — runs the task for each shard in shard order
on the dispatcher thread and sums the partials with the group's
``allreduce``: the same function on the same arrays with the same
shard-order sum as the workers.  Such a block runs its tail on one
thread wherever it runs, so the worker hop would buy it nothing.  Every
other tick makes one round trip to the workers.  Either way the
dispatcher serves one tick at a time: it forms the cohort, runs the
tick to completion, scatters its rows, and only then forms the next.

Scheduling
----------
Cohort formation is *priority-then-FIFO with deadline shedding*: at
each tick the dispatcher first sheds every queued request whose
:attr:`~repro.serve.PredictRequest.deadline_s` has already expired —
their futures fail with :class:`~repro.exceptions.DeadlineExceeded`
*before* any shard work runs, so an already-late caller never consumes
tick capacity other requests could use (``serve/shed_requests`` counts
them).  Surviving requests are ordered by descending priority (stable,
so equal priorities keep arrival order) and the cohort budgets
(``max_batch_requests`` / ``max_batch_rows``) are filled from the
front.  Sustained high-priority load can therefore
starve low-priority requests — that is the policy, not an accident;
latency-sensitive deployments bound the damage with deadlines, which
turn starvation into fast, observable shedding.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import pathlib
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.backend import NumpyBackend, get_backend, to_numpy, use_backend
from repro.backend.numpy_backend import _TILE_BYTES
from repro.config import (
    DEFAULT_BLOCK_SCALARS,
    current_precision,
    use_precision,
)
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    ReproError,
    ShardError,
)
from repro.instrument import (
    OpMeter,
    SpanEvent,
    Telemetry,
    Tracer,
    capture,
    meter_scope,
    record_span,
    trace_scope,
)
from repro.observe.metrics import MetricsRegistry
from repro.serve.api import PredictRequest, PredictResponse, is_integer
from repro.shard.group import ShardGroup
from repro.shard.ops import _serve_batch_task
from repro.shard.transport.base import ShardWorker

__all__ = ["ModelServer", "ServeOptions"]

_LOG = logging.getLogger("repro.serve")

#: Largest local tick: its rows times its group's largest shard center
#: count, in scalars, may fill one float64 row tile of the NumPy
#: backend's kernel tail.  A block below one tile runs its tail on the
#: calling thread anyway, so a worker hop buys such a tick no
#: parallelism, only the hop.
_LOCAL_TICK_SCALARS = _TILE_BYTES // np.dtype(np.float64).itemsize


@dataclass(frozen=True)
class ServeOptions:
    """Validated micro-batching knobs for a :class:`ModelServer`.

    Attributes
    ----------
    max_batch_requests:
        Most requests one dispatcher tick coalesces.
    batch_wait:
        Micro-batching window in seconds: once a request is waiting, how
        long the dispatcher keeps listening for more arrivals before
        launching the tick (it launches early the moment
        ``max_batch_requests`` are queued, and never waits while
        closing).  ``0`` — the default
        — is latency-first: a tick launches the instant the dispatcher
        is free.  Throughput-oriented deployments set a window on the
        order of the inter-arrival jitter so one tick coalesces a full
        cohort of concurrent callers instead of whatever fraction had
        arrived first.  No tick runs while the window is open, so every
        second of it adds to the dispatch latency of the requests it
        waits for.
    max_batch_rows:
        Row budget per tick: a request that would push the batch past it
        waits for the next tick (a single over-budget request still runs
        alone — ticks always make progress).
    max_queue:
        Backpressure bound: :meth:`ModelServer.submit_request` raises
        :class:`~repro.exceptions.ShardError` when this many requests are
        already waiting, instead of queueing unboundedly.
    max_scalars:
        Per-shard streamed-block budget, forwarded to each worker's
        :func:`~repro.kernels.ops.kernel_matvec` (the same knob
        :func:`~repro.shard.sharded_predict` takes — it must match for
        the bitwise contract).
    drain_timeout_s:
        How long :meth:`ModelServer.close` waits for the dispatcher to
        drain queued requests.
    """

    max_batch_requests: int = 64
    batch_wait: float = 0.0
    max_batch_rows: int = 4096
    max_queue: int = 4096
    max_scalars: int = DEFAULT_BLOCK_SCALARS
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        for name in (
            "max_batch_requests", "max_batch_rows", "max_queue",
            "max_scalars",
        ):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {value!r} "
                    "(a tick must be able to make progress)"
                )
            object.__setattr__(self, name, int(value))
        # Both are passed to a thread wait, which overflows on inf; the
        # comparisons also refuse NaN.
        if not 0 < float(self.drain_timeout_s) < math.inf:
            raise ConfigurationError(
                "drain_timeout_s must be finite seconds > 0, got "
                f"{self.drain_timeout_s!r}"
            )
        if isinstance(self.batch_wait, (str, bytes)):
            raise ConfigurationError(
                f"batch_wait must be seconds >= 0, got {self.batch_wait!r}"
            )
        wait = float(self.batch_wait)
        if not 0 <= wait < math.inf:
            raise ConfigurationError(
                f"batch_wait must be finite seconds >= 0, got {wait!r}"
            )
        object.__setattr__(self, "batch_wait", wait)


@dataclass
class _Request:
    """One queued predict request (the dispatcher's internal view of a
    :class:`~repro.serve.PredictRequest`)."""

    x: np.ndarray
    future: Future
    #: The submitting thread's telemetry, captured at submit time.
    telemetry: Telemetry
    enqueued_s: float
    squeeze: bool = False
    priority: int = 0
    #: Absolute ``time.perf_counter()`` deadline; ``None`` never sheds.
    deadline: float | None = None
    request_id: str = ""

    @property
    def rows(self) -> int:
        return int(self.x.shape[0])


class ModelServer:
    """A persistent in-process serving session over a shard group.

    Exactly one of ``model`` / ``group``:

    - ``ModelServer(model, g=2, transport="thread")`` shards a fitted
      :class:`~repro.core.model.KernelModel`'s centers/weights across a
      fresh group the server *owns* (closed with the server);
    - ``ModelServer(group=group)`` borrows a live, already-loaded
      group (any :class:`~repro.shard.ShardGroup`, i.e. any
      :class:`~repro.shard.transport.ShardTransport`) — closing the
      server drains requests but leaves it open.

    Request lifecycle: :meth:`submit_request` (or the blocking
    :meth:`predict_request`) validates the input, snapshots the
    caller's active tracers, and enqueues a future; the dispatcher
    thread sheds queued requests whose deadline already expired
    (futures fail with :class:`~repro.exceptions.DeadlineExceeded`, no
    tick consumed), coalesces the survivors in priority-then-FIFO order
    (up to the :class:`ServeOptions` budgets) into one tick, runs
    :func:`_serve_batch_task` for it — on the dispatcher thread for a
    local tick (see the module docstring), else through the group's
    fused ``map_allreduce``, one task round-trip per shard — sums the
    partials with one collective, and scatters per-request
    :class:`~repro.serve.PredictResponse` objects back to the futures.
    One tick runs at a time: the next cohort forms only after the last
    one is scattered.  The tick's compute and collective fall inside its
    ``serve/kernel`` span on either path.  Before a future resolves,
    ``serve/{queue,batch,kernel,scatter}`` spans are relayed to the
    tracers captured at submit time (the same relay discipline as
    worker spans), and per-request latencies land in the server's
    run-ID-stamped :class:`~repro.observe.MetricsRegistry`
    (``serve/queue_s`` / ``serve/request_s`` histograms — p50/p95/p99 in
    :meth:`stats`).

    Op counts land once, on :attr:`meter`: a worker tick's shard deltas
    are relayed there, a local tick records there directly.  A local
    tick therefore never reaches the shards' private meters, so on a
    thread group ``group.op_counts()`` no longer sees it; read
    :attr:`meter`.  The dispatcher serves under the precision
    (:func:`~repro.config.use_precision`) active where the server was
    built, as :func:`~repro.shard.sharded_predict` called there would.

    Failure policy: each tick is attempted once.  A tick that raises
    fails its whole batch's futures with that error; the errors a tick
    can meet (a closed group or executor, a dead worker) are permanent,
    so a retry could only fail again.  A request whose prediction is
    non-finite (NaN or inf in the model) fails alone with
    :class:`~repro.exceptions.ReproError` while the rest of its tick
    resolves.  Every admitted request ends in exactly one of
    ``serve/requests``, ``serve/shed_requests``,
    ``serve/abandoned_requests`` or ``serve/failed_requests``.
    :meth:`submit_request` after :meth:`close` raises
    :class:`~repro.exceptions.ShardError`; close itself drains the queue
    (every queued future resolves) and is idempotent.
    """

    def __init__(
        self,
        model: Any | None = None,
        *,
        group: ShardGroup | None = None,
        g: int = 1,
        transport: str = "thread",
        options: ServeOptions | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if (model is None) == (group is None):
            raise ConfigurationError(
                "pass exactly one of model=<fitted KernelModel> or "
                "group=<live ShardGroup>"
            )
        self.options = options if options is not None else ServeOptions()
        if not isinstance(self.options, ServeOptions):
            raise ConfigurationError(
                f"options must be a ServeOptions, got "
                f"{type(self.options).__name__}"
            )
        if group is not None:
            if group.closed:
                raise ConfigurationError("group is closed; serve a live one")
            self.kernel = group.kernel
            if self.kernel is None:
                raise ConfigurationError(
                    "group has no kernel: build it with kernel=..."
                )
            if any(ex.weights is None for ex in group.executors):
                raise ConfigurationError("group executors hold no weights")
            self.group = group
            self._owns_group = False
        else:
            self.kernel = model.kernel
            self.group = ShardGroup.build(
                np.asarray(to_numpy(model.centers)),
                np.asarray(to_numpy(model.weights)),
                g=g,
                kernel=self.kernel,
                transport=transport,
            )
            self._owns_group = True
        ex0 = self.group.executors[0]
        self._d = int(ex0.centers.shape[1])
        #: The largest shard's center count when every shard's state
        #: lives in this process on host NumPy arrays (the executors are
        #: the workers: thread transport, NumPy backends), else ``None``
        #: — small ticks of such a group run on the dispatcher.
        self._local_centers = (
            max(ex.n_centers for ex in self.group.executors)
            if all(
                isinstance(ex, ShardWorker)
                and isinstance(ex.backend, NumpyBackend)
                for ex in self.group.executors
            )
            else None
        )
        #: The precision active where the server was built; the
        #: dispatcher serves under it.
        self._precision = current_precision()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Server-owned observability: the dispatcher runs under these,
        #: so every tick's spans and op counts land here — relayed from
        #: the workers, or recorded directly by a local tick
        #: (per-request spans additionally go to the submitting caller's
        #: tracers).
        self.tracer = Tracer()
        self.meter = OpMeter()
        self._queue: deque[_Request] = deque()
        self._cv = threading.Condition()
        self._closing = False
        self._closed = False
        self._run_id = str(self.metrics.run_id.get("id", ""))
        self._run_short = self._run_id[:8]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-serve-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()
        _LOG.info(
            "serve.open run=%s transport=%s g=%d owns_group=%s "
            "max_batch_requests=%d max_batch_rows=%d",
            self._run_short, self.group.name, self.group.g,
            self._owns_group, self.options.max_batch_requests,
            self.options.max_batch_rows,
        )

    # -------------------------------------------------------------- requests
    def submit_request(self, request: Any) -> Future:
        """Enqueue one request; the future resolves to a
        :class:`~repro.serve.PredictResponse` (values + run id +
        queue/batch timings).

        ``request`` is a :class:`~repro.serve.PredictRequest` or a raw
        ``(b, d)`` / ``(d,)`` array (wrapped with default QoS).  Its
        ``values`` carry the bits a solo
        :func:`~repro.shard.sharded_predict` call on the group would
        return (a ``(d,)`` sample resolves to its one ``(l,)`` row).  A
        request shed on deadline fails with
        :class:`~repro.exceptions.DeadlineExceeded`; one whose
        prediction comes back non-finite fails with
        :class:`~repro.exceptions.ReproError`.
        """
        if not isinstance(request, PredictRequest):
            request = PredictRequest(rows=request)
        x_host = np.asarray(to_numpy(request.rows))
        squeeze = x_host.ndim == 1
        if squeeze:
            x_host = x_host[None, :]
        if x_host.ndim != 2:
            raise ConfigurationError(
                f"request must be (b, d) or (d,), got shape {x_host.shape}"
            )
        if x_host.shape[1] != self._d:
            raise ConfigurationError(
                f"request has {x_host.shape[1]} features, model expects "
                f"{self._d}"
            )
        if x_host.dtype.kind in "fc" and not np.isfinite(x_host).all():
            # A NaN or inf row would come back as a NaN prediction that
            # looks like a success; refuse it here, before it queues.
            raise ConfigurationError(
                "request rows must be finite (got NaN or inf)"
            )
        now = time.perf_counter()
        req = _Request(
            x=x_host,
            future=Future(),
            telemetry=capture(),
            enqueued_s=now,
            squeeze=squeeze,
            priority=int(request.priority),
            deadline=(
                None if request.deadline_s is None
                else now + float(request.deadline_s)
            ),
            request_id=request.request_id,
        )
        with self._cv:
            if self._closing:
                raise ShardError(
                    "server is closed and no longer accepts requests"
                )
            if len(self._queue) >= self.options.max_queue:
                raise ShardError(
                    f"serve queue is full ({self.options.max_queue} "
                    "requests waiting): back off and retry"
                )
            self._queue.append(req)
            self._cv.notify()
        return req.future

    def predict_request(
        self, request: Any, timeout: float | None = None
    ) -> PredictResponse:
        """Blocking predict: :meth:`submit_request` + ``Future.result()``.

        On timeout the queued future is *cancelled* before the
        ``TimeoutError`` propagates: a departed caller's request must
        not occupy cohort budget, and its serving spans must not be
        relayed into a tracer scope that has moved on.  Cancellation
        only wins while the request is still queued — once the
        dispatcher has claimed it for a tick it completes normally
        (the result is simply dropped).
        """
        future = self.submit_request(request)
        try:
            return future.result(timeout)
        except (_FutureTimeout, TimeoutError):
            future.cancel()
            raise

    # ------------------------------------------------------------ dispatcher
    def _pop_batch_locked(
        self, now: float
    ) -> tuple[list[_Request], list[_Request], list[_Request]]:
        """Form one cohort under the queue lock.

        Returns ``(batch, shed, abandoned)``: the tick's cohort in
        priority-then-FIFO order, the requests whose deadline expired
        before dispatch (to be failed with
        :class:`~repro.exceptions.DeadlineExceeded` — *outside* the
        lock, since resolving a future may run caller callbacks), and
        the requests whose caller cancelled while they queued (a
        :meth:`predict_request` timeout).  All three are removed from the
        queue; cohort members are *claimed* via
        ``Future.set_running_or_notify_cancel`` so a late caller-side
        cancel can no longer race the tick.
        """
        shed: list[_Request] = []
        live: list[_Request] = []
        for req in self._queue:
            if req.deadline is not None and now >= req.deadline:
                shed.append(req)
            else:
                live.append(req)
        # Highest priority first; python's sort is stable, so requests
        # of equal priority keep their arrival (FIFO) order.
        ordered = sorted(live, key=lambda r: -r.priority)
        batch: list[_Request] = []
        abandoned: list[_Request] = []
        rows = 0
        for req in ordered:
            if batch and (
                len(batch) >= self.options.max_batch_requests
                or rows + req.rows > self.options.max_batch_rows
            ):
                # Budgets full (the first request always rides, however
                # large — ticks must make progress).
                break
            if not req.future.set_running_or_notify_cancel():
                abandoned.append(req)
                continue
            batch.append(req)
            rows += req.rows
        taken = {id(r) for part in (batch, shed, abandoned) for r in part}
        self._queue = deque(
            r for r in self._queue if id(r) not in taken
        )
        return batch, shed, abandoned

    def _shed_expired(self, shed: list[_Request], now: float) -> None:
        """Fail expired requests fast — before any shard work runs."""
        for req in shed:
            overdue = now - req.deadline if req.deadline is not None else 0.0
            try:
                req.future.set_exception(
                    DeadlineExceeded(
                        f"request {req.request_id or '<anonymous>'} shed: "
                        f"deadline expired {overdue:.6f}s before its tick "
                        "was formed (no shard work was spent on it)"
                    )
                )
            except InvalidStateError:
                # The caller cancelled in the same instant; either way
                # the request is dead without consuming a tick.
                pass
        self.metrics.inc("serve/shed_requests", len(shed))
        _LOG.info(
            "serve.shed run=%s requests=%d queue_now=%d",
            self._run_short, len(shed), len(self._queue),
        )

    def _dispatch_loop(self) -> None:
        precision = (
            use_precision(self._precision)
            if self._precision is not None
            else contextlib.nullcontext()
        )
        with precision, meter_scope(self.meter), trace_scope(self.tracer):
            while True:
                with self._cv:
                    while not self._queue and not self._closing:
                        self._cv.wait()
                    if not self._queue:
                        return  # closing and drained
                    # Micro-batching window: keep listening for arrivals
                    # until the cohort is full, the window expires, or
                    # the server starts closing.  Each submit notifies
                    # the condition, so a wait only wakes on growth or
                    # timeout.
                    wait_s = self.options.batch_wait
                    if wait_s > 0.0:
                        deadline = time.perf_counter() + wait_s
                        while (
                            len(self._queue) < self.options.max_batch_requests
                            and not self._closing
                        ):
                            remaining = deadline - time.perf_counter()
                            if (
                                remaining <= 0.0
                                or not self._cv.wait(remaining)
                            ):
                                break
                    batch, shed, abandoned = self._pop_batch_locked(
                        time.perf_counter()
                    )
                # Future resolution and metrics happen outside the
                # queue lock: set_exception may run caller callbacks.
                if shed:
                    self._shed_expired(shed, time.perf_counter())
                if abandoned:
                    self.metrics.inc(
                        "serve/abandoned_requests", len(abandoned)
                    )
                if batch:
                    self._serve_batch(batch)

    def _reduce_tick(
        self, x: np.ndarray, bounds: tuple[tuple[int, int], ...], local: bool
    ) -> Any:
        """Run one tick's fused map + all-reduce; returns the sum or
        raises.

        The one place a tick reaches the group, on both paths.  A local
        tick runs :func:`_serve_batch_task` for every shard in shard
        order on this thread, then sums the partials with the group's
        ``allreduce``: the same task, arrays and shard-order sum as the
        workers, so the bits match, and the ops land once, on this
        thread's meters.  Any other tick is one round trip through the
        group's ``map_allreduce_async`` (the entry point the benchmark
        ledger times as ``shard.dispatch``).
        """
        args = (self.kernel, x, bounds, self.options.max_scalars)
        group = self.group
        if not local:
            return group.map_allreduce_async(
                _serve_batch_task, *args, bk=get_backend()
            ).result()
        group._require_serving()
        partials = []
        for ex in group.executors:
            with use_backend(ex.backend):
                partials.append(_serve_batch_task(ex, *args))
        return group.allreduce(partials, bk=get_backend())

    def _serve_batch(self, batch: list[_Request]) -> None:
        """Run one tick to completion, then scatter its rows to the
        batch's futures (or fail them all with the tick's error)."""
        dispatch_s = time.perf_counter()
        bounds: list[tuple[int, int]] = []
        lo = 0
        for req in batch:
            bounds.append((lo, lo + req.rows))
            lo += req.rows
        x_host = (
            batch[0].x
            if len(batch) == 1
            else np.concatenate([req.x for req in batch], axis=0)
        )
        local = (
            self._local_centers is not None
            and lo * self._local_centers <= _LOCAL_TICK_SCALARS
        )
        kernel_s = time.perf_counter()
        try:
            out = np.asarray(
                to_numpy(self._reduce_tick(x_host, tuple(bounds), local))
            )
        except Exception as exc:
            _LOG.error(
                "serve.batch_failed run=%s requests=%d rows=%d error=%s",
                self._run_short, len(batch), lo, exc,
            )
            self.metrics.inc("serve/failed_requests", len(batch))
            for req in batch:
                req.future.set_exception(exc)
            return
        done_s = time.perf_counter()
        # Tick-level accounting on the server's own tracer/metrics.
        record_span(
            "serve/kernel", kernel_s, done_s - kernel_s,
            requests=len(batch), rows=lo,
        )
        self.metrics.inc("serve/batches")
        self.metrics.observe("serve/batch_rows", float(lo))
        self.metrics.observe("serve/batch_requests", float(len(batch)))
        self.metrics.observe("serve/kernel_s", done_s - kernel_s)
        # One check per tick; rows are searched only when it trips.
        tick_finite = bool(np.isfinite(out).all())
        thread_name = threading.current_thread().name
        queue_obs: list[float] = []
        request_obs: list[float] = []
        failed = 0
        for req, (seg_lo, seg_hi) in zip(batch, bounds):
            rows = out[seg_lo:seg_hi]
            values = (
                np.asarray(rows[0]).copy() if req.squeeze else rows.copy()
            )
            scatter_s = time.perf_counter()
            # Relay the request's serving spans to the tracers captured
            # at submit time — the worker-span relay discipline, applied
            # per request — *before* resolving the future, so a caller
            # that awaits the result sees its trace complete.
            if req.telemetry.tracing:
                req.telemetry.relay(spans=[
                    SpanEvent(
                        "serve/queue", req.enqueued_s,
                        dispatch_s - req.enqueued_s,
                        thread=thread_name, attrs={"rows": req.rows},
                    ),
                    SpanEvent(
                        "serve/batch", dispatch_s, kernel_s - dispatch_s,
                        thread=thread_name,
                        attrs={"requests": len(batch), "rows": lo},
                    ),
                    SpanEvent(
                        "serve/kernel", kernel_s, done_s - kernel_s,
                        thread=thread_name,
                        attrs={"requests": len(batch), "rows": lo},
                    ),
                    SpanEvent(
                        "serve/scatter", done_s, scatter_s - done_s,
                        thread=thread_name, attrs={"rows": req.rows},
                    ),
                ])
            if not tick_finite and not np.isfinite(values).all():
                # A NaN/inf prediction must not pass as a success.  It is
                # counted before its future fails, so a caller woken by
                # the failure reads it in stats().
                failed += 1
                self.metrics.inc("serve/failed_requests")
                req.future.set_exception(
                    ReproError(
                        f"request {req.request_id} produced a non-finite "
                        "prediction (NaN or inf in the served model's "
                        "output)"
                    )
                )
                continue
            queue_obs.append(dispatch_s - req.enqueued_s)
            request_obs.append(scatter_s - req.enqueued_s)
            req.future.set_result(
                PredictResponse(
                    values=values,
                    run_id=self._run_id,
                    request_id=req.request_id,
                    queue_s=dispatch_s - req.enqueued_s,
                    batch_s=scatter_s - dispatch_s,
                )
            )
        if failed:
            _LOG.error(
                "serve.non_finite run=%s requests=%d", self._run_short, failed
            )
        # One registry round-trip per tick, not per request: the scatter
        # loop runs with callers actively waking up, so its lock traffic
        # is on the latency path.
        self.metrics.observe_many("serve/queue_s", queue_obs)
        self.metrics.observe_many("serve/request_s", request_obs)
        self.metrics.inc("serve/requests", len(batch) - failed)
        self.metrics.inc("serve/rows", lo)

    # -------------------------------------------------------------- teardown
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the dispatcher down.

        With ``drain=True`` (default) every queued request is still
        served — every queued future resolves before the dispatcher
        exits.  With ``drain=False`` queued requests fail immediately
        with :class:`~repro.exceptions.ShardError` (counted under
        ``serve/failed_requests``, or ``serve/abandoned_requests`` when
        their caller had already cancelled).  A group the server
        built (``model=...``) is closed with it; a borrowed group
        (``group=...``) is left open.  Idempotent.
        """
        with self._cv:
            first = not self._closing
            self._closing = True
            dropped = (
                list(self._queue) if first and not drain else []
            )
            if dropped:
                self._queue.clear()
            self._cv.notify_all()
        failed = 0
        for req in dropped:
            try:
                req.future.set_exception(
                    ShardError(
                        "server closed before the request was dispatched"
                    )
                )
                failed += 1
            except InvalidStateError:
                pass  # caller already cancelled (predict_request timeout)
        if dropped:
            self.metrics.inc("serve/failed_requests", failed)
            self.metrics.inc("serve/abandoned_requests", len(dropped) - failed)
        self._dispatcher.join(self.options.drain_timeout_s)
        if self._dispatcher.is_alive():  # pragma: no cover - wedged engine
            _LOG.warning(
                "serve.drain_timeout run=%s after %.1fs",
                self._run_short, self.options.drain_timeout_s,
            )
        owned_close = False
        with self._cv:
            if not self._closed:
                self._closed = True
                owned_close = self._owns_group
        if owned_close:
            self.group.close()
        if first:
            counters = self.metrics.snapshot()["counters"]
            _LOG.info(
                "serve.close run=%s requests=%d batches=%d dropped=%d",
                self._run_short,
                int(counters.get("serve/requests", 0)),
                int(counters.get("serve/batches", 0)),
                len(dropped),
            )

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------ inspection
    @property
    def run_id(self) -> str:
        """The serving session's run id (stamped on every
        :class:`~repro.serve.PredictResponse` and metrics snapshot)."""
        return self._run_id

    def stats(self) -> dict[str, Any]:
        """Run-ID-stamped metrics snapshot (latency histograms carry
        p50/p95/p99; see :class:`~repro.observe.MetricsRegistry`)."""
        return self.metrics.snapshot()

    def health(self) -> dict[str, Any]:
        """Liveness summary (the HTTP adapter's ``GET /healthz`` body):
        ``status`` is ``"ok"`` while serving, ``"closed"`` after
        :meth:`close`."""
        return {
            "status": "closed" if self._closed else "ok",
            "run_id": self._run_id,
            "transport": self.group.name,
            "g": self.group.g,
        }

    def export(self, path: Any) -> None:
        """Write the :meth:`stats` snapshot to ``path`` as JSON."""
        pathlib.Path(path).write_text(
            json.dumps(self.stats(), indent=2) + "\n"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"<ModelServer {state} transport={self.group.name} "
            f"g={self.group.g} run={self._run_short}>"
        )
