"""The shard engine: *what a shard does* vs *where it runs*.

A shard is a contiguous slice of the kernel centers and weight rows plus
the machinery to run tasks against them.  This module splits that into
two halves:

- :class:`ShardWorker` — the state that lives *wherever the shard runs*
  (an in-process worker thread or a child process):
  the shard's centers/weights on its own
  :class:`~repro.backend.ArrayBackend` instance, the precomputed center
  squared norms, a private :class:`~repro.instrument.OpMeter`, a
  ``state`` dict for per-fit context (the kernel, the shard's part of
  the preconditioner), the in-flight kernel ``block`` between a *form*
  and its *contract* task, and the kept ``phi`` columns the next
  correction reads.
- :class:`ShardTransport` — the one caller-side engine object that owns
  ``g`` workers and moves work and data to them: ``submit``/``map_async``
  (queue a task on every shard's FIFO worker), ``allreduce`` (combine
  per-shard partials), ``mirror_rows`` (write updated weight rows into
  the shards) and the weight scatter/gather, accounting and lifecycle
  methods.  Public name: ``repro.shard.ShardGroup``.

Tasks are plain callables ``fn(worker, *args, **kwargs)``.  Transports
that cross a process boundary pickle them, so anything submitted through
the sharded trainer or the sharded ops must be a module-level function
(all the built-in tasks are); the thread transport additionally accepts
closures for ad-hoc in-process work.

Conformance contract (pinned by ``tests/test_shard_parity.py`` and
``tests/test_shard_transport_conformance.py``): every transport executes
the *same task functions* on the same shard slices, so for a fixed shard
plan the produced numbers are bitwise identical across transports, the
op-count deltas (and worker spans, when tracing) that
:meth:`PendingMap.result` relays to the calling thread are identical,
and communication is metered separately under ``"allreduce"``.

Ordering contract: each worker runs its queue FIFO.  This lets the
sharded trainer queue step ``t+1``'s block formation behind step ``t``'s
contraction with no extra synchronization, reusing one workspace buffer.

Weight rows have one rule on every transport: the caller reads and
writes them in place, through each executor's host-visible ``weights``
(a view of the caller's array, a device copy, or a view of a
shared-memory segment), and the task channel carries only tasks.  The
sharded trainer writes the rows it updated after awaiting step ``t`` and
queues contraction ``t+1`` after the write returns; the only task that
can be in flight meanwhile is a block formation, which never reads
weights, and the executor queue (a thread pool's lock, a pipe's
send/recv) orders the write before the contraction.
"""

from __future__ import annotations

import abc
import contextlib
from concurrent.futures import Future
from typing import Any, Callable, Sequence

import numpy as np

from repro.backend import ArrayBackend, get_backend, to_numpy, use_backend
from repro.config import use_precision
from repro.exceptions import ConfigurationError, ShardError
from repro.instrument import (
    OpMeter,
    Tracer,
    capture,
    meter_scope,
    record_ops,
    span,
    trace_scope,
)
from repro.kernels.base import Kernel
from repro.kernels.ops import block_workspace
from repro.shard.plan import ShardPlan

__all__ = [
    "PendingMap",
    "PendingReduce",
    "ShardTransport",
    "ShardWorker",
    "allreduce_sum",
]


def allreduce_sum(partials: Sequence[Any], bk: ArrayBackend | None = None) -> Any:
    """Sum per-shard partial results into one array on backend ``bk``
    (default: the caller's active backend).

    Partials are pulled to host memory and summed in shard order, so the
    result is deterministic for a fixed shard plan — and identical across
    transports, which ship bit-exact partials.  The reduction records
    ``(g - 1) * payload`` operations under the ``"allreduce"`` category —
    the communication volume the alpha-beta model of
    :func:`repro.device.cluster.allreduce_time` charges for — and records
    nothing for a single shard, matching the model's ``g = 1`` short
    circuit.
    """
    if not partials:
        raise ConfigurationError("allreduce_sum needs at least one partial")
    arrays = [to_numpy(p) for p in partials]
    # Accumulate at the joint result dtype: summing in-place into
    # ``arrays[0]``'s dtype would silently downcast any higher-precision
    # partial that appears later in shard order.
    out = np.array(arrays[0], dtype=np.result_type(*arrays), copy=True)
    for arr in arrays[1:]:
        out += arr
    if len(arrays) > 1:
        record_ops("allreduce", (len(arrays) - 1) * out.size)
    bk = bk if bk is not None else get_backend()
    return bk.asarray(out)


class ShardWorker:
    """Worker-side state and execution scope of one shard.

    Lives wherever the shard runs: for the thread transport this *is* the
    executor object; for the process transport one instance is built
    inside each child process over shared-memory views.

    Parameters
    ----------
    shard_id:
        Position of this shard in the owning plan.
    backend:
        The :class:`~repro.backend.ArrayBackend` instance this worker
        owns; all of its array state lives there.
    centers:
        Shard's center rows ``(n_i, d)`` (any array convertible by the
        backend).
    weights:
        Optional shard weight rows ``(n_i, l)``.  When the source rows
        are a NumPy slice and the backend is NumPy they are adopted as a
        zero-copy *view* (updates write through to the source array);
        otherwise a device copy is made, which
        :meth:`ShardTransport.mirror_rows` writes updates into.
    """

    def __init__(
        self,
        shard_id: int,
        backend: ArrayBackend,
        centers: Any,
        weights: Any | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.backend = backend
        native = backend.asarray(centers)
        self.centers = backend.as_2d(native)
        self.weights_is_view = False
        if weights is None:
            self.weights = None
        else:
            self.weights = backend.asarray(weights)
            self.weights_is_view = self.weights is weights or (
                isinstance(self.weights, np.ndarray)
                and isinstance(weights, np.ndarray)
                and np.shares_memory(self.weights, weights)
            )
            if self.weights.shape[0] != self.centers.shape[0]:
                raise ConfigurationError(
                    f"shard {shard_id}: weights rows "
                    f"({self.weights.shape[0]}) must match centers "
                    f"({self.centers.shape[0]})"
                )
        #: Center squared norms, reused by every kernel block against this
        #: shard (see the ``z_sq_norms`` threading in the kernel API).
        self.center_sq_norms = backend.row_sq_norms(self.centers)
        #: Private meter; every operation this worker performs is recorded
        #: here (worker threads/processes carry no ambient meters).
        self.meter = OpMeter()
        #: High-water mark of this shard's block-workspace scratch.
        self.workspace_peak = 0
        #: Per-fit context pushed by the caller (kernel, subsample
        #: indices, ...) via :meth:`ShardTransport.scatter_state_items`.
        self.state: dict[str, Any] = {}
        #: The in-flight kernel block: a *form* task stashes it here so
        #: the matching *contract* task can consume it without the block
        #: ever crossing the transport.
        self.block: Any | None = None
        #: The last contracted block's subsample columns (``Phi``'s part
        #: on this shard), kept for the correction that consumes them.
        self.phi: Any | None = None

    # ------------------------------------------------------------- geometry
    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def resident_scalars(self) -> int:
        """Scalars held resident by this shard (centers + weights), the
        per-device ``S_G`` charge of the cluster memory model."""
        scalars = self.centers.shape[0] * self.centers.shape[1]
        if self.weights is not None:
            w = self.weights
            scalars += w.shape[0] * (w.shape[1] if w.ndim == 2 else 1)
        return int(scalars)

    # ------------------------------------------------------------ execution
    def run(
        self,
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        precision: np.dtype | None = None,
        tracer: Tracer | None = None,
    ) -> Any:
        """Run ``fn(self, *args, **kwargs)`` under this shard's backend
        scope, the caller's explicit precision (if any) and this shard's
        private meter.  The precision is re-established here because the
        caller's :func:`~repro.config.use_precision` scope is
        thread-local — the sharded computation must honor the same
        working dtype as its unsharded equivalent.  When the caller had
        tracing enabled at submit time, ``tracer`` re-establishes a span
        scope the same way (worker threads/processes carry no ambient
        tracers)."""
        scope = (
            use_precision(precision)
            if precision is not None
            else contextlib.nullcontext()
        )
        tscope = (
            trace_scope(tracer)
            if tracer is not None
            else contextlib.nullcontext()
        )
        with scope, use_backend(self.backend), meter_scope(self.meter), tscope:
            try:
                return fn(self, *args, **(kwargs or {}))
            finally:
                self.workspace_peak = max(
                    self.workspace_peak, block_workspace().peak_scalars
                )

    def run_metered(
        self,
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        precision: np.dtype | None = None,
        trace: bool = False,
    ) -> tuple[Any, ...]:
        """Like :meth:`run`, but returns ``(result, op_delta)`` where
        ``op_delta`` is exactly the ops ``fn`` recorded on this shard's
        meter — the relay payload of :class:`PendingMap`.

        With ``trace=True`` (the caller had a tracer active at submit
        time) the task runs under a private per-task tracer and the
        return value grows a third element: the task's completed spans
        in plain-dict form, each stamped with this ``shard_id`` — ready
        to cross a process pipe and be relayed caller-side next to the
        op-count delta.  The untraced return shape is unchanged, so
        tracing cannot perturb the metered-reply contract it rides.
        """
        before = self.meter.as_dict()
        if trace:
            tracer = Tracer()
            result = self.run(fn, args, kwargs, precision, tracer)
        else:
            result = self.run(fn, args, kwargs, precision)
        delta = {
            category: ops - before.get(category, 0)
            for category, ops in self.meter.as_dict().items()
        }
        delta = {c: d for c, d in delta.items() if d}
        if not trace:
            return result, delta
        spans = []
        for ev in tracer.events:
            payload = ev.as_dict()
            payload["attrs"].setdefault("shard", self.shard_id)
            spans.append(payload)
        return result, delta, spans

    def drain_workspace(self) -> None:
        """Fold the pooled scratch high-water mark into
        :attr:`workspace_peak` and drop the buffers (must run on the
        shard's own worker — workspaces are thread-local)."""
        ws = block_workspace()
        self.workspace_peak = max(self.workspace_peak, ws.peak_scalars)
        ws.reset()
        self.block = None
        self.phi = None


class PendingMap:
    """One in-flight collective step across all shards.

    Returned by :meth:`ShardTransport.map_async`; the work is already
    queued on every worker's FIFO when this object exists.
    :meth:`result` barriers, relays the per-shard op-count deltas — and,
    when the submitter had tracing enabled, the per-shard wall-clock
    spans — to the meters/tracers active on the *calling* thread (once,
    however often it is called) and returns the per-shard results in
    shard order — so awaiting the future on the thread that will consume
    the values keeps aggregate op counts identical to the unsharded
    computation.

    The map is single-shot and drains *every* future even on failure:
    op-count deltas from the shards that completed are relayed before the
    first error (in shard order) is raised, so accounting stays exact
    across a partial failure — the invariant the recovery layer's
    checkpoint/replay arithmetic depends on — and repeated ``result()``
    calls after a failure re-raise the same error instead of silently
    re-consuming half-drained futures.
    """

    def __init__(self, futures: Sequence[Future]) -> None:
        self._futures: list[Future] | None = list(futures)
        self._results: list[Any] = []
        self._error: BaseException | None = None

    def result(self) -> list[Any]:
        if self._futures is not None:
            futures, self._futures = self._futures, None
            results: list[Any] = []
            merged: dict[str, int] = {}
            spans: list[dict[str, Any]] = []
            for f in futures:
                try:
                    reply = f.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if self._error is None:
                        self._error = exc
                    continue
                # ``(result, delta)`` untraced; ``(result, delta, spans)``
                # when the submitter had tracing enabled.
                result, delta = reply[0], reply[1]
                if len(reply) > 2 and reply[2]:
                    spans.extend(reply[2])
                results.append(result)
                for category, ops in delta.items():
                    merged[category] = merged.get(category, 0) + ops
            capture().relay(ops=merged, spans=spans)
            self._results = results
        if self._error is not None:
            raise self._error
        return self._results


class PendingReduce:
    """One in-flight fused map + all-reduce step across all shards.

    Returned by :meth:`ShardTransport.map_allreduce_async`;
    :meth:`result` barriers (relaying per-shard op deltas exactly like
    :meth:`PendingMap.result`) and returns the all-reduced sum of every
    shard's task result on the requested backend.

    It awaits the underlying :class:`PendingMap` and then combines
    host-side through the transport's :meth:`~ShardTransport.allreduce`
    — zero extra round-trips on top of the map itself.
    """

    def __init__(
        self,
        transport: "ShardTransport",
        pending: PendingMap,
        bk: ArrayBackend | None,
    ) -> None:
        self._transport = transport
        self._pending = pending
        self._bk = bk

    def result(self) -> Any:
        return self._transport.allreduce(self._pending.result(), bk=self._bk)


# ---------------------------------------------------------------------------
# Built-in tasks shared by every transport (module-level: picklable).
# ---------------------------------------------------------------------------


def _update_state_task(worker: ShardWorker, items: dict[str, Any]) -> None:
    worker.state.update(items)


def _drain_workspace_task(worker: ShardWorker) -> None:
    worker.drain_workspace()


class ShardTransport(abc.ABC):
    """Caller-side engine driving ``g`` shard workers somewhere.

    Build one with :meth:`build`, run collective steps with :meth:`map`
    / :meth:`map_async` and combine partials with :meth:`allreduce` (or
    fuse both with :meth:`map_allreduce`); close it, or use it as a
    context manager.

    Implementations own the workers' lifetime and the channel that moves
    tasks and results between the caller and the shards; weight rows
    never ride it: :meth:`set_weights`, :meth:`mirror_rows` and
    :meth:`gather_weights` read and write each executor's ``weights`` in
    place (module docstring).  Every transport must preserve two
    invariants: per-worker FIFO task order and bit-exact task results —
    the transport moves bytes, it never re-computes.  Every collective
    dispatches through :meth:`_submit_all`; the public ``map*`` methods
    are what external profilers wrap.
    """

    #: Transport name ("thread" or "process"), the key
    #: :func:`repro.shard.transport.resolve_transport` looks up.
    name: str = "abstract"

    #: BLAS thread count given to each worker *process* (see
    #: :mod:`repro.shard.transport.process`); ``None`` when the workers
    #: share the caller's process and so its thread count.
    worker_blas_threads: int | None = None

    #: Kernel attached by :meth:`build`; lets
    #: :func:`repro.shard.sharded_predict` and
    #: :class:`repro.serve.ModelServer` run without re-passing it.
    kernel: Kernel | None = None

    plan: ShardPlan
    #: Caller-side executor handles, one per shard, in shard order.  Their
    #: concrete type is transport-specific but all expose ``shard_id``,
    #: ``n_centers``, ``resident_scalars``, ``workspace_peak``,
    #: ``weights`` (host-visible or None), ``weights_is_view`` and
    #: ``submit``/``submit_metered``.
    executors: list
    #: Latched by :meth:`close`.  Submitting work after close is an
    #: engine-lifecycle failure (:class:`~repro.exceptions.ShardError`),
    #: never a hang or a write into an unlinked shared-memory segment.
    _closed: bool = False

    @property
    def g(self) -> int:
        return self.plan.g

    @classmethod
    def build(
        cls,
        centers: Any,
        weights: Any | None = None,
        *,
        g: int | None = None,
        backends: str | ArrayBackend | Sequence[str | ArrayBackend] | None = None,
        kernel: Kernel | None = None,
        transport: str = "thread",
        plan: ShardPlan | None = None,
        **transport_options: Any,
    ) -> "ShardTransport":
        """Shard ``centers`` (and optionally ``weights``) across ``g``
        workers of the chosen transport.

        Parameters
        ----------
        g:
            Shard count; defaults to ``len(backends)`` when a backend
            list is given, else 1.
        backends:
            ``None`` (a fresh :class:`~repro.backend.NumpyBackend`
            instance per shard), one spec applied to every shard
            (``"torch:cpu"``), or one spec per shard
            (``["torch:cuda:0", "torch:cuda:1"]``).  The process
            transport accepts NumPy specs only.
        kernel:
            Optional kernel, kept as :attr:`kernel`.
        transport:
            ``"thread"`` (default) or ``"process"``; extra keyword
            arguments are forwarded to the transport constructor (e.g.
            ``start_method=`` for the process transport).
        plan:
            Row partition of ``centers`` into the ``g`` shards; defaults
            to :meth:`ShardPlan.contiguous`.  The sharded trainer passes
            a :meth:`ShardPlan.balanced` one.
        """
        from repro.shard.transport import resolve_transport

        centers_np = np.asarray(to_numpy(centers))
        if centers_np.ndim == 1:
            centers_np = centers_np[None, :]
        weights_np = None if weights is None else np.asarray(to_numpy(weights))
        if isinstance(backends, (str, ArrayBackend)) or backends is None:
            g = 1 if g is None else int(g)
            backend_specs: list[Any] = [backends] * g
        else:
            backend_specs = list(backends)
            if g is not None and int(g) != len(backend_specs):
                raise ConfigurationError(
                    f"g={g} conflicts with {len(backend_specs)} backend specs"
                )
            g = len(backend_specs)
        if plan is None:
            plan = ShardPlan.contiguous(centers_np.shape[0], g)
        elif (plan.n, plan.g) != (centers_np.shape[0], g):
            raise ConfigurationError(
                f"plan covers n={plan.n} rows in {plan.g} shards; the "
                f"group has {centers_np.shape[0]} centers and g={g}"
            )
        transport_cls = resolve_transport(transport)
        engine = transport_cls(
            plan, centers_np, weights_np, backends=backend_specs,
            **transport_options,
        )
        engine.kernel = kernel
        return engine

    # ----------------------------------------------------------- link model
    @classmethod
    def link_name(cls) -> str:
        """Key of this transport's link model in
        :data:`repro.device.cluster.TRANSPORT_INTERCONNECTS`: the
        transport name."""
        return cls.name

    @classmethod
    def trainer_interconnect(cls):
        """Link model the sharded trainer's *default* aggregate device
        should charge for this transport's collective, or ``None`` to
        keep the generic NVLink-class default (what the thread transport
        does — its "network" is a host memcpy the generic model already
        idealizes)."""
        from repro.device.cluster import transport_interconnect

        return transport_interconnect(cls.link_name())

    # ------------------------------------------------------------ execution
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (closing is irreversible)."""
        return self._closed

    def _require_serving(self) -> None:
        """Raise a clean :class:`~repro.exceptions.ShardError` when this
        transport has been closed.

        Every task-queuing entry point calls this first, so
        submit-after-close fails identically on every transport — instead
        of an ``AttributeError`` from a dropped pool, a hang on a dead
        pipe, or a write into an unlinked shared-memory segment.
        """
        if self._closed:
            raise ShardError(
                f"{self.name} transport is closed: the shard group has "
                "been shut down and can no longer serve tasks"
            )

    def submit(self, shard_id: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Queue ``fn(worker, *args, **kwargs)`` on one shard's worker;
        the future resolves to the task's result."""
        self._require_serving()
        with span("submit", transport=self.name, to_shard=shard_id):
            return self.executors[shard_id].submit(fn, *args, **kwargs)

    def _submit_all(
        self, fn: Callable[..., Any], args: tuple, kwargs: dict
    ) -> PendingMap:
        """Queue ``fn(worker, *args, **kwargs)`` on every shard: the
        dispatch behind :meth:`map_async`, :meth:`map` and every
        internal collective."""
        self._require_serving()
        return PendingMap(
            [ex.submit_metered(fn, *args, **kwargs) for ex in self.executors]
        )

    def map_async(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> PendingMap:
        """Queue ``fn(worker, *args, **kwargs)`` on every shard *without
        barriering*; returns a :class:`PendingMap` to be awaited when
        (and where) the values are consumed.  Any number of pending maps
        may overlap; each worker runs its queue FIFO."""
        return self._submit_all(fn, args, kwargs)

    def map(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``fn(worker, *args, **kwargs)`` on every shard in parallel;
        barriers and relays op-count deltas (see :class:`PendingMap`)."""
        return self._submit_all(fn, args, kwargs).result()

    def map_allreduce_async(
        self,
        fn: Callable[..., Any],
        *args: Any,
        bk: ArrayBackend | None = None,
        **kwargs: Any,
    ) -> PendingReduce:
        """Queue ``fn`` on every shard and fuse the all-reduce of its
        result into the step, without barriering.

        ``fn`` returns the shard's partial; awaiting the returned
        :class:`PendingReduce` yields the reduced sum.  The map runs now
        and the partials combine host-side at await time — the same
        traffic as mapping and reducing separately.
        """
        return PendingReduce(self, self._submit_all(fn, args, kwargs), bk)

    def map_allreduce(
        self,
        fn: Callable[..., Any],
        *args: Any,
        bk: ArrayBackend | None = None,
        **kwargs: Any,
    ) -> Any:
        """Barriering form of :meth:`map_allreduce_async`: returns the
        reduced sum with op deltas relayed and the collective charged
        under ``"allreduce"`` on the calling thread."""
        return PendingReduce(
            self, self._submit_all(fn, args, kwargs), bk
        ).result()

    # ----------------------------------------------------------- collective
    def allreduce(self, partials: Sequence[Any], bk: ArrayBackend | None = None) -> Any:
        """Combine per-shard partials into the full result on the
        caller's backend through the host-side :func:`allreduce_sum`."""
        with span("allreduce", transport=self.name, g=self.g):
            return allreduce_sum(partials, bk=bk)

    # ----------------------------------------------------------- state push
    def scatter_state_items(self, items: Sequence[dict[str, Any]]) -> None:
        """Merge a per-shard dict of state entries into each worker's
        ``state`` (barriers; values must be picklable for cross-process
        transports).  However many keys are pushed, each worker sees
        exactly one task, so message-passing transports pay one RPC
        round-trip for the whole per-fit setup."""
        if len(items) != self.g:
            raise ConfigurationError(
                f"scatter_state_items needs {self.g} dicts, got {len(items)}"
            )
        with span("scatter_state", transport=self.name, g=self.g):
            futures = [
                ex.submit(_update_state_task, dict(shard_items))
                for ex, shard_items in zip(self.executors, items)
            ]
            for f in futures:
                f.result()

    # -------------------------------------------------------------- weights
    @property
    def needs_mirror(self) -> bool:
        """True when some shard holds weight rows that are not a view of
        the caller's array, so the caller's updates must be written into
        them (:meth:`mirror_rows`)."""
        return any(
            ex.weights is not None and not ex.weights_is_view
            for ex in self.executors
        )

    def _held_weights(self) -> list[Any]:
        """Every shard's ``weights``, in shard order (module docstring:
        the caller reads and writes them in place)."""
        self._require_serving()
        held = [ex.weights for ex in self.executors]
        if any(w is None for w in held):
            raise ConfigurationError("transport holds no weights")
        return held

    def mirror_rows(self, global_idx: np.ndarray, rows: np.ndarray) -> None:
        """Write updated weight rows (``rows[k]`` is global row
        ``global_idx[k]``) into every shard that does not hold a view of
        them, in place, in each shard's dtype.

        No task is queued and nothing barriers: a task queued after this
        returns reads the new rows (module docstring)."""
        self._require_serving()
        if not self.needs_mirror:
            return
        idx = np.asarray(global_idx)
        with span("mirror", transport=self.name, rows=len(idx)):
            for ex, (positions, local) in zip(
                self.executors, self.plan.localize(idx)
            ):
                if positions.size and not ex.weights_is_view:
                    bk = ex.backend
                    ex.weights[local] = bk.asarray(
                        rows[positions], dtype=bk.dtype_of(ex.weights)
                    )

    def gather_weights(self) -> np.ndarray:
        """Concatenate all shard weight rows back into one host array."""
        held = self._held_weights()
        with span("gather", transport=self.name, g=self.g):
            return np.concatenate([to_numpy(w) for w in held], axis=0)

    def set_weights(self, weights: Any) -> None:
        """Write a full ``(n, l)`` weight array (any backend's) into the
        shards' rows in place, in each shard's dtype: a task queued after
        this returns reads the new rows.  A shape other than the held
        weights' raises :class:`~repro.exceptions.ConfigurationError`."""
        held = self._held_weights()
        weights_np = np.asarray(to_numpy(weights))
        shape = (self.plan.n, *held[0].shape[1:])
        if weights_np.shape != shape:
            raise ConfigurationError(
                f"weights shape {weights_np.shape} does not match "
                f"sharded weights {shape}"
            )
        for ex, w, sl in zip(self.executors, held, self.plan.slices):
            w[...] = ex.backend.asarray(
                weights_np[sl], dtype=ex.backend.dtype_of(w)
            )

    # ------------------------------------------------------------- liveness
    def alive(self) -> list[bool]:
        """Per-shard liveness flags, in shard order.

        A ``False`` entry means the shard can no longer serve tasks (its
        worker process died or its executor was closed); probing never
        raises, so callers can learn *which* workers are dead without
        paying a first-touch :class:`~repro.exceptions.ShardError`.
        Executors may expose their own ``alive()`` probe; those that
        don't (e.g. in-process workers that cannot die independently)
        are reported alive.
        """
        flags = []
        for ex in self.executors:
            probe = getattr(ex, "alive", None)
            flags.append(bool(probe()) if callable(probe) else True)
        return flags

    def dead_shards(self) -> list[int]:
        """Shard ids whose workers are no longer serving (see
        :meth:`alive`); empty for a healthy group."""
        return [i for i, ok in enumerate(self.alive()) if not ok]

    # ----------------------------------------------------------- accounting
    @abc.abstractmethod
    def op_counts(self) -> dict[str, int]:
        """Op counts summed across all shard meters."""

    def memory_report(self) -> dict[str, Any]:
        """Per-shard and aggregate memory accounting in scalars."""
        resident = [ex.resident_scalars for ex in self.executors]
        peaks = [ex.workspace_peak for ex in self.executors]
        return {
            "resident_per_shard": resident,
            "resident_total": int(sum(resident)),
            "workspace_peak_per_shard": peaks,
            "workspace_peak_total": int(sum(peaks)),
        }

    def reset_workspaces(self) -> None:
        """Drop pooled scratch buffers on every shard's worker (keeps the
        workers alive)."""
        self._submit_all(_drain_workspace_task, (), {}).result()

    # ------------------------------------------------------------ lifecycle
    @abc.abstractmethod
    def close(self) -> None:
        """Join/terminate every worker and release transport resources;
        idempotent (a second ``close()`` is a no-op), and must succeed
        even after worker failures.  Implementations latch
        ``self._closed = True`` so any later submission raises a clean
        :class:`~repro.exceptions.ShardError` (see
        :meth:`_require_serving`)."""

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} g={getattr(self.plan, 'g', '?')}>"
