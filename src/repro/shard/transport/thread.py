"""Thread-backed shard transport — shards as in-process worker threads.

Each :class:`ShardExecutor` is a :class:`~repro.shard.transport.base.
ShardWorker` (the shard's arrays, meter and execution scopes) fused with
a dedicated single-thread FIFO pool, so worker-side state and the
caller-side handle are the same object.  The "network" of this transport
is a host memcpy: NumPy shards adopt zero-copy views of the caller's
weight rows (an update needs no mirror), device-backed shards
(``torch:cuda:<i>``) hold device copies that the caller writes updated
rows into, as on every transport (:mod:`repro.shard.transport.base`).
Because every executor runs one FIFO worker thread, the per-thread
:class:`~repro.kernels.ops.BlockWorkspace` high-water mark *is* the
shard's scratch peak.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from repro.backend import ArrayBackend, NumpyBackend, resolve_backend
from repro.config import current_precision
from repro.exceptions import ConfigurationError, ShardError
from repro.instrument import capture
from repro.shard.plan import ShardPlan
from repro.shard.transport.base import ShardTransport, ShardWorker

__all__ = ["ShardExecutor", "ThreadTransport"]


class ShardExecutor(ShardWorker):
    """One shard of the thread transport: a :class:`ShardWorker` plus a
    dedicated single-thread FIFO executor.

    Every operation this executor performs is recorded on its private
    meter (worker threads have no ambient meters); each task submitted
    via :meth:`submit_metered` captures its own op-count delta *on the
    worker*, so several tasks may be in flight concurrently (the sharded
    trainer queues the next block's formation behind the current
    contraction) without their deltas interleaving.
    """

    def __init__(
        self,
        shard_id: int,
        backend: ArrayBackend,
        centers: Any,
        weights: Any | None = None,
    ) -> None:
        super().__init__(shard_id, backend, centers, weights)
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{shard_id}"
        )

    # ------------------------------------------------------------ execution
    def _require_open(self) -> ThreadPoolExecutor:
        if self._pool is None:
            raise ShardError(
                f"shard {self.shard_id} executor is closed and can no "
                "longer serve tasks"
            )
        return self._pool

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Run ``fn(self, *args, **kwargs)`` on this shard's worker
        thread under its backend scope, the caller's explicit precision
        (if any) and this shard's private meter; returns the future."""
        pool = self._require_open()
        precision = current_precision()
        return pool.submit(self.run, fn, args, kwargs, precision)

    def submit_metered(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Future:
        """Like :meth:`submit`, but the future resolves to
        ``(result, op_delta)`` — see :meth:`ShardWorker.run_metered`.
        The ambient tracing flag is captured here, next to the ambient
        precision: a task submitted under an active tracer resolves to
        ``(result, op_delta, spans)`` instead."""
        pool = self._require_open()
        precision = current_precision()
        return pool.submit(
            self.run_metered, fn, args, kwargs, precision, capture().tracing
        )

    def alive(self) -> bool:
        """Liveness probe: an in-process worker thread cannot die
        independently of the caller, so a thread executor is alive
        exactly until it is closed."""
        return self._pool is not None

    def close(self) -> None:
        """Reset this shard's workspace scratch and join its worker."""
        if self._pool is None:
            return
        try:
            self._pool.submit(self.drain_workspace).result()
        finally:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadTransport(ShardTransport):
    """Shard transport running every shard on an in-process worker thread.

    Parameters
    ----------
    plan:
        The shard plan; one executor is built per shard.
    centers, weights:
        Full host arrays, sliced per the plan.  NumPy-backed shards adopt
        weight slices as zero-copy views.
    backends:
        One backend spec (``None`` → a fresh
        :class:`~repro.backend.NumpyBackend` instance,
        ``"torch:cuda:0"``, an :class:`~repro.backend.ArrayBackend`
        instance, ...) per shard.
    """

    name = "thread"

    @classmethod
    def trainer_interconnect(cls):
        """In-process threads share one memory system; the sharded
        trainer's default aggregate device keeps the generic
        NVLink-class interconnect rather than the calibration-scale
        ``"thread"`` link model (which
        :func:`repro.observe.compare_phases` prices a traced fit's
        all-reduce with)."""
        return None

    def __init__(
        self,
        plan: ShardPlan,
        centers: np.ndarray,
        weights: np.ndarray | None = None,
        backends: Sequence[str | ArrayBackend | None] | None = None,
    ) -> None:
        specs = list(backends) if backends is not None else [None] * plan.g
        if len(specs) != plan.g:
            raise ConfigurationError(
                f"plan has {plan.g} shards but {len(specs)} backend specs given"
            )
        self.plan = plan
        self.executors = [
            ShardExecutor(
                i,
                NumpyBackend() if spec is None else resolve_backend(spec),
                centers[sl],
                None if weights is None else weights[sl],
            )
            for i, (spec, sl) in enumerate(zip(specs, plan.slices))
        ]

    # ----------------------------------------------------------- accounting
    def op_counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for ex in self.executors:
            for category, ops in ex.meter.as_dict().items():
                total[category] = total.get(category, 0) + ops
        return total

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        self._closed = True
        for ex in self.executors:
            ex.close()
