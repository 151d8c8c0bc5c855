"""Data-parallel EigenPro 2.0 over a shard group.

:class:`ShardedEigenPro2` executes the exact iteration of
:class:`~repro.core.eigenpro2.EigenPro2` under the data-parallel scheme
:mod:`repro.device.cluster` models analytically:

1. every shard computes the batch-vs-shard kernel block ``(m, n_i)``
   against its own centers on its own backend and contracts it with its
   own weight rows (Algorithm 1 step 2, split over shards);
2. the ``(m, l)`` partial batch predictions are all-reduced
   (:meth:`~repro.shard.ShardTransport.allreduce` — the collective whose
   cost the cluster model charges per iteration);
3. the SGD coordinate update and the EigenPro correction (steps 3–5) are
   applied to the full weight vector; shards holding zero-copy views see
   the update immediately, all other shards get the touched rows
   mirrored back *asynchronously* (below).

The Nyström preconditioner state is *replicated* (it is ``s*q + 2q``
scalars, independent of ``n``), but its ``Phi^T`` block is never
recomputed.  The shards hold contiguous row ranges of the unsharded
trainer's center order, subsample first
(:meth:`~repro.core.eigenpro2.EigenPro2._center_order`), so the
subsample is the first ``s`` global centers: each shard that owns
``s_i`` of them copies its batch block's first ``s_i`` columns, and
the caller concatenates the copies in shard order into the unsharded
trainer's ``kb[:, :s]``.  The order is global, not per shard, and does
not depend on ``g``: an elastic rebuild at a smaller ``g`` re-plans
the same held centers, and the only work left unbalanced is the copy of
``Phi``'s columns on the shards that own them.  All selected
parameters, op counts and simulated-device charges are identical to
the unsharded trainer by construction, which is what lets
:func:`repro.observe.compare_phases` compare modelled against measured
time for the *same* iteration.

The per-shard work is expressed as module-level *task functions*
(:func:`_form_block_task`, :func:`_contract_task`) acting on a
:class:`~repro.shard.transport.ShardWorker`, so the same arithmetic runs
unchanged on every transport — in-process worker threads
(``transport="thread"``, the default) or worker processes over
shared-memory weight blocks (``transport="process"``).  The formed block
never crosses the transport: a *form* task stashes it in
``worker.block`` and the matching *contract* task consumes it there.

The sharded step has no numeric rule of its own.  The contract task is
the serial step's contraction (:func:`~repro.backend.master_matmul`) on
the shard's rows, so under mixed precision each partial arrives already
lifted to float64.  The caller then runs the serial step's update
(:meth:`~repro.core.trainer.BaseKernelTrainer._update`) and correction
(:meth:`~repro.core.eigenpro2.EigenPro2._correct`) on ``Phi`` put
together from the shards' column parts.

Step schedule
-------------
The kernel block of step ``t+1`` depends only on the batch rows and the
(immutable) shard centers — never on the weights — so its formation is
*prefetched*: while step ``t``'s partial predictions are all-reduced and
the coordinate update + correction run on the caller thread, every shard
worker is already forming step ``t+1``'s ``(m, n_i)`` block.  Each step
splits into

1. **contract** (weight-dependent): ``kb_t @ w``, fused with the
   all-reduce and queued first on each worker's FIFO;
2. **prefetch** (weight-independent): form ``kb_{t+1}`` and copy out its
   ``Phi`` columns, queued right behind the contraction so it fills the
   worker's idle time during the caller-side collective + update.

FIFO order runs contraction ``t`` before formation ``t+1`` on every
worker, so one workspace buffer per shard suffices.  This is the only
sharded schedule: on the ``fit-sharded`` benchmark workload (process
transport, g=2, m=256, a 2-vCPU host) a strictly serial step (one fused
form + contract task) was slower in 18 of 20 paired runs.  That
comparison predates the per-worker BLAS thread budget
(:mod:`repro.shard.transport.process`): both schedules ran with every
worker's OpenBLAS oversubscribing the cores.  Nothing stale is ever
read — the prefetch touches no array the update writes — so the weights
match the unsharded trainer.

Asynchronous mirror-back
------------------------
The mirror of updated weight rows never barriers the caller:

- thread transport, NumPy shards: the shards hold zero-copy views of
  ``alpha`` — the update *is* the mirror;
- thread transport, device-copy shards: the row push is queued on each
  worker's FIFO and the resulting future is drained at the *next*
  barrier (by then it has already completed — FIFO order put it before
  the contraction that barrier awaited), surfacing push errors at most
  one step late;
- process transport: the parent writes the rows directly into the
  shared-memory weight segment — no task, no IPC.  Ordering is by
  construction: weight-reading contract tasks are only queued after the
  write returns (the task channel's send/recv is the cross-process
  happens-before edge), and in-flight prefetches never read weights.
"""

from __future__ import annotations

import copy
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.backend import ArrayBackend, get_backend, master_matmul, to_numpy
from repro.config import DEFAULT_BLOCK_SCALARS, compute_dtype
from repro.core.eigenpro2 import EigenPro2
from repro.device.cluster import Interconnect, multi_gpu
from repro.device.presets import titan_xp
from repro.device.simulator import SimulatedDevice
from repro.exceptions import ConfigurationError, ShardError
from repro.instrument import capture, record_ops, record_span, span
from repro.kernels.base import Kernel
from repro.kernels.ops import block_workspace
from repro.shard.group import PendingMap, ShardGroup
from repro.shard.ops import sharded_predict
from repro.shard.recovery import RecoveryEvent, ShardCheckpoint
from repro.shard.transport import ShardTransport, ShardWorker, resolve_transport

__all__ = ["ShardedEigenPro2"]


# ---------------------------------------------------------------------------
# Worker-side task functions (module-level: picklable on every transport).
# The per-fit context they need — the kernel and how many of this shard's
# leading centers are subsample points — is pushed into ``worker.state``
# at group build time.
# ---------------------------------------------------------------------------


def _form_block_task(
    worker: ShardWorker,
    xb: np.ndarray,
    xb_sq_norms: np.ndarray | None,
) -> Any | None:
    """Form the batch-vs-shard block ``(m, n_i)`` and copy out its
    leading ``phi_cols`` columns, this shard's part of ``Phi`` (both
    weight-independent, hence prefetchable).

    The block is stashed in ``worker.block`` for the matching
    :func:`_contract_task`; only the (small) ``Phi`` column copy is
    returned across the transport, and ``None`` by a shard that owns
    no subsample center.
    """
    kernel: Kernel = worker.state["kernel"]
    ebk = worker.backend
    with span("form_block", m=int(xb.shape[0])):
        scratch = block_workspace().get(
            ebk, xb.shape[0], worker.n_centers,
            compute_dtype(xb, worker.centers),
        )
        kb = kernel(
            xb,
            worker.centers,
            out=scratch,
            x_sq_norms=xb_sq_norms,
            z_sq_norms=worker.center_sq_norms,
        )  # (m, n_i): records kernel_eval on the shard meter
        worker.block = kb
        cols = worker.state.get("phi_cols", 0)
        # A copy, so the block scratch may be recycled (and the copy
        # shipped cross-process) safely.
        return ebk.copy(kb[:, :cols]) if cols else None


def _contract_task(worker: ShardWorker) -> Any:
    """Contract the stashed block against the shard's *current* weight
    rows (weight-dependent: FIFO order guarantees the previous step's
    update has been mirrored by the time this runs)."""
    kb, worker.block = worker.block, None
    w = worker.weights
    with span("gemm", m=int(kb.shape[0])):
        # The serial step's contraction: under mixed precision the
        # partial comes back lifted to the weights' float64.
        f_i = master_matmul(kb, w, worker.backend)  # (m, l) partial
        l = w.shape[1] if w.ndim == 2 else 1
        record_ops("gemm", kb.shape[0] * worker.n_centers * l)
    return f_i


class ShardedEigenPro2(EigenPro2):
    """EigenPro 2.0 trained data-parallel across ``n_shards`` executors.

    Parameters
    ----------
    kernel:
        Kernel function.
    n_shards:
        Number of shards ``g``; clamped to the training-set size at fit.
        Defaults to 2, or to ``len(shard_backends)`` when a backend
        sequence is given; giving both and disagreeing is an error.
    shard_backends:
        Backend spec(s) for the executors — ``None`` (a fresh NumPy
        backend instance per shard), one spec for all, or one per shard
        (e.g. ``["torch:cuda:0", "torch:cuda:1"]``); see
        :meth:`repro.shard.ShardGroup.build`.  The process transport
        accepts NumPy specs only.
    transport:
        Where the shards run — any registered transport name
        (:func:`repro.shard.transport.available_transports`) or a
        :class:`~repro.shard.transport.ShardTransport` subclass:
        ``"thread"`` (default — in-process worker threads),
        ``"process"`` (one worker process per shard over shared-memory
        weight blocks) or ``"torchdist"`` (workers as
        ``torch.distributed`` ranks; the all-reduce is a real collective
        — gloo on CPU by default, NCCL when ``shard_backends`` names
        CUDA devices, e.g. ``ShardedEigenPro2(transport="torchdist",
        shard_backends=["torch:cuda:0", "torch:cuda:1"])``).
    device:
        Simulated device the selection steps adapt to.  Defaults to the
        :func:`repro.device.cluster.multi_gpu` aggregate of ``n_shards``
        Titan Xp models — so Step 1 sees the cluster's capacity, exactly
        the "no new code" adaptation story of the cluster model.
    interconnect:
        Network model for the default aggregate device (ignored when
        ``device`` is given).  Defaults to the per-transport link model
        (:func:`repro.device.cluster.transport_interconnect`) for
        non-thread transports, and to the generic NVLink-class default
        for threads.
    checkpoint_every:
        Take a :class:`~repro.shard.recovery.ShardCheckpoint` every this
        many SGD steps (plus one at every epoch start, bounding replay to
        within the current epoch).  ``0`` disables checkpointing *and*
        elastic recovery — a worker failure then propagates as before.
        Default 25; a checkpoint is a host copy of the weights through
        the transport's host-visible surface, so the steady-state
        overhead is one ``(n, l)`` memcpy per K steps.
    max_recoveries:
        Elastic-recovery retry budget per fit.  On a
        :class:`~repro.exceptions.ShardError` inside the epoch loop the
        trainer probes shard liveness, tears the broken group down,
        rebuilds over the surviving shard count (at least one fewer),
        restores the last checkpoint's weights and resumes from its
        batch cursor.  Once the budget is exhausted (or fewer than
        ``min_shards`` would survive) the original error propagates with
        the checkpoint attached (``exc.checkpoint``).
    min_shards:
        Smallest shard count the elastic shrink may rebuild to
        (default 1 — shrink down to a single surviving worker).
    checkpoint_dir:
        Optional directory; when set, every checkpoint is additionally
        persisted (atomically) to ``<checkpoint_dir>/checkpoint.pkl``
        for out-of-band resumption after a full-process crash.
    transport_options:
        Extra keyword arguments forwarded to the transport constructor
        on every group build — initial and rebuilt alike (e.g.
        ``{"timeout_s": 20.0}`` for torchdist, ``{"start_method":
        "spawn"}`` for the process transport).
    **eigenpro_kwargs:
        Everything :class:`~repro.core.eigenpro2.EigenPro2` accepts
        (``s``, ``q``, ``batch_size``, ``step_size``, ``seed``, ...).

    Attributes
    ----------
    shard_group_:
        The :class:`~repro.shard.ShardGroup` built at fit time (and
        rebuilt, smaller, by elastic recovery); call :meth:`close` (or
        use the trainer as a context manager) to join its workers.
    last_checkpoint_:
        Most recent :class:`~repro.shard.recovery.ShardCheckpoint`, or
        ``None`` before the first one of a fit.
    recovery_log_:
        List of :class:`~repro.shard.recovery.RecoveryEvent`, one per
        elastic-shrink recovery performed during the last fit (empty for
        a failure-free run).
    """

    method_name = "eigenpro2-sharded"

    def __init__(
        self,
        kernel: Kernel,
        *,
        n_shards: int | None = None,
        shard_backends: str | ArrayBackend | Sequence[str | ArrayBackend] | None = None,
        transport: str | type[ShardTransport] = "thread",
        device: SimulatedDevice | None = None,
        interconnect: Interconnect | None = None,
        checkpoint_every: int = 25,
        max_recoveries: int = 2,
        min_shards: int = 1,
        checkpoint_dir: str | Path | None = None,
        transport_options: dict[str, Any] | None = None,
        **eigenpro_kwargs: Any,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if max_recoveries < 0:
            raise ConfigurationError(
                f"max_recoveries must be >= 0, got {max_recoveries}"
            )
        if min_shards < 1:
            raise ConfigurationError(
                f"min_shards must be >= 1, got {min_shards}"
            )
        if shard_backends is not None and not isinstance(
            shard_backends, (str, ArrayBackend)
        ):
            # A backend sequence fixes the shard count: the simulated
            # device must model the cluster that actually executes.
            shard_backends = list(shard_backends)
            if n_shards is None:
                n_shards = len(shard_backends)
            elif int(n_shards) != len(shard_backends):
                raise ConfigurationError(
                    f"n_shards={n_shards} conflicts with "
                    f"{len(shard_backends)} entries in shard_backends"
                )
        n_shards = 2 if n_shards is None else int(n_shards)
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if device is None:
            if interconnect is None:
                # Each transport names its own link model (IPC for
                # processes, gloo/NCCL for torchdist; threads keep the
                # generic default) so Step 1 adapts to the fabric that
                # actually executes the collective — resolved through
                # the registry, no per-transport string matching here.
                interconnect = resolve_transport(
                    transport
                ).trainer_interconnect(shard_backends)
            device = multi_gpu(titan_xp(), n_shards, interconnect=interconnect)
        super().__init__(kernel, device=device, **eigenpro_kwargs)
        self.n_shards = n_shards
        self.shard_backends = shard_backends
        self.transport = transport
        self.checkpoint_every = int(checkpoint_every)
        self.max_recoveries = int(max_recoveries)
        self.min_shards = int(min_shards)
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self.transport_options = dict(transport_options or {})
        self.shard_group_: ShardGroup | None = None
        self.last_checkpoint_: ShardCheckpoint | None = None
        self.recovery_log_: list[RecoveryEvent] = []
        self._recoveries_used = 0
        self._steps_since_checkpoint = 0
        self._cursor = 0
        self._pending_mirror: PendingMap | None = None
        #: Open replay window after a recovery, for the tracer only:
        #: ``(resumed_step, failed_step, t0)``; closed (and recorded as
        #: a ``"recovery/replay"`` span) when the loop passes the step
        #: that originally failed.
        self._replay_window: tuple[int, int, float] | None = None

    # --------------------------------------------------------------- setup
    def _setup(self, x: np.ndarray, y: np.ndarray) -> None:
        super()._setup(x, y)
        self.last_checkpoint_ = None
        self.recovery_log_ = []
        self._recoveries_used = 0
        self._steps_since_checkpoint = 0
        self._replay_window = None

    def _bind_centers(self, x: Any) -> None:
        self._build_group(x, min(self.n_shards, x.shape[0]))

    def _build_group(self, x: Any, g: int) -> None:
        """Build (or, during recovery, rebuild at a smaller ``g``) the
        shard group over the held centers ``x`` and the current
        ``self._alpha`` and push the per-fit worker context."""
        backends = self.shard_backends
        if isinstance(backends, list):  # one spec per shard
            backends = backends[:g]
        group = ShardGroup.build(
            x, self._alpha, g=g, backends=backends, kernel=self.kernel,
            transport=self.transport, **self.transport_options,
        )
        # Build-before-close: a failing rebuild must leave the previous
        # (still open) group in place for fit's cleanup path.
        if self.shard_group_ is not None:
            self.shard_group_.close()
        self.shard_group_ = group
        self._pending_mirror = None
        # Per-fit worker context: the kernel every form task evaluates,
        # and how many of the shard's leading centers are the subsample's
        # (Phi's columns) — batched into a single task per worker, so
        # message-passing transports pay exactly one setup round-trip
        # per fit.
        s = 0 if self.preconditioner_ is None else self.preconditioner_.s
        group.scatter_state_items([
            {"kernel": self.kernel, "phi_cols": max(0, min(s, b) - a)}
            for a, b in zip(group.plan.bounds, group.plan.bounds[1:])
        ])

    # ----------------------------------------------------------- iteration
    def _drain_pending_mirror(self) -> None:
        """Surface any error from the previous step's queued row pushes.

        Never a barrier in the steady state: the pushes were queued
        before a contraction this caller has since awaited, so FIFO
        worker order guarantees they already ran."""
        pending, self._pending_mirror = self._pending_mirror, None
        if pending is not None:
            pending.result()

    def _apply_shard_step(
        self,
        group: ShardGroup,
        f: Any,
        phi_parts: list[Any | None],
        y: Any,
        idx: np.ndarray,
        gamma: float,
    ) -> None:
        """Apply the serial step's coordinate update and EigenPro
        correction (Algorithm 1 steps 3–5) to the already all-reduced
        batch prediction ``f`` on the caller thread, with ``Phi`` the
        shards' column parts concatenated in shard order; mirror touched
        rows to the shards asynchronously."""
        self._drain_pending_mirror()
        g = self._update(f, y, idx, gamma)
        touched = [idx]
        if self.preconditioner_ is not None:
            with span("correction", step=self._cursor, m=int(idx.shape[0])):
                # In the fit's working dtype, as the serial step reads it.
                dtype = get_backend().dtype_of(self._x)
                parts = [to_numpy(p) for p in phi_parts if p is not None]
                phi = (
                    np.asarray(parts[0], dtype=dtype)
                    if len(parts) == 1
                    else np.concatenate(parts, axis=1, dtype=dtype)
                )
                self._correct(phi, to_numpy(g), gamma)
            touched.append(np.arange(phi.shape[1]))
        self._mirror_rows(np.concatenate(touched))

    # ---------------------------------------------------- epoch w/ recovery
    def _run_epoch(
        self, x: Any, y: Any, blocks: list[np.ndarray], gamma: float
    ) -> None:
        """One epoch, wrapped in the elastic-recovery loop.

        With checkpointing enabled, an epoch-start checkpoint anchors the
        replay window, periodic checkpoints tighten it, and a
        :class:`~repro.exceptions.ShardError` raised by any step triggers
        :meth:`_recover_or_reraise`: probe liveness, rebuild the group
        over the survivors, restore the last checkpoint and resume at
        its cursor.  Failure-free runs execute exactly the schedule of
        the non-recovering engine — checkpoints only *read* state.  With
        checkpointing disabled there is nothing to restore, so a failure
        propagates.
        """
        if self.shard_group_ is None or not blocks:
            # Standalone use before a sharded fit: the unsharded loop.
            super()._run_epoch(x, y, blocks, gamma)
            return
        cursor = 0
        while True:
            try:
                self._run_span(x, y, blocks, gamma, start=cursor)
                return
            except ShardError as exc:
                cursor = self._recover_or_reraise(exc, x)

    def _run_span(
        self, x: Any, y: Any, blocks: list[np.ndarray], gamma: float,
        start: int,
    ) -> None:
        """Run ``blocks[start:]`` (module docstring: step schedule) with
        periodic checkpoints, starting with the span-anchor checkpoint at
        ``start`` itself.

        Per step ``t``: await the prefetched blocks, queue the fused
        contraction + all-reduce against the current weights, queue step
        ``t+1``'s prefetch right behind it, then — while the workers run
        — await the partial predictions and apply the update/correction
        on this thread.  The update (+ mirror) completes before step
        ``t+1``'s contraction is queued, so every contraction sees the
        weights of the previous step.
        """
        if self.checkpoint_every > 0:
            self._take_checkpoint(start)
        group = self.shard_group_

        def prefetch(idx: np.ndarray) -> PendingMap:
            xb = np.asarray(to_numpy(x[idx]))  # (m, d) batch, host-side
            # The batch norms are sliced once here, not re-reduced by
            # every shard.
            xb_sq_norms = (
                None
                if self._x_sq_norms is None
                else np.asarray(to_numpy(self._x_sq_norms[idx]))
            )
            return group.map_async(_form_block_task, xb, xb_sq_norms)

        pending = prefetch(blocks[start])
        for t in range(start, len(blocks)):
            self._cursor = t
            idx = blocks[t]
            with span("form_block_wait", step=t):
                phi_parts = pending.result()  # [phi_i] — relays kernel_eval
            # Fused contract + all-reduce: transports with a task-channel
            # collective run both in one task per rank (one round-trip);
            # the others combine host-side at await time.
            contracting = group.map_allreduce_async(_contract_task)
            if t + 1 < len(blocks):
                pending = prefetch(blocks[t + 1])
            with span("gemm_wait", step=t):
                f = contracting.result()  # relays gemm + allreduce ops
            self._apply_shard_step(group, f, phi_parts, y, idx, gamma)
            self._maybe_checkpoint(t + 1)
            self._note_step_complete(t)

    # ----------------------------------------------------------- checkpoint
    def _maybe_checkpoint(self, cursor: int) -> None:
        """Periodic-cadence hook, called after each completed step with
        the cursor of the *next* block to run."""
        if self.checkpoint_every <= 0:
            return
        self._steps_since_checkpoint += 1
        if self._steps_since_checkpoint >= self.checkpoint_every:
            self._take_checkpoint(cursor)

    def _take_checkpoint(self, cursor: int) -> ShardCheckpoint:
        """Snapshot the training state at batch cursor ``cursor`` of the
        current epoch.  Weights come through the transport's host-visible
        surface (a memcpy, no extra RPC on shared-memory transports) and
        are stored in the caller's row order; the queued mirror is
        drained first so device-copy shards are not snapshotted
        mid-push."""
        group = self.shard_group_
        with span("checkpoint", cursor=int(cursor), g=group.g):
            self._drain_pending_mirror()
            rng = self._rng
            weights = group.gather_weights()
            comp = self._corr_comp
            ckpt = ShardCheckpoint(
                weights=weights if self._inv is None else weights[self._inv],
                epoch=self._epoch,
                batch_cursor=int(cursor),
                rng_state=(
                    None if rng is None
                    else copy.deepcopy(rng.bit_generator.state)
                ),
                op_counts=group.op_counts(),
                g=group.g,
                transport=group.name,
                correction_comp=None if comp is None else comp.copy(),
            )
            self.last_checkpoint_ = ckpt
            self._steps_since_checkpoint = 0
            if self.checkpoint_dir is not None:
                ckpt.save(self.checkpoint_dir / "checkpoint.pkl")
        return ckpt

    # ------------------------------------------------------------- recovery
    def _recover_or_reraise(self, exc: ShardError, x: Any) -> int:
        """Elastic-shrink recovery from a shard failure inside the epoch
        loop; returns the batch cursor to resume from, or re-raises
        ``exc`` (checkpoint attached) when recovery is not possible."""
        group = self.shard_group_
        ckpt = self.last_checkpoint_
        if (
            group is None
            or ckpt is None
            or ckpt.epoch != self._epoch
            or self._recoveries_used >= self.max_recoveries
        ):
            exc.checkpoint = ckpt
            raise exc
        t0 = time.perf_counter()
        # Probe liveness to learn *which* workers died (never raises).
        # A task-level failure on still-live workers (e.g. a collective
        # timeout) reports nobody dead; the shrink still retires one
        # shard — every retry must make the group strictly smaller, or a
        # persistent fault would burn the budget without progress.
        with span("recovery/probe", g=group.g):
            dead = tuple(group.dead_shards())
        old_g = group.g
        new_g = old_g - max(1, len(dead))
        if new_g < self.min_shards:
            exc.checkpoint = ckpt
            raise exc
        self._pending_mirror = None
        with span("recovery/teardown", old_g=old_g):
            try:
                group.close()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        self.shard_group_ = None
        # Restore weights caller-side first: the rebuilt group shards
        # whatever ``self._alpha`` holds (zero-copy-view transports adopt
        # it directly, copying transports scatter it), so restoring into
        # alpha *is* the ``set_weights`` of the new group.  The held
        # order does not depend on g: the new group is re-planned over
        # the same held centers.  The correction's Kahan compensation
        # rolls back with the weights it compensates.
        with span("recovery/restore", cursor=ckpt.batch_cursor):
            bk = get_backend()
            weights = ckpt.weights
            self._alpha[...] = bk.asarray(
                weights if self._order is None else weights[self._order],
                dtype=bk.dtype_of(self._alpha),
            )
            comp = ckpt.correction_comp
            self._corr_comp = None if comp is None else comp.copy()
        with span("recovery/rebuild", new_g=new_g):
            self._build_group(x, new_g)
        self._recoveries_used += 1
        event = RecoveryEvent(
            epoch=self._epoch,
            failed_step=self._cursor,
            resumed_step=ckpt.batch_cursor,
            replayed_steps=max(0, self._cursor - ckpt.batch_cursor),
            old_g=old_g,
            new_g=new_g,
            dead_shards=dead,
            error=f"{type(exc).__name__}: {exc}",
            recovery_s=time.perf_counter() - t0,
        )
        self.recovery_log_.append(event)
        record_span(
            "recovery",
            t0,
            event.recovery_s,
            old_g=old_g,
            new_g=new_g,
            replayed_steps=event.replayed_steps,
        )
        if capture().tracing and event.replayed_steps > 0:
            # The replay itself happens in the resumed step loop; open a
            # window the loop closes (as a "recovery/replay" span) when
            # it passes the step that originally failed.
            self._replay_window = (
                ckpt.batch_cursor, self._cursor, time.perf_counter()
            )
        return ckpt.batch_cursor

    def _note_step_complete(self, t: int) -> None:
        """Close the post-recovery replay window once the loop has
        re-done every step the failure rolled back (tracing only)."""
        if self._replay_window is None:
            return
        resumed, failed, t0 = self._replay_window
        if t + 1 >= failed:
            self._replay_window = None
            record_span(
                "recovery/replay",
                t0,
                time.perf_counter() - t0,
                resumed_step=resumed,
                failed_step=failed,
                replayed_steps=failed - resumed,
            )

    def _mirror_rows(self, global_idx: np.ndarray) -> None:
        """Push updated weight rows to the shards without barriering
        (no-op when every shard adopted a zero-copy view)."""
        group = self.shard_group_
        if group is None or not group.needs_mirror:
            return
        global_idx = np.unique(np.asarray(global_idx))
        rows = to_numpy(self._alpha[global_idx])
        self._pending_mirror = group.mirror_rows(global_idx, rows)

    # ------------------------------------------------------------- fitting
    def fit(self, x: np.ndarray, y: np.ndarray, **fit_kwargs: Any):
        failed = False
        try:
            return super().fit(x, y, **fit_kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            group = self.shard_group_
            if group is not None:
                try:
                    self._drain_pending_mirror()
                    # Per-shard (m, n_i) batch scratch should not stay
                    # pinned on the workers after training, mirroring the
                    # base trainer's main-thread workspace reset.
                    group.reset_workspaces()
                    # keep_best_val may have restored an earlier weight
                    # snapshot after the last mirror; re-sync shard
                    # copies.  Guarded by the plan size so a fit that
                    # failed mid-setup (group from a previous fit, alpha
                    # from this one) does not mask the original
                    # exception.
                    if (
                        group.plan.n == self._alpha.shape[0]
                        and group.needs_mirror
                    ):
                        # The group keeps the fit's held center order.
                        w = to_numpy(self._alpha)
                        group.set_weights(
                            w if self._order is None else w[self._order]
                        )
                except ShardError:
                    # A dead transport must not mask the original
                    # (already-propagating) failure; with no failure in
                    # flight, surface it.
                    if not failed:
                        raise

    # ----------------------------------------------------------- inference
    def predict_sharded(
        self, x: Any, max_scalars: int = DEFAULT_BLOCK_SCALARS
    ) -> Any:
        """Sharded model evaluation through the trained shard group."""
        self._require_fitted()
        if self.shard_group_ is None:
            raise ConfigurationError("trainer has no shard group; fit first")
        return sharded_predict(
            self.shard_group_, x, kernel=self.kernel, max_scalars=max_scalars
        )

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Join the shard group's workers."""
        if self.shard_group_ is not None:
            self.shard_group_.close()
            self.shard_group_ = None

    def __enter__(self) -> "ShardedEigenPro2":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
