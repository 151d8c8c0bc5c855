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
3. the SGD coordinate update (step 3) runs where each weight row is
   owned, and the EigenPro correction (steps 4–5) on the shard(s)
   holding the subsample's rows (below); shards holding zero-copy views
   see the caller's updates immediately, all other shards get the
   touched rows mirrored back *asynchronously* (below).

The shards hold contiguous row ranges of the unsharded trainer's center
order, subsample first
(:meth:`~repro.core.eigenpro2.EigenPro2._center_order`), so the
subsample is the first ``s`` global centers and ``Phi^T``'s columns are
the leading columns of the blocks of the shards that hold them.  The
order is global, not per shard, and does not depend on ``g``: an
elastic rebuild at a smaller ``g`` re-plans the same held centers.  All
selected parameters, op counts and simulated-device charges are
identical to the unsharded trainer by construction, which is what lets
:func:`repro.observe.compare_phases` compare modelled against measured
time for the *same* iteration.

The per-shard work is expressed as module-level *task functions*
(:func:`_form_block_task`, :func:`_contract_task`, :func:`_settle_task`)
acting on a :class:`~repro.shard.transport.ShardWorker`, so the same
arithmetic runs unchanged on every transport — in-process worker
threads (``transport="thread"``, the default) or worker processes over
shared-memory weight blocks (``transport="process"``).  The formed block
never crosses the transport: a *form* task stashes it in
``worker.block`` and the matching *contract* task consumes it there.

The sharded step has no numeric rule of its own.  The contract task is
the serial step's contraction (:func:`~repro.backend.master_matmul`) on
the shard's rows, so under mixed precision each partial arrives already
lifted to float64; step 3 is :func:`~repro.core.trainer.coordinate_update`
and steps 4–5 are :func:`~repro.core.preconditioner.correction_partial`
and :func:`~repro.core.eigenpro2.correct_block`, the functions the
serial step runs.

Who owns ``alpha[:s]``
----------------------
The shards holding subsample centers — the *owners*, shard 0 alone
unless ``s`` exceeds its rows — own the subsample's weight rows
``alpha[:s]`` and the correction's Kahan compensation.  Each gets, once
per fit in its setup task, its rows of ``V`` (through shared memory on
the process transport), ``D`` and its rows of the compensation.  The
caller updates and mirrors only the rows at or past ``s``; an owner
applies step 3 to the batch rows it holds and then the correction
``gamma * V_i D p`` to its rows, where ``p`` is the shard-order sum of
the owners' partials ``V_i^T Phi_i^T g``.  A sole owner forms ``p``
itself, its own partial; several owners send theirs to the caller first
(one more round trip per step, only when the subsample spans shards).
The caller's copy of ``alpha[:s]`` and of the compensation is refreshed
from the owners whenever they are settled (below): before every
checkpoint and at the end of every span, so the monitor, the
checkpoints and ``model_`` read the exact iteration.  Recovery restores
the caller's copy and rebuilds the group from it.

Step schedule
-------------
The kernel block of step ``t+1`` depends only on the batch rows and the
(immutable) shard centers — never on the weights — so its formation is
*prefetched* behind step ``t``'s contraction.  Per step ``t`` each
worker's FIFO runs

1. **form** ``kb_t`` (weight-independent; queued during step ``t-1``);
2. **contract**: an owner first applies step ``t-1``'s update rows and
   correction, reading the ``Phi`` columns it kept from ``kb_{t-1}``,
   keeps ``kb_t``'s, then every shard contracts ``kb_t @ w``, fused with
   the all-reduce.  The caller queues it as soon as step ``t-1``'s
   update is done, behind the prefetched form, without waiting for it;
3. **form** ``kb_{t+1}``, queued right behind the contraction.

What crosses the transport per step: the batch rows ``(m, d)`` and their
norms in each form task; step ``t-1``'s batch positions and residuals
``g`` (``m*l``) — plus ``p`` (``q*l``) with several owners — in each
contract task; the ``(m, l)`` partial in each contract reply.  ``Phi``
(``m*s``) never does, and the caller runs no correction.  A span (an
epoch, or its replay after a recovery) starts with no correction
pending; before a checkpoint and after its last step a *settle* task
applies the pending one instead of the next contraction, and the last
settle of a span also drops the shards' block scratch.

FIFO order runs contraction ``t`` before formation ``t+1`` on every
worker, so one workspace buffer per shard suffices.  This is the only
sharded schedule: on the ``fit-sharded`` benchmark workload (process
transport, g=2, m=256, a 2-vCPU host) a strictly serial step (one fused
form + contract task) was slower in 18 of 20 paired runs.  That
comparison predates the per-worker BLAS thread budget
(:mod:`repro.shard.transport.process`): both schedules ran with every
worker's OpenBLAS oversubscribing the cores.  Nothing stale is ever
read — the prefetch touches no array the update or the correction
writes — so the weights match the unsharded trainer.

Asynchronous mirror-back
------------------------
The mirror of the rows the caller updated never barriers the caller:

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
import functools
import operator
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.backend import ArrayBackend, get_backend, master_matmul, to_numpy
from repro.config import (
    DEFAULT_BLOCK_SCALARS,
    compute_dtype,
    mixed_precision_active,
)
from repro.core.eigenpro2 import EigenPro2, correct_block
from repro.core.preconditioner import correction_partial
from repro.core.trainer import coordinate_update
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
# The per-fit context they need — the kernel, how many of this shard's
# leading centers are subsample points and, on the shards holding some,
# their part of the preconditioner — is pushed into ``worker.state`` at
# group build time (ShardedEigenPro2._shard_state).
# ---------------------------------------------------------------------------


def _form_block_task(
    worker: ShardWorker,
    xb: np.ndarray,
    xb_sq_norms: np.ndarray | None,
) -> None:
    """Form the batch-vs-shard block ``(m, n_i)`` (weight-independent,
    hence prefetchable) and stash it in ``worker.block`` for the
    matching :func:`_contract_task`; nothing crosses the transport."""
    kernel: Kernel = worker.state["kernel"]
    with span("form_block", m=int(xb.shape[0])):
        scratch = block_workspace().get(
            worker.backend, xb.shape[0], worker.n_centers,
            compute_dtype(xb, worker.centers),
        )
        worker.block = kernel(
            xb,
            worker.centers,
            out=scratch,
            x_sq_norms=xb_sq_norms,
            z_sq_norms=worker.center_sq_norms,
        )  # (m, n_i): records kernel_eval on the shard meter


def _apply_pending(worker: ShardWorker, pending: tuple | None) -> None:
    """Algorithm 1 steps 3–5 of the previous step on the subsample rows
    this shard holds (module docstring: the correction's owners).

    ``pending`` is ``(idx, g, gamma, p)``: the step's batch rows (held
    positions), residuals and per-coordinate step, and the shard-order
    sum ``p`` of the owners' partials ``V_i^T Phi_i^T g`` — ``None``
    when this shard is the only owner, which then forms the sum, its own
    partial, here.  Reads the ``Phi`` columns the previous contraction
    kept."""
    st = worker.state
    cols = st.get("phi_cols", 0)
    if pending is None or not cols:
        return
    idx, g, gamma, p = pending
    bk = worker.backend
    g = bk.asarray(g)
    v = st["eigvecs"] = bk.asarray(st["eigvecs"])
    row0 = st["row0"]
    mine = np.flatnonzero((idx >= row0) & (idx < row0 + cols))
    coordinate_update(worker.weights, idx[mine] - row0, g[mine], gamma)
    if p is None:
        p = correction_partial(worker.phi, g, v)
    st["comp"] = correct_block(
        worker.weights[:cols],
        bk.asarray(p),
        v,
        st["d_scale"],
        bk.dtype_of(worker.phi),
        gamma,
        st.get("comp"),
    )


def _contract_task(worker: ShardWorker, pending: tuple | None) -> Any:
    """Apply the previous step's pending update and correction to the
    subsample rows this shard holds, keep this step's ``Phi`` columns
    for the next one, then contract the stashed block against the
    shard's *current* weight rows (FIFO order guarantees the previous
    step's update of the other rows has been mirrored by now)."""
    kb, worker.block = worker.block, None
    if kb is None:
        raise ShardError(
            f"shard {worker.shard_id} has no formed block to contract "
            "(its form task failed)"
        )
    cols = worker.state.get("phi_cols", 0)
    if cols:
        with span("correction", m=int(kb.shape[0])):
            _apply_pending(worker, pending)
            phi = worker.phi
            if phi is None or phi.shape != (kb.shape[0], cols):
                worker.phi = worker.backend.copy(kb[:, :cols])
            else:
                phi[...] = kb[:, :cols]
    w = worker.weights
    with span("gemm", m=int(kb.shape[0])):
        # The serial step's contraction: under mixed precision the
        # partial comes back lifted to the weights' float64.
        f_i = master_matmul(kb, w, worker.backend)  # (m, l) partial
        l = w.shape[1] if w.ndim == 2 else 1
        record_ops("gemm", kb.shape[0] * worker.n_centers * l)
    return f_i


def _correction_partial_task(worker: ShardWorker, g: np.ndarray) -> Any:
    """This shard's partial ``V_i^T Phi_i^T g`` of the correction, on
    the kept ``Phi`` columns (``None`` on a shard that holds no
    subsample row); the caller sums the owners' partials in shard
    order when the subsample spans several shards."""
    st = worker.state
    if not st.get("phi_cols", 0):
        return None
    bk = worker.backend
    v = st["eigvecs"] = bk.asarray(st["eigvecs"])
    with span("correction", m=int(g.shape[0])):
        return to_numpy(correction_partial(worker.phi, bk.asarray(g), v))


def _settle_task(
    worker: ShardWorker, pending: tuple | None, drain: bool
) -> np.ndarray | None:
    """Apply a pending correction without a contraction (before a
    checkpoint, and at the end of a span, where ``drain`` also drops
    the shard's block scratch and kept ``Phi``); returns this shard's
    rows of the Kahan compensation, or ``None`` when it keeps none."""
    if worker.state.get("phi_cols", 0) and pending is not None:
        with span("correction", m=int(pending[0].shape[0])):
            _apply_pending(worker, pending)
    if drain:
        worker.drain_workspace()
    comp = worker.state.get("comp")
    return None if comp is None else to_numpy(comp)


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
        the transport's host-visible surface, taken after one settle
        task has applied the pending correction, so the steady-state
        overhead is one round trip and one ``(n, l)`` memcpy per K
        steps.
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
        #: Subsample rows ``alpha[:s]`` the owner shards update (``0``
        #: without a preconditioner), and how many shards hold them.
        self._owned_rows = 0
        self._owners = 0
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
        group.scatter_state_items(self._shard_state(group))

    def _shard_state(self, group: ShardGroup) -> list[dict[str, Any]]:
        """Per-fit worker context, one dict per shard (a single setup
        task per worker): the kernel every form task evaluates, and how
        many of the shard's leading centers are subsample points
        (``phi_cols``).  A shard holding some of them — an *owner* —
        also gets their offset, their rows of ``V``, ``D`` and their
        rows of the Kahan compensation (module docstring)."""
        precond = self.preconditioner_
        s = 0 if precond is None else precond.s
        bounds = group.plan.bounds
        self._owned_rows = s
        self._owners = sum(1 for a in bounds[:-1] if a < s)
        if (
            s
            and self._corr_comp is None
            and mixed_precision_active()
            and isinstance(self._alpha, np.ndarray)
        ):
            # The owners accumulate into their rows of this buffer (the
            # thread transport's NumPy shards in place, through views).
            self._corr_comp = np.zeros(
                (s, self._alpha.shape[1]), dtype=self._alpha.dtype
            )
        eigvecs = (
            None if precond is None else to_numpy(precond.extension.eigvecs)
        )
        comp = self._corr_comp
        items = []
        for a, b in zip(bounds, bounds[1:]):
            cols = max(0, min(s, b) - a)
            item: dict[str, Any] = {"kernel": self.kernel, "phi_cols": cols}
            if cols:
                rows = slice(a, a + cols)
                item.update(
                    row0=a,
                    eigvecs=eigvecs[rows],
                    d_scale=precond.d_scale,
                    comp=None if comp is None else comp[rows],
                )
            items.append(item)
        return items

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
        self, f: Any, y: Any, idx: np.ndarray, gamma: float
    ) -> tuple | None:
        """Step 3 on the rows this caller owns, for the already
        all-reduced batch prediction ``f``, with the touched rows
        mirrored to the shards asynchronously.  Returns the owners'
        payload for the rest of the step — ``(idx, g, gamma, p)``, see
        :func:`_apply_pending` — or ``None`` without a preconditioner.
        """
        self._drain_pending_mirror()
        g = f - y[idx]
        mine = idx >= self._owned_rows  # the subsample's rows: the owners'
        coordinate_update(self._alpha, idx[mine], g[mine], gamma)
        self._mirror_rows(idx[mine])
        if not self._owned_rows:
            return None
        g = np.asarray(to_numpy(g))
        p = None
        if self._owners > 1:
            with span("correction_wait", step=self._cursor):
                parts = [
                    part
                    for part in self.shard_group_.map(
                        _correction_partial_task, g
                    )
                    if part is not None
                ]
            p = functools.reduce(operator.add, parts)
        return idx, g, gamma, p

    def _settle(self, pending: tuple | None, drain: bool) -> None:
        """Have the owners apply ``pending`` now (before a checkpoint,
        and with ``drain`` at the end of a span), then refresh this
        caller's copy of the subsample's weight rows and Kahan
        compensation from them."""
        if pending is None and not drain:
            return  # no preconditioner: nothing to apply or refresh
        group = self.shard_group_
        with span("correction_wait", step=self._cursor, drain=drain):
            comps = group.map(_settle_task, pending, drain)
        s = self._owned_rows
        if not s:
            return
        if self._corr_comp is not None:
            for a, comp in zip(group.plan.bounds, comps):
                if comp is not None:
                    self._corr_comp[a : a + comp.shape[0]] = comp
        if group.needs_mirror:
            bk = get_backend()
            self._alpha[:s] = bk.asarray(
                group.gather_weights()[:s], dtype=bk.dtype_of(self._alpha)
            )

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

        Per step ``t`` (step ``t``'s form and contraction already
        queued): queue step ``t+1``'s prefetch, await the blocks and the
        all-reduced prediction, apply step 3 to this caller's rows, then
        either settle the owners (checkpoint due, or the span's last
        step) or hand them the step in step ``t+1``'s contraction.  The
        update (+ mirror) completes before step ``t+1``'s contraction is
        queued, and the owners apply step ``t``'s correction before they
        contract, so every contraction sees the weights of the previous
        step.
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

        # Fused contract + all-reduce: transports with a task-channel
        # collective run both in one task per rank (one round-trip); the
        # others combine host-side at await time.  A span starts with no
        # correction pending.
        forming = prefetch(blocks[start])
        contracting = group.map_allreduce_async(_contract_task, None)
        for t in range(start, len(blocks)):
            self._cursor = t
            idx = blocks[t]
            last = t + 1 == len(blocks)
            if not last:
                upcoming = prefetch(blocks[t + 1])
            f = self._await_step(t, forming, contracting)
            pending = self._apply_shard_step(f, y, idx, gamma)
            self._steps_since_checkpoint += 1
            checkpoint = (
                0 < self.checkpoint_every <= self._steps_since_checkpoint
            )
            if last or checkpoint:
                self._settle(pending, drain=last)
                pending = None
            if checkpoint:
                self._take_checkpoint(t + 1)
            if not last:
                forming = upcoming
                contracting = group.map_allreduce_async(_contract_task, pending)
            self._note_step_complete(t)

    def _await_step(
        self, t: int, forming: PendingMap, contracting: Any
    ) -> Any:
        """Await step ``t``'s blocks (relaying ``kernel_eval``) and its
        contraction (relaying ``gemm``, ``precond`` and ``allreduce``);
        returns the all-reduced prediction.  Both are drained before the
        first error (the forms') is raised, so the error leaves none of
        the step's tasks running and the ops of those that ran relayed."""
        error: Exception | None = None
        with span("form_block_wait", step=t):
            try:
                forming.result()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                error = exc
        with span("gemm_wait", step=t):
            try:
                f = contracting.result()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                error = error or exc
        if error is not None:
            raise error
        return f

    # ----------------------------------------------------------- checkpoint
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
                    # base trainer's main-thread workspace reset.  A fit
                    # that completed dropped it with each span's last
                    # settle (_run_span).
                    if failed:
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
