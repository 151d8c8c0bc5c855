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
   owned, and the EigenPro correction (steps 4–5) on shard 0, which
   holds the subsample's rows (below); shards holding zero-copy views
   see the caller's updates immediately, the caller writes the touched
   rows into all other shards in place (below).

The shards hold contiguous row ranges of the unsharded trainer's center
order, subsample first
(:meth:`~repro.core.eigenpro2.EigenPro2._center_order`), so the
subsample is the first ``s`` global centers and ``Phi^T``'s columns are
the leading columns of shard 0's block.  The order is global, not per
shard, and does not depend on ``g``: an elastic rebuild at a smaller
``g`` re-plans the same held centers.  All
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
the shard's rows; step 3 is :func:`~repro.core.trainer.coordinate_update`
and steps 4–5 are :func:`~repro.core.preconditioner.correction_partial`
and :func:`~repro.core.eigenpro2.correct_block`, the functions the
serial step runs.

Who owns ``alpha[:s]``
----------------------
Shard 0 — the *owner* — holds every subsample center at every ``g``, and
with them the subsample's weight rows ``alpha[:s]``.  Since it runs the
correction on top of its share of step 2, it may hold fewer centers than
the others: the group's plan is :meth:`~repro.shard.ShardPlan.balanced`
by the step's Table-1 op counts (:mod:`repro.core.cost`), ``m*(d+l)``
per center (:func:`~repro.core.cost.exact_sgd_ops`) plus ``l*(m+2q)``
per subsample center
(:func:`~repro.core.cost.exact_improved_overhead_ops` over ``s``).  At
``n=8000, d=32, l=10, m=256, s=2000, q=300`` and ``g=2`` the owner holds
3204 centers and the other shard 4796.  Every shard holds at least one
row, so a fit clamps ``g`` to ``n - s + 1``.  Every build re-plans (the
first, and each elastic rebuild) and records one ``group_build`` span
with the plan's ``bounds``.  The owner gets, once per fit in its setup
task, ``V`` (through shared memory on the process transport) and ``D``.
The caller updates and mirrors only the rows at or past ``s``; the owner
applies step 3 to the batch rows it holds and then the correction
``gamma * V D V^T Phi^T g``, the computation
:meth:`~repro.core.eigenpro2.EigenPro2._correct` runs serially.  The
caller's copy of ``alpha[:s]`` is refreshed from the owner when it is
settled (below) at the end of every span, so the monitor, the next
epoch's anchor and ``model_`` read the exact iteration.

Step schedule
-------------
The kernel block of step ``t+1`` depends only on the batch rows and the
(immutable) shard centers — never on the weights — so its formation is
*prefetched* behind step ``t``'s contraction.  Per step ``t`` each
worker's FIFO runs

1. **form** ``kb_t`` (weight-independent; queued during step ``t-1``);
2. **contract**: the owner first applies step ``t-1``'s update rows and
   correction, reading the ``Phi`` columns it kept from ``kb_{t-1}``,
   keeps ``kb_t``'s, then every shard contracts ``kb_t @ w``, fused with
   the all-reduce.  The caller queues it as soon as step ``t-1``'s
   update is done, behind the prefetched form, without waiting for it;
3. **form** ``kb_{t+1}``, queued right behind the contraction.

What crosses the transport per step: the batch rows ``(m, d)`` and their
norms in each form task; step ``t-1``'s batch positions and residuals
``g`` (``m*l``) in each contract task; the ``(m, l)`` partial in each
contract reply.  ``Phi`` (``m*s``) never does, and the caller runs no
correction.  A span (an
epoch, or its replay after a recovery) starts with no correction
pending; after its last step a *settle* task applies the pending one
instead of a next contraction and drops the shards' block scratch.

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

Mirror-back
-----------
The rows the caller updated reach the shards by one rule on every
transport (:mod:`repro.shard.transport.base`): the caller writes them in
place into each shard that does not hold a view of ``alpha`` — a device
copy, or the process transport's shared-memory segment — with no task
and no barrier.  NumPy thread shards hold views, so the update *is* the
mirror.  The write returns before contraction ``t+1`` is queued, and the
prefetched formation that may be in flight never reads weights.

Elastic recovery
----------------
The epoch loop, anchor and replay are the base trainer's (epoch
anchor, :mod:`repro.core.trainer`); this class supplies the step hook
and the fault handler.  The anchor, a
:class:`~repro.shard.recovery.ShardCheckpoint`, is copied from the
caller's ``alpha`` in the caller's order: every span's settle refreshes
``alpha[:s]`` from the owner, so no transport call is needed.  A
:class:`~repro.exceptions.ShardError` in the epoch's steps rebuilds the
group at ``g - max(1, len(dead))`` shards; the loop then restores the
anchor (re-syncing the shards' copies) and replays the epoch.  A fit
recovers at most ``g - 1`` times; when no shard would survive the
shrink, the original error propagates with the anchor on
``exc.checkpoint``.  Only the epoch's start is anchored: on
``fit-sharded`` (32 steps an epoch) a checkpoint at step 25 would
shorten a replay by 7 steps, and cost a settle round trip in every
failure-free epoch.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro.backend import ArrayBackend, get_backend, master_matmul, to_numpy
from repro.config import DEFAULT_BLOCK_SCALARS, compute_dtype
from repro.core.cost import exact_improved_overhead_ops, exact_sgd_ops
from repro.core.eigenpro2 import EigenPro2, correct_block
from repro.core.preconditioner import correction_partial
from repro.core.trainer import coordinate_update
from repro.device.cluster import Interconnect, multi_gpu
from repro.device.presets import titan_xp
from repro.device.simulator import SimulatedDevice
from repro.exceptions import ConfigurationError, ShardError
from repro.instrument import record_ops, record_span, span
from repro.kernels.base import Kernel
from repro.kernels.ops import block_workspace
from repro.shard.group import PendingMap, ShardGroup
from repro.shard.ops import sharded_predict
from repro.shard.plan import ShardPlan
from repro.shard.recovery import RecoveryEvent, ShardCheckpoint
from repro.shard.transport import ShardWorker, resolve_transport

__all__ = ["ShardedEigenPro2"]


# ---------------------------------------------------------------------------
# Worker-side task functions (module-level: picklable on every transport).
# The per-fit context they need — the kernel, how many of this shard's
# leading centers are subsample points and, on shard 0, which holds them
# all, the preconditioner — is pushed into ``worker.state`` at
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
    """Algorithm 1 steps 3–5 of the previous step on the subsample rows,
    which this shard holds (module docstring: who owns ``alpha[:s]``).

    ``pending`` is ``(idx, g, gamma)``: the step's batch rows (held
    positions), residuals and per-coordinate step.  Reads the ``Phi``
    columns the previous contraction kept."""
    st = worker.state
    cols = st.get("phi_cols", 0)
    if pending is None or not cols:
        return
    idx, g, gamma = pending
    bk = worker.backend
    g = bk.asarray(g)
    v = st["eigvecs"] = bk.asarray(st["eigvecs"])
    mine = np.flatnonzero(idx < cols)
    coordinate_update(worker.weights, idx[mine], g[mine], gamma)
    correct_block(
        worker.weights[:cols],
        correction_partial(worker.phi, g, v),
        v,
        st["d_scale"],
        bk.dtype_of(worker.phi),
        gamma,
    )


def _contract_task(worker: ShardWorker, pending: tuple | None) -> Any:
    """Apply the previous step's pending update and correction to the
    subsample rows if this shard holds them, keep this step's ``Phi``
    columns for the next one, then contract the stashed block against the
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
        f_i = master_matmul(kb, w, worker.backend)  # (m, l) partial
        l = w.shape[1] if w.ndim == 2 else 1
        record_ops("gemm", kb.shape[0] * worker.n_centers * l)
    return f_i


def _settle_task(worker: ShardWorker, pending: tuple | None) -> None:
    """Apply a pending correction without a contraction at the end of a
    span, then drop the shard's block scratch and kept ``Phi``."""
    if worker.state.get("phi_cols", 0) and pending is not None:
        with span("correction", m=int(pending[0].shape[0])):
            _apply_pending(worker, pending)
    worker.drain_workspace()


class ShardedEigenPro2(EigenPro2):
    """EigenPro 2.0 trained data-parallel across ``n_shards`` executors.

    Parameters
    ----------
    kernel:
        Kernel function.
    n_shards:
        Number of shards ``g``; clamped at fit to ``n - s + 1`` (``n``
        without a preconditioner), so that shard 0 holds the whole
        subsample and every other shard at least one center.
        Defaults to 2, or to ``len(shard_backends)`` when a backend
        sequence is given; giving both and disagreeing is an error.
    shard_backends:
        Backend spec(s) for the executors — ``None`` (a fresh NumPy
        backend instance per shard), one spec for all, or one per shard
        (e.g. ``["torch:cuda:0", "torch:cuda:1"]``); see
        :meth:`repro.shard.ShardGroup.build`.  The process transport
        accepts NumPy specs only.
    transport:
        Where the shards run: ``"thread"`` (default — in-process worker
        threads) or ``"process"`` (one worker process per shard over
        shared-memory weight blocks).  Any other name raises
        :class:`~repro.exceptions.ConfigurationError` here, not at fit.
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
    transport_options:
        Extra keyword arguments forwarded to the transport constructor
        on every group build — initial and rebuilt alike (e.g.
        ``{"start_method": "spawn"}`` for the process transport).
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
        The current epoch's anchor
        :class:`~repro.shard.recovery.ShardCheckpoint` (module docstring:
        elastic recovery), or ``None`` before a fit's first epoch.
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
        transport: str = "thread",
        device: SimulatedDevice | None = None,
        interconnect: Interconnect | None = None,
        transport_options: dict[str, Any] | None = None,
        **eigenpro_kwargs: Any,
    ) -> None:
        transport_cls = resolve_transport(transport)
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
                # The process transport charges its IPC link model, so
                # Step 1 adapts to the fabric that actually executes the
                # collective; threads keep the generic default.
                interconnect = transport_cls.trainer_interconnect()
            device = multi_gpu(titan_xp(), n_shards, interconnect=interconnect)
        super().__init__(kernel, device=device, **eigenpro_kwargs)
        self.n_shards = n_shards
        self.shard_backends = shard_backends
        self.transport = transport
        self.transport_options = dict(transport_options or {})
        self.shard_group_: ShardGroup | None = None
        self.recovery_log_: list[RecoveryEvent] = []
        self._cursor = 0
        #: Subsample rows ``alpha[:s]`` the owner, shard 0, updates
        #: (``0`` without a preconditioner).
        self._owned_rows = 0

    @property
    def last_checkpoint_(self) -> ShardCheckpoint | None:
        """The current epoch's anchor (read-only; class docstring)."""
        return self._anchor

    # --------------------------------------------------------------- setup
    def _bind_centers(self, x: Any) -> None:
        self.recovery_log_ = []
        precond = self.preconditioner_
        s = 0 if precond is None else precond.s
        self._build_group(x, min(self.n_shards, x.shape[0] - max(s, 1) + 1))

    def _build_group(self, x: Any, g: int) -> None:
        """Build (or, during recovery, rebuild at a smaller ``g``) the
        shard group over the held centers ``x`` and the current
        ``self._alpha`` and push the per-fit worker context."""
        backends = self.shard_backends
        if isinstance(backends, list):  # one spec per shard
            backends = backends[:g]
        precond = self.preconditioner_
        s, q = (0, 0) if precond is None else (precond.s, precond.q)
        plan = self._plan(x, g, s, q)
        self._owned_rows = s
        with span("group_build", bounds=plan.bounds):
            group = ShardGroup.build(
                x, self._alpha, g=g, backends=backends, kernel=self.kernel,
                transport=self.transport, plan=plan,
                **self.transport_options,
            )
        # Build-before-close: a failing rebuild must leave the previous
        # (still open) group in place for fit's cleanup path.
        if self.shard_group_ is not None:
            self.shard_group_.close()
        self.shard_group_ = group
        group.scatter_state_items(self._shard_state(group))

    def _plan(self, x: Any, g: int, s: int, q: int) -> ShardPlan:
        """The shard plan over the held centers ``x``, balanced by the
        step's Table-1 op counts for subsample size ``s`` and EigenPro
        parameter ``q`` (module docstring: who owns ``alpha[:s]``)."""
        n, d = x.shape
        m, l = min(self.batch_size_, n), self._alpha.shape[1]
        return ShardPlan.balanced(
            n, g,
            row_cost=exact_sgd_ops(1, m, d, l),
            lead_rows=s,
            lead_cost=exact_improved_overhead_ops(m, l, s, q) // max(s, 1),
        )

    def _shard_state(self, group: ShardGroup) -> list[dict[str, Any]]:
        """Per-fit worker context, one dict per shard (a single setup
        task per worker): the kernel every form task evaluates, and how
        many of the shard's leading centers are subsample points
        (``phi_cols``: ``s`` on shard 0, none elsewhere).  Shard 0 also
        gets ``V`` and ``D`` (module docstring)."""
        precond = self.preconditioner_
        s = self._owned_rows
        items = [
            {"kernel": self.kernel, "phi_cols": 0} for _ in range(group.g)
        ]
        if s:
            items[0].update(
                phi_cols=s,
                eigvecs=to_numpy(precond.extension.eigvecs),
                d_scale=precond.d_scale,
            )
        return items

    # ----------------------------------------------------------- iteration
    def _apply_shard_step(
        self, f: Any, y: Any, idx: np.ndarray, gamma: float
    ) -> tuple | None:
        """Step 3 on the rows this caller owns, for the already
        all-reduced batch prediction ``f``, with the touched rows
        written into the shards (:meth:`_mirror_rows`).  Returns the
        owner's payload for the rest of the step — ``(idx, g, gamma)``,
        see :func:`_apply_pending` — or ``None`` without a
        preconditioner.
        """
        g = f - y[idx]
        mine = idx >= self._owned_rows  # the subsample's rows: the owner's
        coordinate_update(self._alpha, idx[mine], g[mine], gamma)
        self._mirror_rows(idx[mine])
        if not self._owned_rows:
            return None
        return idx, np.asarray(to_numpy(g)), gamma

    def _settle(self, pending: tuple | None) -> None:
        """Have the owner apply ``pending`` at the end of a span and
        every shard drop its block scratch, then refresh this caller's
        copy of the subsample's weight rows from the owner's rows."""
        group = self.shard_group_
        with span("correction_wait", step=self._cursor):
            group.map(_settle_task, pending)
        s = self._owned_rows
        if s and group.needs_mirror:
            bk = get_backend()
            self._alpha[:s] = bk.asarray(
                to_numpy(group.executors[0].weights[:s]),
                dtype=bk.dtype_of(self._alpha),
            )

    # ------------------------------------------------------------- the epoch
    def _run_span(
        self, x: Any, y: Any, blocks: list[np.ndarray], gamma: float
    ) -> None:
        """Step hook: run the epoch's ``blocks`` (module docstring: step
        schedule).

        Per step ``t`` (step ``t``'s form and contraction already
        queued): queue step ``t+1``'s prefetch, await the blocks and the
        all-reduced prediction, apply step 3 to this caller's rows, then
        hand the owner the step in step ``t+1``'s contraction, or settle
        it after the last step.  The update (+ mirror) completes before
        step ``t+1``'s contraction is queued, and the owner applies step
        ``t``'s correction before it contracts, so every contraction sees
        the weights of the previous step.
        """
        if not blocks:  # max_iterations=0 leaves an epoch no step
            return
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

        # Fused contract + all-reduce: the partials combine host-side at
        # await time.  A span starts with no correction pending.
        forming = prefetch(blocks[0])
        contracting = group.map_allreduce_async(_contract_task, None)
        for t, idx in enumerate(blocks):
            self._cursor = t
            last = t + 1 == len(blocks)
            if not last:
                upcoming = prefetch(blocks[t + 1])
            f = self._await_step(t, forming, contracting)
            pending = self._apply_shard_step(f, y, idx, gamma)
            if last:
                self._settle(pending)
            else:
                forming = upcoming
                contracting = group.map_allreduce_async(_contract_task, pending)

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

    # ----------------------------------------------------- anchor, recovery
    def _snapshot(self) -> ShardCheckpoint:
        """A copy of the caller's weights, in the caller's order, tagged
        with the current epoch (module docstring: elastic recovery)."""
        w = to_numpy(self._alpha)
        return ShardCheckpoint(
            weights=w.copy() if self._inv is None else w[self._inv],
            epoch=self._epoch,
        )

    def _restore(self, snapshot: ShardCheckpoint) -> None:
        """Put the weights back to ``snapshot``, the shards' copies too:
        zero-copy-view shards see the caller's ``alpha`` restored, others
        are re-synced.  The group holds the fit's center order."""
        bk = get_backend()
        w = snapshot.weights
        super()._restore(bk.asarray(
            w if self._order is None else w[self._order],
            dtype=bk.dtype_of(self._alpha),
        ))
        group = self.shard_group_
        if group.needs_mirror:
            group.set_weights(to_numpy(self._alpha))

    def _recover_or_reraise(self, exc: Exception, x: Any) -> None:
        """Elastic-shrink recovery from a shard failure inside the
        epoch's steps: rebuild the group smaller, so the caller restores
        the epoch's anchor and replays the epoch from its first step; or
        re-raise ``exc`` (anchor attached) when no shard would survive.
        Any other fault is re-raised as is."""
        if not isinstance(exc, ShardError):
            raise exc
        group = self.shard_group_
        t0 = time.perf_counter()
        # Probe liveness to learn *which* workers died (never raises).
        # A task-level failure on still-live workers (e.g. a collective
        # timeout) reports nobody dead; the shrink still retires one
        # shard, so a persistent fault ends the fit after g - 1 retries.
        with span("recovery/probe", g=group.g):
            dead = tuple(group.dead_shards())
        old_g = group.g
        new_g = old_g - max(1, len(dead))
        if new_g < 1:
            exc.checkpoint = self._anchor
            raise exc
        with span("recovery/teardown", old_g=old_g):
            try:
                group.close()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        self.shard_group_ = None
        # The held order does not depend on g: the new group is
        # re-planned over the same held centers.
        with span("recovery/rebuild", new_g=new_g):
            self._build_group(x, new_g)
        event = RecoveryEvent(
            epoch=self._epoch,
            failed_step=self._cursor,
            replayed_steps=self._cursor,
            old_g=old_g,
            new_g=new_g,
            dead_shards=dead,
            error=f"{type(exc).__name__}: {exc}",
            recovery_s=time.perf_counter() - t0,
        )
        self.recovery_log_.append(event)
        record_span(
            "recovery", t0, event.recovery_s, old_g=old_g, new_g=new_g,
            replayed_steps=event.replayed_steps,
        )

    def _mirror_rows(self, global_idx: np.ndarray) -> None:
        """Write updated weight rows into the shards in place (no-op when
        every shard adopted a zero-copy view)."""
        group = self.shard_group_
        if not group.needs_mirror:
            return
        global_idx = np.unique(np.asarray(global_idx))
        group.mirror_rows(global_idx, to_numpy(self._alpha[global_idx]))

    # ------------------------------------------------------------- fitting
    def fit(self, x: np.ndarray, y: np.ndarray, **fit_kwargs: Any):
        try:
            return super().fit(x, y, **fit_kwargs)
        except BaseException:
            # Per-shard (m, n_i) batch scratch should not stay pinned on
            # the workers after a failed fit, mirroring the base trainer's
            # main-thread workspace reset.  A fit that completed dropped
            # it with each span's last settle (_run_span).
            if self.shard_group_ is not None:
                try:
                    self.shard_group_.reset_workspaces()
                except ShardError:
                    pass  # a dead transport must not mask the failure
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
