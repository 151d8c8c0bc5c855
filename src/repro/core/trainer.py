"""Shared mini-batch training loop for all SGD-family kernel trainers.

EigenPro 2.0, plain kernel SGD and the original EigenPro differ only in

1. their *setup* (what gets precomputed from the data: nothing, a
   subsample eigensystem, or a full-data eigensystem),
2. the *correction* applied after the standard SGD coordinate update
   (Algorithm 1, step 5), and
3. the per-iteration *cost* charged to the simulated device.

:class:`BaseKernelTrainer` owns everything else: the epoch loop with
without-replacement mini-batches (Eq. 2/3: the coordinate-descent view of
kernel SGD), device memory accounting per the paper's space model
``(d + l + m) * n``, simulated-time charging, train/validation monitoring
and early stopping.  Subclasses override the three hooks.

Each step forms the ``(m, n)`` batch-vs-centers kernel block into the
shared :class:`~repro.kernels.ops.BlockWorkspace` and consumes it (GEMM,
coordinate update, correction) before the next step starts.  The speed
comes from the analytic batch size filling the device with one block,
not from overlapping steps.

Each numeric rule of the step has one implementation, which the
sharded trainer (:mod:`repro.shard.trainer`) reuses: the prediction
GEMM is :func:`~repro.backend.master_matmul` (also per shard), ``alpha``
and ``y`` are held in the fit's :func:`~repro.config.compute_dtype`,
step 3 is :func:`coordinate_update` (through
:meth:`BaseKernelTrainer._update`), and EigenPro's steps 4–5 are
:func:`~repro.core.preconditioner.correction_partial` and
:func:`~repro.core.eigenpro2.correct_block` (through
:meth:`~repro.core.eigenpro2.EigenPro2._correct`).

Layout: a subclass may hold the fit's centers in an order of its own
(:meth:`BaseKernelTrainer._center_order`).  EigenPro 2.0 puts its
subsample first, so the columns ``kb[:, :s]`` of every step's kernel
block *are* ``Phi^T``, a view with no copy, and steps 4–5 update the
slice ``alpha[:s]``.  ``x``, ``y``, their norms and ``alpha`` are held
in that order from the end of setup to the fit's exit, where ``alpha``
is put back once; setup itself, the RNG's batch and monitor draws (each
batch is the same caller rows, at their held positions),
:attr:`~BaseKernelTrainer.model_` and the sharded trainer's checkpoints
are in the caller's row order.  Trainers without a preconditioner hold
the caller's order, and nothing is moved.

The full-batch regime (``m >= n``, where the paper's analytic batch size
lands on small data) is the one exception.  Every epoch is then a single
step over the whole training set, and a full-batch step does not depend
on row order (except in the last bits of its sums), so the rows run in
the identity of the held order instead of a fresh permutation.  Every
epoch's block is then the same symmetric ``(n, n)`` matrix ``K(X, X)``:
the first step forms it and later epochs reuse it.  The fit keeps only
its lower block columns (:class:`_KeptBlock`, arrays the fit owns, not
a workspace view, which the validation predicts would overwrite): a
first column as wide as ``Phi`` (EigenPro 2.0's ``s``), so ``Phi`` is
still a view, then columns of about ``n / 8`` rows, about 60% of the
``n^2`` entries at ``s = n / 4``.  With ``l`` columns in ``alpha`` the
product with that block is bound by the bytes it reads, so the fit
reads it once per step: it carries the prediction
``f = K(X, X) alpha``, zero while ``alpha`` is, and each step runs its
update and correction from the carried ``f`` and ends with the one
product of the block and the updated ``alpha``
(:meth:`_KeptBlock.matmul`, two GEMMs per column).  The epoch's
train-MSE monitor reads its rows of that product, and the next step
starts from it.  The fit drops the block and ``f`` when it returns or
raises.

Epoch anchor: every epoch starts with one ``(n, l)`` copy of the
weights (:meth:`_take_checkpoint`) and runs its steps through
:meth:`_run_span`.  A fault a step raises goes to
:meth:`_recover_or_reraise`, which re-raises it unless a subclass
accepts it (the sharded trainer, a lost shard); an accepted fault
restores the anchor and replays the epoch's batch blocks from the first,
ending where a failure-free epoch does.  A full-batch restore drops the
carried prediction; the next step recomputes it from the kept block.
``keep_best_val`` uses the same :meth:`_snapshot` and :meth:`_restore`.

Under an active tracer (:mod:`repro.observe`) a fit records one
``setup`` span, an ``epoch`` span per epoch holding its ``checkpoint``
span and the steps' ``form_block``, ``gemm`` and ``correction`` spans,
and a ``monitor`` span per epoch around the train-MSE predict.  A
replay records a ``recovery/restore`` span and a ``recovery/replay``
span around the replayed steps.  Every step records one
``gemm`` span.  A full-batch fit records one ``form_block`` span in
all, its ``gemm`` span follows the ``correction`` span, and its
``monitor`` spans run no GEMM.

Update convention
-----------------
The batch coordinate update is ``alpha_t -= (eta / m) * (f(x_t) - y_t)``
with ``eta`` from :func:`repro.core.stepsize.analytic_step_size` — the
parametrization of Ma et al. (2017), which reproduces Table 4's
``eta ≈ m/2`` at the adaptive operating point (see stepsize.py for the
factor-bookkeeping against the paper's Eq. 2).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backend import get_backend, master_matmul, to_numpy
from repro.config import compute_dtype
from repro.core.model import KernelModel, as_labels
from repro.kernels.ops import block_workspace, center_sq_norms
from repro.core.stopping import TrainMSETarget, ValidationPlateau
from repro.device.simulator import SimulatedDevice
from repro.exceptions import ConfigurationError, NotFittedError
from repro.instrument import record_ops, span
from repro.kernels.base import Kernel

__all__ = [
    "EpochRecord",
    "TrainingHistory",
    "BaseKernelTrainer",
    "coordinate_update",
]


def coordinate_update(alpha: Any, rows: Any, g: Any, gamma: float) -> None:
    """Step 3 on weight rows ``rows``: ``alpha[rows] -= gamma * g``, with
    ``g`` the residuals of those rows in the same order.  Elementwise, so
    splitting a batch's rows over several callers (the sharded trainer's
    parent and its shard 0) gives the same bits."""
    alpha[rows] -= gamma * g


#: The kept full-batch block's columns after the first are about
#: ``n / _KEPT_SPLITS`` wide.  Measured at ``n = 8000``, ``s = 2000``
#: (float64, OpenBLAS, 2 threads): 4, 8, 16 and 32 form in the same time
#: within noise, and 8 keeps 37.0M entries against 4's 40.0M while its
#: product stays within noise of 4's.
_KEPT_SPLITS = 8


class _KeptBlock:
    """The symmetric full-batch block ``K(X, X)``, kept as its lower
    block columns.

    Column ``j`` is the contiguous array ``K(X[o_j:], X[o_j : o_j + w_j])``
    formed by one kernel call; the rows above ``o_j`` are the transposes
    of earlier columns' rows and are neither evaluated nor held.  The
    first width is ``lead`` (``Phi``'s width, so ``Phi = columns[0]``
    with no copy), the others, and the first when ``lead`` is ``None``,
    ``ceil(n / _KEPT_SPLITS)`` but the last; ``lead >= n`` keeps the one
    ``(n, n)`` block.
    """

    __slots__ = ("offsets", "columns", "__weakref__")

    def __init__(
        self,
        kernel: Kernel,
        x: Any,
        x_sq_norms: Any | None,
        lead: int | None,
    ) -> None:
        bk = get_backend()
        dtype = compute_dtype(x)
        n = x.shape[0]
        step = -(-n // _KEPT_SPLITS)
        lead = step if lead is None else min(lead, n)
        self.offsets = [0, *range(lead, n, step)]
        self.columns = []
        for o, e in zip(self.offsets, self.offsets[1:] + [n]):
            self.columns.append(
                kernel(
                    x[o:],
                    x[o:e],
                    out=bk.empty((n - o, e - o), dtype=dtype),
                    x_sq_norms=None if x_sq_norms is None else x_sq_norms[o:],
                    z_sq_norms=None if x_sq_norms is None else x_sq_norms[o:e],
                )
            )  # records kernel_eval ops for the entries formed

    @property
    def shape(self) -> tuple[int, int]:
        n = self.columns[0].shape[0]
        return n, n

    def matmul(self, w: Any) -> Any:
        """``K(X, X) @ w`` in ``w``'s dtype; records no ops.

        Per column, ``f[o:] += C_j w[o : e]`` adds the block's entries
        on and below the diagonal block, ``f[o : e] += C_j[w_j:]^T w[e:]``
        the ones above it.  Both run through
        :func:`~repro.backend.master_matmul` with ``w`` first, one rule
        for both tiers.  At ``n = 8000``, ``s = 2000``, ``l = 10``
        (OpenBLAS, 2 threads) the product took 57 ms in float64 against
        73–101 ms for the other orientations, and 45 ms in float32
        against 40 ms for the fastest, ``C_j w`` first.
        """
        bk = get_backend()
        n = w.shape[0]
        f = bk.zeros(w.shape, dtype=bk.dtype_of(w))
        for o, c in zip(self.offsets, self.columns):
            e = o + c.shape[1]
            f[o:] += master_matmul(c.T, w[o:e].T, bk, w_first=True).T
            if e < n:
                f[o:e] += master_matmul(
                    c[e - o :], w[e:].T, bk, w_first=True
                ).T
        return f


@dataclass(frozen=True)
class EpochRecord:
    """Metrics snapshot at the end of one epoch."""

    epoch: int
    iterations: int
    batch_size: int
    train_mse: float | None
    val_error: float | None
    device_time: float | None
    wall_time: float


@dataclass
class TrainingHistory:
    """Append-only sequence of :class:`EpochRecord`."""

    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, idx: int) -> EpochRecord:
        return self.records[idx]

    @property
    def final(self) -> EpochRecord:
        if not self.records:
            raise NotFittedError("no epochs recorded")
        return self.records[-1]

    def series(self, fieldname: str) -> list:
        """Column extraction, e.g. ``history.series('train_mse')``."""
        return [getattr(r, fieldname) for r in self.records]


class BaseKernelTrainer:
    """Template for mini-batch kernel trainers.

    Parameters
    ----------
    kernel:
        The kernel function ``k``.
    device:
        Optional :class:`~repro.device.SimulatedDevice`; when given, every
        iteration charges its operation count to the simulated clock and
        the training state is allocated against ``S_G``.
    batch_size:
        Mini-batch size ``m``; subclasses may compute it automatically when
        ``None``.
    step_size:
        ``eta``; subclasses compute it analytically when ``None``.
    seed:
        Seed for batch shuffling (and any subsampling in subclasses).
    monitor_size:
        Size of the fixed random training subset on which train MSE is
        monitored each epoch (monitoring on all of ``x`` would dominate
        runtime at scale).  A full-batch fit reads these rows of its
        steps' own product ``K(X, X) alpha``, with no kernel evaluation
        and no GEMM of its own.
    damping:
        Safety factor multiplied into the analytic step size; 1.0 applies
        the theoretical optimum, values slightly below absorb estimation
        error in the subsample eigenvalues.

    Attributes (set by :meth:`fit`)
    -------------------------------
    model_:
        The fitted :class:`~repro.core.model.KernelModel`.
    history_:
        Per-epoch :class:`TrainingHistory`.
    batch_size_, step_size_:
        The values actually used.
    """

    #: Subclass display name used in experiment tables.
    method_name: str = "kernel-sgd"

    def __init__(
        self,
        kernel: Kernel,
        *,
        device: SimulatedDevice | None = None,
        batch_size: int | None = None,
        step_size: float | None = None,
        seed: int | None = 0,
        monitor_size: int = 2000,
        damping: float = 1.0,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if step_size is not None and step_size <= 0:
            raise ConfigurationError(
                f"step_size must be > 0, got {step_size}"
            )
        if monitor_size < 1:
            raise ConfigurationError(
                f"monitor_size must be >= 1, got {monitor_size}"
            )
        if not 0 < damping <= 1:
            raise ConfigurationError(f"damping must be in (0,1], got {damping}")
        self.kernel = kernel
        self.device = device
        self.requested_batch_size = batch_size
        self.requested_step_size = step_size
        self.seed = seed
        self.monitor_size = int(monitor_size)
        self.damping = float(damping)
        # The 1-based epoch being run and its anchor (module docstring).
        self._epoch: int = 0
        self._anchor: Any | None = None
        # The fit's center order (module docstring: layout): held
        # position -> caller row, and its inverse; None for the caller's.
        self._order: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        # Full-batch fits (m >= n) keep K(X, X) as a _KeptBlock and
        # carry the prediction K(X, X) alpha for the whole fit (module
        # docstring); all three reset when fit exits.
        self._keep_block = False
        self._kept_block: Any | None = None
        self._kept_f: Any | None = None
        # Fitted state.
        self._x_sq_norms: Any | None = None
        self.model_: KernelModel | None = None
        self.history_: TrainingHistory | None = None
        self.batch_size_: int | None = None
        self.step_size_: float | None = None

    # ------------------------------------------------------------ hooks
    def _setup(self, x: np.ndarray, y: np.ndarray) -> None:
        """Subclass hook: precompute structures and choose parameters.

        Must leave ``self.batch_size_`` and ``self.step_size_`` set.
        The base implementation honors explicit constructor values and
        otherwise raises — plain-SGD and EigenPro subclasses implement the
        analytic selection.
        """
        if self.requested_batch_size is None or self.requested_step_size is None:
            raise ConfigurationError(
                f"{type(self).__name__} requires explicit batch_size and "
                "step_size (or use a subclass with automatic selection)"
            )
        self.batch_size_ = min(self.requested_batch_size, x.shape[0])
        self.step_size_ = self.requested_step_size

    def _apply_correction(
        self, kb: np.ndarray, idx: np.ndarray, g: np.ndarray, gamma: float
    ) -> None:
        """Subclass hook: post-SGD correction (no-op for plain SGD).

        Parameters
        ----------
        kb:
            The ``(m, n)`` batch-vs-centers kernel block of this
            iteration, in the fit's working dtype.
        idx:
            Batch rows, at their held positions (module docstring:
            layout).
        g:
            Residuals ``f(x_t) - y_t``, shape ``(m, l)``.
        gamma:
            The per-coordinate step ``eta / m``.
        """

    def _center_order(self, n: int) -> np.ndarray | None:
        """Subclass hook: the order the fit holds its ``n`` centers in,
        as caller row indices (``None``: the caller's order).  Called
        once, after :meth:`_setup`."""
        return None

    def _bind_centers(self, x: Any) -> None:
        """Subclass hook: the fit's centers ``x``, in the held order,
        are final; called once per fit, inside the ``setup`` span."""

    def _held_rows(self, rows: np.ndarray) -> np.ndarray:
        """Held positions of caller rows ``rows`` (themselves when the
        fit holds the caller's order)."""
        return rows if self._inv is None else self._inv[rows]

    def _lead_width(self) -> int | None:
        """Subclass hook: the width of the kept full-batch block's first
        column, the columns a correction reads as one view; ``None``: as
        wide as the others."""
        return None

    def _extra_iteration_ops(self, m: int) -> int:
        """Subclass hook: operation count of the correction (0 for SGD)."""
        return 0

    def _extra_device_allocations(self) -> dict[str, float]:
        """Subclass hook: named device allocations beyond the SGD state."""
        return {}

    # ------------------------------------------------------------- fitting
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 1,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        stop_train_mse: float | None = None,
        val_patience: int | None = None,
        max_iterations: int | None = None,
        keep_best_val: bool = False,
    ) -> "BaseKernelTrainer":
        """Train for up to ``epochs`` passes over the data.

        Parameters
        ----------
        x, y:
            Training inputs ``(n, d)`` and targets ``(n,)`` or ``(n, l)``.
        epochs:
            Maximum number of epochs.
        x_val, y_val:
            Optional validation set; enables the ``val_error`` history
            column and validation-plateau early stopping.
        stop_train_mse:
            Stop once monitored train MSE drops below this value (the
            Figure-2 criterion).
        val_patience:
            Stop after this many epochs without validation improvement.
        max_iterations:
            Hard cap on SGD iterations across all epochs.
        keep_best_val:
            When True (and a validation set is given), restore the weights
            from the epoch with the lowest validation error at the end —
            the standard early-stopping-as-regularization readout
            (Yao et al. 2007, cited by the paper).
        """
        # All hot arrays (x, y, alpha, kernel blocks) live on the active
        # backend; orchestration state (RNG, permutations, metrics) stays
        # in NumPy.  Under the default NumPy backend this is a no-op.
        bk = get_backend()
        dtype = compute_dtype(x, y)
        x = bk.ascontiguous(bk.as_2d(bk.asarray(x, dtype=dtype)))
        y = bk.asarray(y, dtype=dtype)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape[0] != x.shape[0]:
            raise ConfigurationError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]}"
            )
        if not bk.all_finite(x):
            raise ConfigurationError("x contains non-finite values")
        if not bk.all_finite(y):
            raise ConfigurationError("y contains non-finite values")
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        n, d = x.shape
        l = y.shape[1]

        self._x = x
        self._y = y
        # Center norms are reused by every iteration's batch-vs-centers
        # block (shift-invariant kernels only; None otherwise).
        self._x_sq_norms = center_sq_norms(self.kernel, x, bk)
        self._alpha = bk.zeros((n, l), dtype=dtype)
        self._order = self._inv = self._anchor = None
        caller = (x, y, self._x_sq_norms)
        with span("setup", n=n):
            self._setup(x, y)
            # From here to the fit's exit, x, y, their norms and alpha are
            # held in the center order (module docstring: layout).
            order = self._center_order(n)
            if order is not None:
                self._order = order
                self._inv = np.empty_like(order)
                self._inv[order] = np.arange(n)
                self._x, self._y = x[order], y[order]
                if self._x_sq_norms is not None:
                    self._x_sq_norms = self._x_sq_norms[order]
            self._bind_centers(self._x)
        x, y = self._x, self._y
        if self.batch_size_ is None or self.step_size_ is None:
            raise ConfigurationError(
                f"{type(self).__name__}._setup failed to choose batch/step size"
            )
        m = int(min(self.batch_size_, n))
        self.batch_size_ = m
        gamma = self.step_size_ / m
        full_batch = m == n

        rng = np.random.default_rng(self.seed)
        monitor_idx = self._held_rows(
            np.arange(n)
            if n <= self.monitor_size
            else rng.choice(n, size=self.monitor_size, replace=False)
        )
        mse_stop = TrainMSETarget(stop_train_mse) if stop_train_mse else None
        plateau = ValidationPlateau(val_patience) if val_patience else None
        self.model_ = KernelModel(self.kernel, x, self._alpha)
        self.history_ = TrainingHistory()

        allocations: list[str] = []
        total_iterations = 0
        best_val = float("inf")
        best: Any | None = None
        t0 = time.perf_counter()
        self._keep_block = full_batch
        try:
            if self.device is not None:
                wanted = {
                    "train/x": float(n * d),
                    "train/weights": float(n * l),
                    "train/kernel_block": float(m * n),
                }
                wanted.update(self._extra_device_allocations())
                for name, size in wanted.items():
                    self.device.memory.allocate(name, size)
                    allocations.append(name)
            for epoch in range(1, epochs + 1):
                self._epoch = epoch
                # A full-batch step does not depend on row order, so it
                # takes the identity of the held order and leaves the RNG
                # stream alone; a mini-batch runs the caller's rows in the
                # permutation's order, at their held positions.
                perm = (
                    np.arange(n)
                    if full_batch
                    else self._held_rows(rng.permutation(n))
                )
                # The epoch's batch index blocks, computed once per
                # permutation (a replay reruns this list).
                blocks = [perm[start : start + m] for start in range(0, n, m)]
                stop_now = False
                if max_iterations is not None:
                    remaining = max_iterations - total_iterations
                    if len(blocks) >= remaining:
                        blocks = blocks[:remaining]
                        stop_now = True
                with span("epoch", epoch=epoch, iterations=len(blocks)):
                    self._run_epoch(x, y, blocks, gamma)
                total_iterations += len(blocks)
                if self.device is not None:
                    for idx in blocks:
                        ops = idx.shape[0] * n * (d + l)
                        ops += self._extra_iteration_ops(idx.shape[0])
                        self.device.charge_iteration(ops)
                with span("monitor", epoch=epoch, rows=int(monitor_idx.shape[0])):
                    train_mse = (
                        self.model_.mse(x[monitor_idx], y[monitor_idx])
                        if self._kept_f is None
                        else self._kept_block_mse(monitor_idx, y)
                    )
                val_error = (
                    self.model_.classification_error(x_val, y_val)
                    if x_val is not None and y_val is not None
                    else None
                )
                self.history_.append(
                    EpochRecord(
                        epoch=epoch,
                        iterations=total_iterations,
                        batch_size=m,
                        train_mse=train_mse,
                        val_error=val_error,
                        device_time=(
                            self.device.elapsed if self.device else None
                        ),
                        wall_time=time.perf_counter() - t0,
                    )
                )
                if (
                    keep_best_val
                    and val_error is not None
                    and val_error < best_val
                ):
                    best_val = val_error
                    best = self._snapshot()
                if mse_stop and mse_stop.should_stop(train_mse):
                    break
                if plateau and plateau.update(val_error):
                    break
                if stop_now:
                    break
            if best is not None:
                self._restore(best)
        finally:
            if self.device is not None:
                for name in allocations:
                    self.device.memory.free_allocation(name)
            # The pooled (m, n) batch block, or the kept full-batch one,
            # can dwarf the blocked-predict budget; don't leave it pinned
            # for the thread's (or the trainer's) lifetime.
            block_workspace().reset()
            self._keep_block = False
            self._kept_block = self._kept_f = None
            if self._inv is not None:
                # Back to the caller's row order, returned or raised.
                self._x, self._y, self._x_sq_norms = caller
                self._alpha = self._alpha[self._inv]
                self.model_ = KernelModel(self.kernel, caller[0], self._alpha)
        return self

    # ------------------------------------------------------------ the epoch
    def _run_epoch(
        self, x: Any, y: Any, blocks: list[np.ndarray], gamma: float
    ) -> None:
        """Run one epoch (``blocks`` is its precomputed list of batch
        index arrays): take its anchor, run its steps, and after a fault
        :meth:`_recover_or_reraise` accepts, restore the anchor and
        replay the steps from the first (module docstring: epoch
        anchor)."""
        self._take_checkpoint()
        attempt: Any = nullcontext()
        while True:
            try:
                with attempt:
                    self._run_span(x, y, blocks, gamma)
                return
            except Exception as exc:  # noqa: BLE001 - the handler decides
                self._recover_or_reraise(exc, x)
            with span("recovery/restore", epoch=self._epoch):
                self._restore(self._anchor)
            attempt = span(
                "recovery/replay", epoch=self._epoch, steps=len(blocks)
            )

    def _run_span(
        self, x: Any, y: Any, blocks: list[np.ndarray], gamma: float
    ) -> None:
        """Step hook: run the epoch's steps, one :meth:`_iterate` per
        batch index block."""
        for idx in blocks:
            self._iterate(x, y, idx, gamma)

    def _take_checkpoint(self) -> None:
        """Anchor the current epoch: snapshot the weights at its start."""
        with span("checkpoint", epoch=self._epoch):
            self._anchor = self._snapshot()

    def _snapshot(self) -> Any:
        """A copy of the weights, in the held order."""
        return get_backend().copy(self._alpha)

    def _restore(self, snapshot: Any) -> None:
        """Put the weights back to a :meth:`_snapshot`.  A full-batch
        fit drops its carried prediction, so its next step recomputes it
        from the kept block and the restored weights."""
        self._alpha[...] = snapshot
        self._kept_f = None

    def _recover_or_reraise(self, exc: Exception, x: Any) -> None:
        """Fault handler of the epoch loop: return to have the epoch
        restored from its anchor and replayed, or raise.  The base
        trainer recovers from nothing."""
        raise exc

    # -------------------------------------------------------- one iteration
    def _iterate(
        self, x: Any, y: Any, idx: np.ndarray, gamma: float
    ) -> None:
        """One mini-batch step: Algorithm 1 steps 1–5.

        Step 2 (predictions) and step 3 (batch coordinate update) are the
        standard SGD of Eq. 3; the correction hook implements steps 4–5.
        The step consumes its block before the next step's block reuses
        the workspace buffer.  ``x``/``y``/``alpha`` are backend-native;
        ``idx`` stays a NumPy index array (both backends accept it), and
        all op counts derive from shapes, keeping the meter
        backend-invariant.

        A full-batch step takes its predictions from the carried ``f``
        and contracts last, for the updated ``alpha`` (module docstring):
        each step runs one GEMM either way.
        """
        kb = self._form_block(x, idx)
        m = int(idx.shape[0])
        f = self._kept_f
        if f is None:
            with span("gemm", m=m):
                f = self._contract(kb)  # (m, l)
        g = self._update(f, y, idx, gamma)
        with span("correction", m=m):
            self._apply_correction(kb, idx, g, gamma)
        if self._keep_block:
            with span("gemm", m=m):
                self._kept_f = self._contract(kb)

    def _form_block(self, x: Any, idx: np.ndarray) -> Any:
        """Form the ``(m, n)`` batch-vs-centers kernel block.

        It lives in the shared block workspace instead of being
        re-allocated every step, and both row and center squared norms
        come precomputed: the batch rows are sliced from
        ``self._x_sq_norms`` rather than re-reduced every iteration.

        The exception is a full-batch fit: its ``(n, n)`` block is formed
        once, as the lower block columns of a :class:`_KeptBlock` whose
        first column is :meth:`_lead_width` wide, and returned again,
        without a kernel evaluation, by every later epoch's step.  A
        workspace view would not survive that long: the validation
        predicts between epochs reuse the same pooled buffer.  Forming
        it starts the carried prediction at zero: ``alpha`` is still
        zero.
        """
        if self._kept_block is not None:
            return self._kept_block
        bk = get_backend()
        with span("form_block", m=int(idx.shape[0])):
            if self._keep_block:
                kb = _KeptBlock(
                    self.kernel, x, self._x_sq_norms, self._lead_width()
                )
            else:
                out = block_workspace().get(
                    bk, idx.shape[0], x.shape[0], compute_dtype(x)
                )
                x_norms = (
                    None if self._x_sq_norms is None else self._x_sq_norms[idx]
                )
                kb = self.kernel(
                    x[idx],
                    x,
                    out=out,
                    x_sq_norms=x_norms,
                    z_sq_norms=self._x_sq_norms,
                )  # (m, n): records kernel_eval ops
        if self._keep_block:
            self._kept_block = kb
            self._kept_f = bk.zeros(
                self._alpha.shape, dtype=bk.dtype_of(self._alpha)
            )
        return kb

    def _contract(self, kb: Any) -> Any:
        """Predictions ``kb @ alpha`` for the rows of a kernel block, in
        ``alpha``'s dtype (:func:`~repro.backend.master_matmul`); records
        the GEMM's ops, ``m * n * l`` whichever entries are held.

        The kept full-batch block runs its own product,
        :meth:`_KeptBlock.matmul`.  A mini-batch block is contracted as
        ``kb @ alpha``, the orientation of every shard's contraction, so
        the serial and sharded steps keep their bits.
        """
        f = (
            kb.matmul(self._alpha)
            if kb is self._kept_block
            else master_matmul(kb, self._alpha, get_backend())
        )
        record_ops("gemm", kb.shape[0] * kb.shape[1] * self._alpha.shape[1])
        return f

    def _update(self, f: Any, y: Any, idx: np.ndarray, gamma: float) -> Any:
        """Step 3: the residuals ``g = f - y`` of the batch and its
        coordinate update ``alpha[idx] -= gamma * g``; returns ``g``."""
        g = f - y[idx]
        coordinate_update(self._alpha, idx, g, gamma)
        return g

    def _kept_block_mse(self, rows: np.ndarray, y: Any) -> float:
        """Train MSE at ``rows`` read from the carried full-batch
        prediction.

        Equal, up to the last bits of its sums, to
        ``self.model_.mse(x[rows], y[rows])`` without evaluating the
        kernel or contracting: in the identity order of a full-batch
        step, row ``i`` of the last step's ``K(X, X) alpha`` is already
        ``f(x_i)`` for the current weights.
        """
        pred = to_numpy(self._kept_f[rows])
        return float(np.mean((pred - to_numpy(y[rows])) ** 2))

    # ------------------------------------------------------------ inference
    def _require_fitted(self) -> KernelModel:
        if self.model_ is None:
            raise NotFittedError(
                f"{type(self).__name__} has not been fitted; call fit() first"
            )
        return self.model_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Model outputs ``f(x)``; see :meth:`KernelModel.predict`."""
        return self._require_fitted().predict(x)

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return as_labels(self.predict(x))

    def mse(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error on ``(x, y)``."""
        return self._require_fitted().mse(x, y)

    def classification_error(self, x: np.ndarray, y: np.ndarray) -> float:
        """Misclassification rate on ``(x, y)``."""
        return self._require_fitted().classification_error(x, y)
