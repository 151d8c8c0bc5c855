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
GEMM is :func:`~repro.backend.master_matmul` (also per shard), the
dtype of ``alpha`` and ``y`` is :func:`~repro.config.master_dtype`,
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
epoch's block is then the same ``(n, n)`` matrix ``K(X, X)``: the first
step forms it into an array the fit owns (not a workspace view, which
the monitor and validation predicts would overwrite), later epochs
reuse it, and each epoch's train-MSE monitor reads its rows instead of
evaluating the kernel again.  The fit drops the block when it returns or
raises.

Under an active tracer (:mod:`repro.observe`) a fit records one
``setup`` span, an ``epoch`` span per epoch holding the steps'
``form_block``, ``gemm`` and ``correction`` spans, and a ``monitor``
span per epoch around the train-MSE predict.  A full-batch fit records
one ``form_block`` span in all: later epochs reuse the block.

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
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backend import get_backend, master_matmul, to_numpy
from repro.config import compute_dtype, master_dtype
from repro.core.model import KernelModel, as_labels
from repro.kernels.ops import (
    block_workspace,
    center_sq_norms,
    iter_row_blocks,
)
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

#: Scalars per chunk when the full-batch monitor gathers rows of the kept
#: ``(n, n)`` block.  Once the block is kept, this gather copy is the
#: fit's largest temporary: with a blocked predict's 8M-scalar chunks
#: (61 MB at ``n = 8000``) ``perfbench``'s ``fit-large-batch`` peaked at
#: 698 MB RSS, with 1M-scalar chunks (8 MB) at 637 MB (2-vCPU x86 host,
#: seeds 1-3, ``test_mse`` unchanged).
_MONITOR_CHUNK_SCALARS = 1_000_000


def coordinate_update(alpha: Any, rows: Any, g: Any, gamma: float) -> None:
    """Step 3 on weight rows ``rows``: ``alpha[rows] -= gamma * g``, with
    ``g`` the residuals of those rows in the same order.  Elementwise, so
    splitting a batch's rows over several callers (the sharded trainer's
    parent and its subsample-holding shards) gives the same bits."""
    alpha[rows] -= gamma * g


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
        runtime at scale).
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
        # Cursor state exposed for checkpointing (repro.shard.recovery):
        # the fit's shuffling RNG and the 1-based epoch being run.
        self._rng: np.random.Generator | None = None
        self._epoch: int = 0
        # The fit's center order (module docstring: layout): held
        # position -> caller row, and its inverse; None for the caller's.
        self._order: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        # Full-batch fits (m >= n) keep the one (n, n) block K(X, X) for
        # the whole fit (module docstring); both reset when fit exits.
        self._keep_block = False
        self._kept_block: Any | None = None
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
        # Master (accumulation) dtype: the data dtype, except under
        # use_precision("mixed") where alpha and y are held in float64 so
        # residuals, coordinate updates and the EigenPro correction
        # accumulate above the float32 kernel blocks and GEMMs.
        w_dtype = master_dtype(dtype)
        x = bk.ascontiguous(bk.as_2d(bk.asarray(x, dtype=dtype)))
        y = bk.asarray(y, dtype=w_dtype)
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
        self._alpha = bk.zeros((n, l), dtype=w_dtype)
        self._order = self._inv = None
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

        # Exposed as an attribute so checkpoints (repro.shard.recovery)
        # can capture the generator state alongside the epoch cursor.
        self._rng = rng = np.random.default_rng(self.seed)
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
        best_alpha: Any | None = None
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
                # permutation (checkpoints record a cursor into this list).
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
                        if self._kept_block is None
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
                    best_alpha = bk.copy(self._alpha)
                if mse_stop and mse_stop.should_stop(train_mse):
                    break
                if plateau and plateau.update(val_error):
                    break
                if stop_now:
                    break
            if best_alpha is not None:
                self._alpha[...] = best_alpha
        finally:
            if self.device is not None:
                for name in allocations:
                    self.device.memory.free_allocation(name)
            # The pooled (m, n) batch block, or the kept full-batch one,
            # can dwarf the blocked-predict budget; don't leave it pinned
            # for the thread's (or the trainer's) lifetime.
            block_workspace().reset()
            self._keep_block = False
            self._kept_block = None
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
        """Run one epoch's mini-batch steps (``blocks`` is the epoch's
        precomputed list of batch index arrays)."""
        for idx in blocks:
            self._iterate(x, y, idx, gamma)

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
        """
        kb = self._form_block(x, idx)
        with span("gemm", m=int(idx.shape[0])):
            f = self._contract(kb)  # (m, l)
        g = self._update(f, y, idx, gamma)
        with span("correction", m=int(idx.shape[0])):
            self._apply_correction(kb, idx, g, gamma)

    def _form_block(self, x: Any, idx: np.ndarray) -> Any:
        """Form the ``(m, n)`` batch-vs-centers kernel block.

        It lives in the shared block workspace instead of being
        re-allocated every step, and both row and center squared norms
        come precomputed: the batch rows are sliced from
        ``self._x_sq_norms`` rather than re-reduced every iteration.

        The exception is a full-batch fit: its ``(n, n)`` block is formed
        once into an array of its own and returned again, without a
        kernel evaluation, by every later epoch's step.  A workspace view
        would not survive that long: the monitor and validation predicts
        between epochs reuse the same pooled buffer.
        """
        if self._kept_block is not None:
            return self._kept_block
        bk = get_backend()
        dtype = compute_dtype(x)
        with span("form_block", m=int(idx.shape[0])):
            out = (
                bk.empty((idx.shape[0], x.shape[0]), dtype=dtype)
                if self._keep_block
                else block_workspace().get(bk, idx.shape[0], x.shape[0], dtype)
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
        return kb

    def _contract(self, kb: Any) -> Any:
        """Predictions ``kb @ alpha`` for the rows of a kernel block, in
        the master dtype (:func:`~repro.backend.master_matmul`); records
        the GEMM's ops."""
        f = master_matmul(kb, self._alpha, get_backend())
        record_ops("gemm", kb.shape[0] * kb.shape[1] * self._alpha.shape[1])
        return f

    def _update(self, f: Any, y: Any, idx: np.ndarray, gamma: float) -> Any:
        """Step 3: the residuals ``g = f - y`` of the batch and its
        coordinate update ``alpha[idx] -= gamma * g``; returns ``g``.
        Both run in the master dtype of ``alpha`` and ``y``."""
        g = f - y[idx]
        coordinate_update(self._alpha, idx, g, gamma)
        return g

    def _kept_block_mse(self, rows: np.ndarray, y: Any) -> float:
        """Train MSE at ``rows`` read from the kept full-batch block.

        Equal, up to the last bits of its sums, to
        ``self.model_.mse(x[rows], y[rows])`` without evaluating the
        kernel: in the identity order of a full-batch step, row ``i`` of
        the block is already ``k(x_i, X)``.  The rows are gathered in
        chunks of :data:`_MONITOR_CHUNK_SCALARS`, so the monitor adds no
        buffer beyond a small gather copy.
        """
        kb = self._kept_block
        pred = np.concatenate([
            to_numpy(self._contract(kb[rows[chunk]]))
            for chunk in iter_row_blocks(
                rows.shape[0], kb.shape[1], _MONITOR_CHUNK_SCALARS
            )
        ])
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
