"""EigenPro 2.0 — the paper's main algorithm (Section 3 + Algorithm 1).

Putting the pieces together, :class:`EigenPro2` runs the three steps:

1. **Step 1** (:mod:`repro.core.resource`): from the device abstraction,
   compute ``m_max_G = min(m_C, m_S)``.
2. **Step 2** (:mod:`repro.core.qselection`): from a subsample eigensystem
   (:mod:`repro.linalg.nystrom`), pick ``q`` by Eq. 7 so that
   ``m*(k_{P_q}) = m_max_G`` — then raise it by the Appendix-B heuristic —
   and build the :class:`~repro.core.preconditioner.NystromPreconditioner`.
3. **Step 3** (:mod:`repro.core.stepsize`): train with Algorithm 1 using
   the analytic ``m = m_max_G`` and ``eta = m/(beta + (m-1) lambda_q)``.

Everything is selected automatically — the only free choices are the
kernel and its bandwidth, which is the paper's "worry-free optimization"
story (Section 5.4).  All selected quantities are exposed in
:attr:`EigenPro2.params_` (an :class:`AutoParameters`), which is exactly
the row schema of the paper's Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.backend import get_backend
from repro.config import compute_dtype
from repro.core.acceleration import predicted_acceleration
from repro.core.cost import exact_improved_overhead_ops
from repro.core.preconditioner import (
    NystromPreconditioner,
    correction_partial,
    correction_rows,
)
from repro.core.qselection import adjusted_q, select_q
from repro.core.resource import max_device_batch_size
from repro.core.spectrum import estimate_beta
from repro.core.stepsize import analytic_step_size
from repro.core.trainer import BaseKernelTrainer
from repro.device.presets import titan_xp
from repro.device.simulator import SimulatedDevice
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel
from repro.linalg.nystrom import NystromExtension, nystrom_extension

__all__ = [
    "AutoParameters",
    "EigenPro2",
    "correct_block",
    "default_subsample_size",
    "default_q_max",
    "select_parameters",
]


def default_subsample_size(n: int) -> int:
    """The paper's rule (Section 5): ``s = 2e3`` for ``n <= 1e5``, else
    ``s = 1.2e4`` — capped at ``n``."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return min(n, 2000 if n <= 100_000 else 12_000)


def default_q_max(s: int) -> int:
    """Number of subsample eigenpairs to extract for the Eq.-7 scan.

    The paper's selected (adjusted) ``q`` ranges from ~100 to 850 with
    ``s`` up to 1.2e4; extracting ``min(s - 1, 300)`` pairs covers that
    range at reproduction scale.  Setup's cost is the subset eigensolve:
    its tridiagonal reduction is cubic in ``s`` whatever ``q`` is, and the
    ``q`` pairs add the vector work and, on the float32 route, a float64
    Ritz pass of order ``s²·q`` (:func:`repro.linalg.top_eigensystem`).
    """
    if s < 1:
        raise ConfigurationError(f"s must be >= 1, got {s}")
    return max(1, min(s - 1, 300))


def correct_block(
    block: Any,
    p: Any,
    eigvecs: Any,
    d_scale: np.ndarray,
    phi_dtype: object,
    gamma: float,
) -> None:
    """Algorithm 1 steps 4–5 on the subsample's weight rows:
    ``block += gamma * V D p``, where ``block`` is ``alpha[:s]`` (a view,
    updated in place), ``eigvecs`` is ``V`` and ``p`` is
    ``V^T Phi^T g`` (:func:`~repro.core.preconditioner.correction_partial`).
    The one rule of the correction's update: :meth:`EigenPro2._correct`
    applies it serially, the sharded trainer on shard 0, which holds
    ``alpha[:s]`` (:mod:`repro.shard.trainer`).  The update is cast to
    ``block``'s dtype.
    """
    bk = get_backend()
    block += gamma * bk.asarray(
        correction_rows(p, eigvecs, d_scale, phi_dtype),
        dtype=bk.dtype_of(block),
    )


@dataclass(frozen=True)
class AutoParameters:
    """Everything EigenPro 2.0 selected automatically (Table 4 schema).

    Attributes mirror the paper's notation: ``q`` is the Eq.-7 value,
    ``q_adjusted`` the Appendix-B raised value actually used; ``m_max`` is
    Step 1's device batch size; ``eta`` the analytic step size;
    ``acceleration`` the Appendix-C prediction over the original kernel.
    """

    kernel: str
    kernel_params: dict[str, Any]
    n: int
    d: int
    l: int
    s: int
    q: int
    q_adjusted: int
    beta_k: float
    beta_kg: float
    lambda_1: float
    lambda_q: float
    m_star_k: float
    m_star_kg: float
    m_compute: int
    m_memory: int
    m_max: int
    batch_size: int
    eta: float
    acceleration: float

    def as_row(self) -> dict[str, Any]:
        """Flat dict for table rendering (experiments/Table 4)."""
        return {
            "kernel": self.kernel,
            "bandwidth": self.kernel_params.get("bandwidth"),
            "n": self.n,
            "q (adjusted q)": f"{self.q} ({self.q_adjusted})",
            "m = mG": self.batch_size,
            "eta": round(self.eta, 1),
            "m*(k)": round(self.m_star_k, 1),
            "m*(kG)": round(self.m_star_kg, 1),
            "predicted acceleration": round(self.acceleration, 1),
        }


def select_parameters(
    kernel: Kernel,
    x: np.ndarray,
    l: int,
    device: SimulatedDevice,
    *,
    s: int | None = None,
    q: int | None = None,
    q_max: int | None = None,
    batch_size: int | None = None,
    step_size: float | None = None,
    damping: float = 1.0,
    seed: int | None = 0,
) -> tuple[AutoParameters, NystromPreconditioner | None, NystromExtension]:
    """Run Steps 1–2 and the analytic parameter selection without training.

    This is the engine behind both :class:`EigenPro2` and the Table-4
    experiment.  Overrides (``q``, ``batch_size``, ``step_size``) replace
    the corresponding automatic choices; pass ``q=0`` to force the
    original kernel.

    Setup forms the ``(s, s)`` subsample kernel ``K_s`` once: the
    eigensystem, the Eq.-7 ``beta(K_{P_i})`` table and Step 3's
    ``beta(K_G)`` all come from it.  ``beta(K_G)`` is the table's entry
    at the ``q`` used, not a second pass over the subsample
    (:meth:`NystromPreconditioner.beta_kg` computes the same quantity
    from scratch, for analysis).

    Returns
    -------
    (params, preconditioner, extension):
        The selected parameters, the preconditioner (``None`` when ``q``
        resolves below 2 — ``P_1`` is the identity), and the underlying
        subsample eigensystem for further analysis.
    """
    bk = get_backend()
    x = bk.as_2d(bk.asarray(x, dtype=compute_dtype(x)))
    n, d = x.shape
    if l < 1:
        raise ConfigurationError(f"l must be >= 1, got {l}")
    s_eff = min(n, s if s is not None else default_subsample_size(n))
    if s_eff < 2:
        raise ConfigurationError(f"need a subsample of at least 2 points, got {s_eff}")
    q_cap = q_max if q_max is not None else default_q_max(s_eff)
    q_cap = max(1, min(q_cap, s_eff - 1))
    if q is not None and q > q_cap:
        q_cap = min(int(q), s_eff - 1)

    extension = nystrom_extension(kernel, x, s_eff, q_cap, seed=seed)
    beta_k = estimate_beta(kernel, x, seed=seed)
    lambda_1 = float(extension.operator_eigenvalues[0])

    # Step 1: resource-determined batch size.
    analysis = max_device_batch_size(device, n, d, l, s=s_eff, q=q_cap)
    m_max = analysis.m_max

    # Step 2: kernel selection via Eq. 7 + the Appendix-B adjustment.
    selection = select_q(extension, m_max)
    q_eq7 = selection.q
    if q is not None:
        q_used = min(int(q), s_eff - 1)
        if q_used < 0:
            raise ConfigurationError(f"q must be >= 0, got {q}")
    else:
        q_used = adjusted_q(extension, q_eq7) if q_eq7 >= 1 else 0

    preconditioner = (
        NystromPreconditioner(extension, q_used) if q_used >= 2 else None
    )
    if preconditioner is not None:
        # modified_diag's weights (sigma_j - sigma_q)/sigma_j^2 are the
        # table's terms at q = q_used, which q_cap always covers.
        beta_kg = float(selection.beta_table[q_used - 1])
        lambda_q = preconditioner.lambda_top
    else:
        beta_kg = beta_k
        lambda_q = lambda_1

    # Step 3: analytic batch and step size.
    m = int(min(batch_size if batch_size is not None else m_max, n))
    m = max(m, 1)
    eta = (
        step_size
        if step_size is not None
        else analytic_step_size(m, beta_kg, lambda_q, damping=damping)
    )
    m_star_k = beta_k / max(lambda_1, 1e-300)
    # The Appendix-C acceleration formula lives at the Eq.-7 operating
    # point, where beta(K_G) ≈ beta(K); evaluating it at the adjusted q
    # would deflate beta(K_G) and inflate the prediction.
    if q_eq7 >= 1:
        beta_eq7 = float(selection.beta_table[q_eq7 - 1])
        lambda_eq7 = float(extension.operator_eigenvalues[q_eq7 - 1])
    else:
        beta_eq7, lambda_eq7 = beta_k, lambda_1
    accel = predicted_acceleration(
        beta_k, beta_eq7, m_max, m_star_k, lambda1=lambda_1,
        lambda_q=lambda_eq7,
    )
    params = AutoParameters(
        kernel=kernel.name,
        kernel_params=kernel.params(),
        n=n,
        d=d,
        l=l,
        s=s_eff,
        q=q_eq7,
        q_adjusted=q_used,
        beta_k=beta_k,
        beta_kg=beta_kg,
        lambda_1=lambda_1,
        lambda_q=lambda_q,
        m_star_k=m_star_k,
        m_star_kg=beta_kg / max(lambda_q, 1e-300),
        m_compute=analysis.m_compute,
        m_memory=analysis.m_memory,
        m_max=m_max,
        batch_size=m,
        eta=float(eta),
        acceleration=accel.factor,
    )
    return params, preconditioner, extension


class EigenPro2(BaseKernelTrainer):
    """The EigenPro 2.0 trainer (paper Algorithm 1 with Steps 1–3).

    Parameters
    ----------
    kernel:
        Kernel function; per Section 5.5 the Laplacian is a strong default.
    device:
        Simulated device to adapt to (default: a fresh Titan Xp model).
    s:
        Fixed coordinate block size (default: the paper's rule via
        :func:`default_subsample_size`).
    q:
        Explicit EigenPro parameter; ``None`` selects automatically
        (Eq. 7 + Appendix-B adjustment), ``0`` disables preconditioning.
    q_max:
        Number of eigenpairs extracted for the Eq.-7 scan.
    batch_size, step_size, damping, seed, monitor_size:
        See :class:`~repro.core.trainer.BaseKernelTrainer`.

    Attributes
    ----------
    params_:
        :class:`AutoParameters` after :meth:`fit` (or
        :meth:`prepare`).
    preconditioner_:
        The :class:`~repro.core.preconditioner.NystromPreconditioner`
        (``None`` if preconditioning was unnecessary).

    Examples
    --------
    >>> from repro import EigenPro2, LaplacianKernel
    >>> from repro.data import synthetic_mnist
    >>> ds = synthetic_mnist(n_train=500, n_test=100, seed=0)
    >>> model = EigenPro2(LaplacianKernel(bandwidth=10.0), seed=0)
    >>> _ = model.fit(ds.x_train, ds.y_train, epochs=3)
    >>> err = model.classification_error(ds.x_test, ds.y_test)
    """

    method_name = "eigenpro2"

    def __init__(
        self,
        kernel: Kernel,
        *,
        device: SimulatedDevice | None = None,
        s: int | None = None,
        q: int | None = None,
        q_max: int | None = None,
        **options: Any,
    ) -> None:
        super().__init__(
            kernel,
            device=device if device is not None else titan_xp(),
            **options,
        )
        self.requested_s = s
        self.requested_q = q
        self.requested_q_max = q_max
        self.params_: AutoParameters | None = None
        self.preconditioner_: NystromPreconditioner | None = None

    # --------------------------------------------------------------- setup
    def _setup(self, x: np.ndarray, y: np.ndarray) -> None:
        params = self.prepare(x, y.shape[1])
        self.batch_size_ = params.batch_size
        self.step_size_ = params.eta
        if self.device is not None:
            # One-time setup cost: the s x s kernel block plus the top-q
            # eigensolve (whichever route top_eigensystem takes), charged
            # as a single launch.
            s_eff, q_cap = params.s, max(params.q_adjusted, 1)
            self.device.charge_iteration(
                s_eff * s_eff * params.d + s_eff * s_eff * q_cap
            )

    def prepare(self, x: np.ndarray, l: int) -> AutoParameters:
        """Run parameter selection only (no training) — used by the
        Table-4 experiment and 'interactive' exploration."""
        params, precond, _ = select_parameters(
            self.kernel,
            x,
            l,
            self.device,
            s=self.requested_s,
            q=self.requested_q,
            q_max=self.requested_q_max,
            batch_size=self.requested_batch_size,
            step_size=self.requested_step_size,
            damping=self.damping,
            seed=self.seed,
        )
        self.params_ = params
        self.preconditioner_ = precond
        return params

    # ---------------------------------------------------------- correction
    def _center_order(self, n: int) -> np.ndarray | None:
        """Subsample first: the drawn indices, then the other rows in
        ascending order (``None`` when that is the caller's order)."""
        if self.preconditioner_ is None:
            return None
        sub = self.preconditioner_.indices
        order = np.concatenate(
            [sub, np.setdiff1d(np.arange(n), sub, assume_unique=True)]
        )
        return None if np.array_equal(order, np.arange(n)) else order

    def _lead_width(self) -> int | None:
        """``Phi``'s width ``s``: the kept full-batch block's first
        column is ``Phi^T``."""
        return None if self.preconditioner_ is None else self.preconditioner_.s

    def _apply_correction(
        self, kb: np.ndarray, idx: np.ndarray, g: np.ndarray, gamma: float
    ) -> None:
        if self.preconditioner_ is None:
            return
        # The subsample leads the held center order, so the first s
        # columns of the already-computed batch block are Phi^T: a view,
        # no new kernel evaluations and no copy.  The kept full-batch
        # block holds them as its first column (_lead_width).
        if kb is self._kept_block:
            kb = kb.columns[0]
        self._correct(kb[:, : self.preconditioner_.s], g, gamma)

    def _correct(self, phi: Any, g: Any, gamma: float) -> None:
        """Algorithm 1 steps 4–5: ``alpha[:s] += gamma * V D V^T Phi g``
        for the batch's ``Phi^T`` columns ``phi`` and residuals ``g``;
        the fit holds the subsample's weights first
        (:meth:`_center_order`).

        The update goes through :func:`correct_block`.
        :class:`~repro.shard.trainer.ShardedEigenPro2` does not call
        this: its shard 0 runs the same two functions on the rows it
        holds.
        """
        v = self.preconditioner_.extension.eigvecs
        correct_block(
            self._alpha[: v.shape[0]],  # a view
            correction_partial(phi, g, v),
            v,
            self.preconditioner_.d_scale,
            get_backend().dtype_of(phi),
            gamma,
        )

    def _extra_iteration_ops(self, m: int) -> int:
        if self.preconditioner_ is None:
            return 0
        p = self.preconditioner_
        return exact_improved_overhead_ops(m, self._alpha.shape[1], p.s, p.q)

    def _extra_device_allocations(self) -> dict[str, float]:
        if self.preconditioner_ is None:
            return {}
        return {"train/preconditioner": float(self.preconditioner_.memory_scalars)}
