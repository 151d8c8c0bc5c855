"""The original EigenPro iteration (Ma & Belkin, 2017).

Same preconditioning idea as EigenPro 2.0 — flatten the top-``q``
eigendirections — but the approximate eigenfunctions are represented over
**all** ``n`` training points: ``e_i ≈ sum_{j=1}^n w_j k(x_j, .)``.  The
eigenvector matrix ``V`` therefore has shape ``(n, q)``, the correction
touches every coordinate of ``alpha`` each iteration, and the per-iteration
overhead scales as ``n*m*q`` compute / ``n*q`` memory (Table 1, row 2) —
versus ``s*m*q`` / ``s*q`` for the improved iteration of Section 4.

The correction ``V D V^T K[:, batch] g`` is evaluated right to left, in
the same order as :meth:`repro.core.preconditioner.NystromPreconditioner.correction`:
``K[:, batch] g`` (``n*m*l``), then ``V^T`` and ``V`` (``n*q*l`` each).
The executed overhead is ``n*m*l + 2*n*q*l`` against the improved
chain's ``s*m*l + 2*s*q*l`` — the table's ``n/s`` ratio exactly.

Following the original paper (and matching the improved version's
accuracy, as noted in Section 4 of the 2.0 paper), the eigensystem is
computed on a subsample and Nyström-extended to all ``n`` points; the
baseline's "badness" is the *representation*, not the estimation.

The paper tunes EigenPro 1.0's optimization parameters by
cross-validation; here we give it the same analytic step-size machinery
(a favourable stand-in) so Figure-2/Table-2 differences isolate overhead
and resource adaptation rather than tuning luck.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.cost import exact_original_overhead_ops
from repro.core.eigenpro2 import default_subsample_size
from repro.core.spectrum import estimate_beta
from repro.core.stepsize import analytic_step_size
from repro.core.trainer import BaseKernelTrainer
from repro.exceptions import ConfigurationError
from repro.instrument import record_ops
from repro.linalg.nystrom import _subsample_pairs

__all__ = ["EigenPro1"]


class EigenPro1(BaseKernelTrainer):
    """Original EigenPro with the full-data eigenvector representation.

    Parameters
    ----------
    kernel, device, batch_size, step_size, seed, monitor_size, damping:
        As in :class:`~repro.core.trainer.BaseKernelTrainer`.
    q:
        Number of flattened eigendirections (the original paper's
        cross-validated choice; default 160).
    s:
        Subsample size for eigensystem estimation (default per the 2.0
        paper's rule, capped at ``n``).

    Attributes
    ----------
    eigvecs_full_:
        The ``(n, q)`` dense eigenvector representation (the Table-1
        ``n*q`` memory term).
    """

    method_name = "eigenpro1"

    def __init__(
        self, kernel, *, q: int = 160, s: int | None = None, **options: Any
    ) -> None:
        super().__init__(kernel, **options)
        if q < 2:
            raise ConfigurationError(f"q must be >= 2, got {q}")
        self.q = int(q)
        self.requested_s = s
        self.eigvecs_full_: np.ndarray | None = None
        self._d_scale: np.ndarray | None = None
        self.beta_: float | None = None
        self.lambda_q_: float | None = None

    def _setup(self, x: np.ndarray, y: np.ndarray) -> None:
        n = x.shape[0]
        s = self.requested_s
        if s is None:
            s = default_subsample_size(n)
        s = min(s, n)
        q = min(self.q, s - 1)
        # The pairs only: EigenPro 1.0 reads no beta table.
        ext = _subsample_pairs(self.kernel, x, s, q, seed=self.seed)[0]

        # Nyström-extend the eigenfunctions to ALL n points and renormalize
        # to unit eigenvectors of the full kernel matrix K:
        # v_i ≈ ẽ_i(x) / ||ẽ_i(x)|| (empirical L2 over the n points).
        e_vals = ext.eigenfunction_values(x)  # (n, q), L2-normalized-ish
        norms = np.linalg.norm(e_vals, axis=0)
        norms = np.where(norms > 0, norms, 1.0)
        v_full = e_vals / norms[None, :]
        self.eigvecs_full_ = v_full

        # Matrix eigenvalues of K: mu_i = n * lambda_i ≈ n * sigma_i / s.
        mu = n * ext.operator_eigenvalues
        mu_q = float(mu[-1])
        safe = np.maximum(mu, 1e-300)
        self._d_scale = (1.0 - mu_q / safe) / safe

        self.beta_ = estimate_beta(self.kernel, x, seed=self.seed)
        self.lambda_q_ = float(ext.operator_eigenvalues[-1])
        if self.requested_batch_size is not None:
            m = min(self.requested_batch_size, n)
        else:
            # The original paper trains with a fixed moderate batch size.
            m = min(256, n)
        self.batch_size_ = m
        self.step_size_ = (
            self.requested_step_size
            if self.requested_step_size is not None
            else analytic_step_size(
                m, self.beta_, self.lambda_q_, damping=self.damping
            )
        )
        if self.device is not None:
            # Setup: subsample kernel block + eigensolve + extension to n.
            self.device.charge_iteration(
                s * s * x.shape[1] + s * s * q + n * s * (x.shape[1] + q)
            )

    def _apply_correction(
        self, kb: np.ndarray, idx: np.ndarray, g: np.ndarray, gamma: float
    ) -> None:
        v = self.eigvecs_full_
        (n, q), (m, l) = v.shape, g.shape
        # The improved chain's op count with n in place of s: the
        # overhead ratio is exactly n/s (Table 1).
        # K is symmetric: the kept full-batch block's own product is K^T g.
        kt_g = kb.matmul(g) if kb is self._kept_block else kb.T @ g
        t = v.T @ kt_g  # (n, l) then (q, l): n*m*l + n*q*l ops
        t *= self._d_scale[:, None]
        self._alpha += gamma * (v @ t)  # (n, l): n*q*l ops
        record_ops("precond", n * m * l + 2 * n * q * l)

    def _extra_iteration_ops(self, m: int) -> int:
        n, q, l = self.eigvecs_full_.shape[0], self.eigvecs_full_.shape[1], self._alpha.shape[1]
        return exact_original_overhead_ops(n, m, l, q)

    def _extra_device_allocations(self) -> dict[str, float]:
        v = self.eigvecs_full_
        return {"train/eigenpro1_eigvecs": float(v.shape[0] * v.shape[1])}
