"""The EigenPro preconditioner ``P_q`` in its Nyström representation.

``P_q(f) = f - sum_{i<=q} (1 - lambda_q/lambda_i) <e_i, f>_H e_i`` (Eq. 4)
flattens the top of the kernel operator's spectrum to ``lambda_q`` without
moving the solution of ``K alpha = y`` — EigenPro iteration with ``P_q`` is
Richardson iteration for the *adaptive kernel* ``k_{P_q}`` (Remark 2.2).

The improved representation (Section 4) stores only the subsample
eigensystem: ``V`` of shape ``(s, q)``, ``Sigma = diag(sigma_1..sigma_q)``
and the diagonal

    D = Sigma^{-1} (1 - sigma_q Sigma^{-1}),
    D_ii = (1 - sigma_q/sigma_i) / sigma_i,

so applying the preconditioner to a mini-batch gradient (Algorithm 1,
step 5) costs ``s*q`` extra memory (Table 1) — independent of ``n``.

Section 4 prices the correction ``V D V^T Phi g`` at ``s*m*q``
operations, the cost of forming ``V^T Phi`` first.  The code evaluates
the same product right to left instead:

    h = Phi^T g        (s, l)   s*m*l
    t = D * (V^T h)    (q, l)   s*q*l
    V t                (s, l)   s*q*l

for ``s*m*l + 2*s*q*l`` operations in total.  The one term that grows
with the batch, ``s*m*l``, can never exceed the step's own prediction
GEMM ``K[batch, :] @ alpha`` (``n*m*l``), because ``s <= n``.  The
``V^T Phi``-first order costs ``q/l`` times more: 7.5x that GEMM at
``n = 8000``, ``s = 2000``, ``q = 300``, ``l = 10``.

:meth:`NystromPreconditioner.modified_kernel` materialises the adaptive
kernel ``k_G`` *explicitly* — not used in training (it would defeat the
purpose) but invaluable for tests: the modified kernel matrix must be PSD,
have top operator eigenvalue ``≈ lambda_q``, and plain SGD on the explicit
``k_G`` must track the EigenPro 2.0 iteration.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend import backend_of, master_matmul, match_dtype
from repro.config import EPS
from repro.exceptions import ConfigurationError
from repro.instrument import record_ops
from repro.linalg.nystrom import NystromExtension

__all__ = ["NystromPreconditioner"]


class NystromPreconditioner:
    """Nyström representation of ``P_q`` (Algorithm 1 state).

    Parameters
    ----------
    extension:
        Subsample eigensystem holding *at least* ``q`` pairs; only the top
        ``q`` are used.
    q:
        The EigenPro parameter; ``1 <= q <= extension.q``.  Note ``q = 1``
        is a no-op preconditioner (``D_11 = 0``), kept for uniformity.
    """

    def __init__(self, extension: NystromExtension, q: int) -> None:
        q = int(q)
        if not 1 <= q <= extension.q:
            raise ConfigurationError(
                f"q must be in [1, {extension.q}], got {q}"
            )
        ext = extension.truncated(q)
        self.extension = ext
        sig = ext.eigvals
        if sig[0] <= EPS:
            raise ConfigurationError(
                "subsample kernel matrix is numerically zero; cannot build "
                "a preconditioner"
            )
        self.sigma_q = float(sig[-1])
        safe = np.maximum(sig, EPS)
        d_scale = (1.0 - self.sigma_q / safe) / safe
        # Directions with vanished eigenvalues carry no usable information.
        d_scale[sig <= EPS] = 0.0
        self.d_scale = d_scale  # (q,), NumPy — feeds scalar analysis
        # Native copy on the eigenvectors' backend for the training path.
        bk = backend_of(ext.eigvecs)
        self._d_scale_native = bk.asarray(
            d_scale, dtype=bk.dtype_of(ext.eigvecs)
        )

    # ------------------------------------------------------------ metadata
    @property
    def q(self) -> int:
        """The EigenPro parameter."""
        return self.extension.q

    @property
    def s(self) -> int:
        """Fixed coordinate block (subsample) size."""
        return self.extension.s

    @property
    def points(self) -> np.ndarray:
        """Subsample points ``(s, d)``."""
        return self.extension.points

    @property
    def indices(self) -> np.ndarray | None:
        """Subsample indices into the training set, if known."""
        return self.extension.indices

    @property
    def lambda_top(self) -> float:
        """Top operator eigenvalue of the *modified* kernel:
        ``lambda_1(K_{P_q}) = lambda_q(K) ≈ sigma_q / s``."""
        return self.sigma_q / self.s

    @property
    def memory_scalars(self) -> int:
        """Resident scalars of the preconditioner state (Table 1):
        ``s*q`` for ``V`` plus ``2q`` for ``Sigma`` and ``D``."""
        return self.s * self.q + 2 * self.q

    # ------------------------------------------------------------ training
    def correction(self, phi_block: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Fixed-coordinate-block update direction (Algorithm 1, step 5).

        Parameters
        ----------
        phi_block:
            ``Phi^T`` of shape ``(m, s)`` — the kernel block between the
            mini-batch and the subsample points.  In training this is the
            view ``kb[:, :s]`` of the batch-vs-centers block already
            computed in step 2 (the trainer holds the subsample first:
            :meth:`~repro.core.eigenpro2.EigenPro2._center_order`), so it
            costs no extra kernel evaluations and no copy.
        g:
            Batch residuals ``f(x_t) - y_t`` of shape ``(m, l)``.

        Returns
        -------
        numpy.ndarray
            ``V D V^T Phi g`` of shape ``(s, l)``; the caller adds
            ``+ gamma * result`` to the fixed coordinate block of
            ``alpha`` (sign per Eq. 5 — the preconditioner *removes* the
            top-spectrum part of the gradient, so the correction is added
            back).
        """
        if phi_block.ndim != 2 or phi_block.shape[1] != self.s:
            raise ConfigurationError(
                f"phi_block must have shape (m, {self.s}), got "
                f"{phi_block.shape}"
            )
        if g.ndim != 2 or g.shape[0] != phi_block.shape[0]:
            raise ConfigurationError(
                f"g must have shape ({phi_block.shape[0]}, l), got {g.shape}"
            )
        bk = backend_of(phi_block)
        m, l = g.shape
        # Phi^T g first: the only term with m in it costs s*m*l, which
        # s <= n keeps below the step's own n*m*l prediction GEMM.  It
        # runs as the prediction GEMM does (master_matmul): under mixed
        # precision a compute-dtype Phi meets a downcast copy of the
        # float64 residuals and the product is lifted back.
        h = master_matmul(phi_block.T, g, bk)  # (s, l): s*m*l ops
        # The small (s, q, l) tails and the returned correction run, and
        # accumulate, in the residuals' dtype, with the stored eigensystem
        # lifted to it.  D comes from its float64 source when Phi is in
        # another dtype (mixed precision), else from the native copy,
        # which a kernel pinned below the working precision keeps in its
        # own dtype (the trainer hands its Phi over cast up).
        acc_dtype = bk.dtype_of(h)
        if bk.dtype_of(phi_block) != acc_dtype:
            d = bk.asarray(self.d_scale, dtype=acc_dtype)
        else:
            d = match_dtype(self._d_scale_native, acc_dtype, bk)
        v = match_dtype(self.extension.eigvecs, acc_dtype, bk)  # (s, q)
        t = v.T @ h  # (q, l): s*q*l ops
        t *= d[:, None]
        out = v @ t  # (s, l): s*q*l ops
        record_ops("precond", self.s * m * l + 2 * self.s * self.q * l)
        return out

    # ------------------------------------------------------------ analysis
    def projection_weights(self) -> np.ndarray:
        """Weights ``w_j = (sigma_j - sigma_q) / sigma_j^2`` of the explicit
        modified-kernel expansion (zero at ``j = q``)."""
        sig = np.maximum(self.extension.eigvals, EPS)
        return (sig - self.sigma_q) / sig**2

    def modified_kernel(self, x: Any, z: Any | None = None) -> Any:
        """Explicit adaptive kernel matrix ``K_G(x, z)`` (Remark 2.2):

        ``k_G(x,z) = k(x,z) - sum_j w_j (e_j^T phi(x)) (e_j^T phi(z))``.

        Intended for analysis and tests only — cost is quadratic in the
        evaluation size.
        """
        base = self.extension.kernel(x, z if z is not None else x)
        bx = self.extension.projections(x)  # (n_x, q)
        bz = bx if z is None or z is x else self.extension.projections(z)
        bk = backend_of(bx)
        w = bk.asarray(
            self.projection_weights()[None, :], dtype=bk.dtype_of(bx)
        )
        return base - (bx * w) @ bz.T

    def modified_diag(self, x: Any) -> Any:
        """Diagonal ``k_G(x, x)`` without forming the full matrix."""
        base = self.extension.kernel.diag(x)
        bx = self.extension.projections(x)
        bk = backend_of(bx)
        w = bk.asarray(self.projection_weights(), dtype=bk.dtype_of(bx))
        return base - (bx**2) @ w

    def beta_kg(
        self,
        eval_x: Any | None = None,
        *,
        sample_size: int = 2000,
        seed: int | None = 0,
    ) -> float:
        """``beta(K_G) = max_x k_G(x, x)`` estimated on a sample
        (paper Step 2; empirically ``≈ beta(K)``)."""
        if eval_x is None:
            pts = self.points
        else:
            bk = backend_of(eval_x)
            pts = bk.as_2d(bk.asarray(eval_x))
            if pts.shape[0] > sample_size:
                rng = np.random.default_rng(seed)
                pts = pts[rng.choice(pts.shape[0], sample_size, replace=False)]
        return float(self.modified_diag(pts).max())
