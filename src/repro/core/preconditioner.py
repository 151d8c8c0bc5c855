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

The chain splits over the subsample rows: :func:`correction_partial`
forms ``V_i^T Phi_i^T g`` for a row range ``i``, the shard-order sum of
those partials is ``V^T Phi^T g``, and :func:`correction_rows` maps the
sum back to that range's rows ``V_i D (.)``.  With one range covering
all ``s`` rows this is :meth:`NystromPreconditioner.correction`; the
sharded trainer runs the split on the shards that hold the subsample
(:mod:`repro.shard.trainer`).

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

__all__ = ["NystromPreconditioner", "correction_partial", "correction_rows"]


def correction_partial(phi: Any, g: Any, eigvecs: Any) -> Any:
    """``V_i^T Phi_i^T g`` of shape ``(q, l)``: the first half of the
    correction over the subsample rows ``i`` that ``phi``'s columns
    (``(m, s_i)``) and ``eigvecs``'s rows (``(s_i, q)``) cover.

    The full ``V^T Phi^T g`` is the shard-order sum of these partials;
    with every subsample row in one call it is that product itself.
    ``Phi^T g`` runs as the prediction GEMM does
    (:func:`~repro.backend.master_matmul`): under mixed precision a
    compute-dtype ``Phi`` meets a downcast copy of the float64 residuals
    and the product is lifted back; ``V`` is lifted to that product's
    dtype.  Records ``s_i*m*l + s_i*q*l`` ``"precond"`` operations.
    """
    bk = backend_of(phi)
    m, l = g.shape
    s_i, q = eigvecs.shape
    h = master_matmul(phi.T, g, bk)  # (s_i, l): s_i*m*l ops
    v = match_dtype(eigvecs, bk.dtype_of(h), bk)
    record_ops("precond", s_i * m * l + s_i * q * l)
    return v.T @ h  # (q, l): s_i*q*l ops


def correction_rows(
    p: Any, eigvecs: Any, d_scale: np.ndarray, phi_dtype: object
) -> Any:
    """``V_i D p`` of shape ``(s_i, l)``: the correction's rows for the
    subsample rows ``eigvecs`` (``(s_i, q)``) covers, from the summed
    partial ``p`` (:func:`correction_partial`).

    Runs, and accumulates, in ``p``'s dtype.  ``D`` comes from its
    float64 source ``d_scale`` when ``Phi`` (of dtype ``phi_dtype``) was
    lifted to reach ``p``'s dtype (mixed precision), else by way of the
    eigenvectors' dtype.  Records ``s_i*q*l`` ``"precond"`` operations.
    """
    bk = backend_of(p)
    acc = bk.dtype_of(p)
    via = acc if np.dtype(phi_dtype) != acc else bk.dtype_of(eigvecs)
    d = match_dtype(bk.asarray(d_scale, dtype=via), acc, bk)
    v = match_dtype(eigvecs, acc, bk)
    record_ops("precond", eigvecs.shape[0] * eigvecs.shape[1] * p.shape[1])
    return v @ (p * d[:, None])  # (s_i, l): s_i*q*l ops


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
        self.d_scale = d_scale  # (q,), float64 NumPy

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
        v = self.extension.eigvecs
        p = correction_partial(phi_block, g, v)
        return correction_rows(
            p, v, self.d_scale, backend_of(phi_block).dtype_of(phi_block)
        )

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
