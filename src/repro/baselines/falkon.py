"""FALKON (Rudi, Carratino & Rosasco, NeurIPS 2017), from scratch.

The strongest single-GPU competitor in the paper's Table 2.  FALKON solves
the Nyström-restricted kernel ridge problem

    min_alpha (1/n) || K_nM alpha - y ||^2 + lambda alpha^T K_MM alpha

over ``M ≪ n`` uniformly sampled centers by conjugate gradient on the
normal equations

    H alpha = K_Mn y / n,     H = K_Mn K_nM / n + lambda K_MM,

preconditioned by the FALKON factorization: with ``T = chol(K_MM)`` and
``A = chol(T T^T / M + lambda I)`` (both upper triangular), the change of
variable ``alpha = T^{-1} A^{-1} beta`` turns ``H`` into a well-conditioned
operator, and CG converges in a few tens of iterations independent of
``n``.  Per-CG-iteration cost is dominated by the two ``(n, M)`` kernel
sweeps — exactly why the paper's method (no ``n x M`` sweeps beyond the
mini-batch) beats it on time.

All array work dispatches through the active
:class:`~repro.backend.ArrayBackend` (triangular factor applications via
``ArrayBackend.solve_triangular``, the two-factor solves building on the
same machinery that backs ``cho_solve``), so the solver runs on NumPy or
Torch (CPU/CUDA) and inside shard executors — the same treatment the
ridge/interpolation baselines got.  Only scalar CG control logic
(residual norms, convergence tests) lives on the host.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend, to_numpy
from repro.config import compute_dtype
from repro.core.model import KernelModel, as_labels
from repro.device.simulator import SimulatedDevice
from repro.exceptions import ConfigurationError, NotFittedError
from repro.kernels.base import Kernel
from repro.kernels.ops import kernel_matvec
from repro.linalg.stable import jitter_cholesky

__all__ = ["Falkon"]


class Falkon:
    """FALKON kernel ridge solver.

    Parameters
    ----------
    kernel:
        Kernel function.
    n_centers:
        Number ``M`` of Nyström centers (uniform subsample).
    reg_lambda:
        Ridge parameter ``lambda`` (statistical normalization).
    max_iters:
        Conjugate-gradient iteration cap.
    tol:
        Relative residual tolerance for CG convergence (per output
        column; all columns must converge).
    seed:
        RNG seed for center sampling.
    device:
        Optional simulated device; CG sweeps charge ``2*n*M*(d+l)`` ops
        per iteration plus the setup factorizations.

    Attributes
    ----------
    model_:
        Fitted :class:`~repro.core.model.KernelModel` over the centers.
    n_iters_:
        CG iterations performed.
    """

    method_name = "falkon"

    def __init__(
        self,
        kernel: Kernel,
        *,
        n_centers: int = 1000,
        reg_lambda: float = 1e-6,
        max_iters: int = 100,
        tol: float = 1e-8,
        seed: int | None = 0,
        device: SimulatedDevice | None = None,
    ) -> None:
        if n_centers < 1:
            raise ConfigurationError(f"n_centers must be >= 1, got {n_centers}")
        if reg_lambda <= 0:
            raise ConfigurationError(
                f"reg_lambda must be > 0, got {reg_lambda}"
            )
        if max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
        if tol <= 0:
            raise ConfigurationError(f"tol must be > 0, got {tol}")
        self.kernel = kernel
        self.n_centers = int(n_centers)
        self.reg_lambda = float(reg_lambda)
        self.max_iters = int(max_iters)
        self.tol = float(tol)
        self.seed = seed
        self.device = device
        self.model_: KernelModel | None = None
        self.n_iters_: int = 0

    # -------------------------------------------------------------- fitting
    def fit(self, x: np.ndarray, y: np.ndarray) -> "Falkon":
        """Solve the preconditioned normal equations by CG."""
        bk = get_backend()
        dtype = compute_dtype(x, y)
        x = bk.ascontiguous(bk.as_2d(bk.asarray(x, dtype=dtype)))
        y = bk.asarray(y, dtype=dtype)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape[0] != x.shape[0]:
            raise ConfigurationError("x and y row counts differ")
        n, d = x.shape
        l = y.shape[1]
        m_centers = min(self.n_centers, n)
        rng = np.random.default_rng(self.seed)
        centers = x[rng.choice(n, size=m_centers, replace=False)]

        k_mm = self.kernel(centers, centers)
        # T (lower; NumPy/SciPy convention) such that K_MM = T T^T.
        t_chol, _ = jitter_cholesky(k_mm)
        # A A^T = T^T T / M + lambda I  (preconditioner inner factor).
        inner = (
            t_chol.T @ t_chol / m_centers
            + self.reg_lambda * bk.eye(m_centers, dtype=bk.dtype_of(t_chol))
        )
        a_chol, _ = jitter_cholesky(inner)
        if self.device is not None:
            self.device.charge_iteration(
                m_centers * m_centers * d + 2 * m_centers**3
            )

        def prec_apply(v):
            """alpha-space vector from beta-space: T^{-T} A^{-T} v."""
            u = bk.solve_triangular(a_chol, v, lower=True, trans=True)
            return bk.solve_triangular(t_chol, u, lower=True, trans=True)

        def prec_apply_t(v):
            """beta-space vector from alpha-space: A^{-1} T^{-1} v."""
            u = bk.solve_triangular(t_chol, v, lower=True)
            return bk.solve_triangular(a_chol, u, lower=True)

        def h_apply(alpha):
            """H alpha = K_Mn K_nM alpha / n + lambda K_MM alpha."""
            knm_alpha = kernel_matvec(self.kernel, x, centers, alpha)
            kmn_knm = kernel_matvec(self.kernel, centers, x, knm_alpha)
            if self.device is not None:
                self.device.charge_iteration(2 * n * m_centers * (d + l))
            return kmn_knm / n + self.reg_lambda * (k_mm @ alpha)

        # Right-hand side in beta space.
        kmn_y = kernel_matvec(self.kernel, centers, x, y)
        b = prec_apply_t(kmn_y / n)

        # Block CG on B^T H B beta = b, one column per output.  CG vectors
        # stay backend-native; only the per-column scalars used by the
        # control flow are pulled to the host.
        def op(beta):
            return prec_apply_t(h_apply(prec_apply(beta)))

        def col_dots(u, v) -> np.ndarray:
            return np.asarray(to_numpy((u * v).sum(axis=0)), dtype=float)

        def col_row(values: np.ndarray):
            """Host ``(l,)`` scalars as a native broadcastable row."""
            return bk.asarray(values[None, :], dtype=bk.dtype_of(b))

        beta = bk.zeros((m_centers, l), dtype=bk.dtype_of(b))
        r = b - op(beta)
        p = bk.copy(r)
        rs = col_dots(r, r)
        b_norms = np.maximum(np.sqrt(col_dots(b, b)), 1e-300)
        self.n_iters_ = 0
        for _ in range(self.max_iters):
            if np.all(np.sqrt(rs) <= self.tol * b_norms):
                break
            hp = op(p)
            denom = col_dots(p, hp)
            step = rs / np.where(np.abs(denom) > 1e-300, denom, 1e-300)
            beta = beta + p * col_row(step)
            r = r - hp * col_row(step)
            rs_new = col_dots(r, r)
            p = r + p * col_row(
                rs_new / np.where(rs > 1e-300, rs, 1e-300)
            )
            rs = rs_new
            self.n_iters_ += 1

        alpha = prec_apply(beta)
        self.model_ = KernelModel(self.kernel, centers, alpha)
        return self

    # ------------------------------------------------------------ inference
    def _require_fitted(self) -> KernelModel:
        if self.model_ is None:
            raise NotFittedError("Falkon has not been fitted")
        return self.model_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Model outputs ``f(x)``."""
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
