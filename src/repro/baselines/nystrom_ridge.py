"""Plain Nyström (subset-of-regressors) ridge regression.

The simplest classical large-scale kernel baseline: restrict the model to
``M`` sampled centers and solve the restricted ridge problem *directly*,

    (K_Mn K_nM + lambda n K_MM) alpha = K_Mn y,

by Cholesky.  FALKON (:mod:`repro.baselines.falkon`) is exactly this
problem solved *iteratively* with a smarter preconditioner — having both
lets the benchmarks separate "Nyström restriction" effects from
"iterative solver" effects, and gives the Table-2 comparison a third
classical point.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.model import KernelModel, as_labels
from repro.device.simulator import SimulatedDevice
from repro.exceptions import ConfigurationError, NotFittedError
from repro.kernels.base import Kernel
from repro.linalg.stable import jitter_cholesky

__all__ = ["NystromRidge"]


class NystromRidge:
    """Subset-of-regressors kernel ridge via direct solve.

    Parameters
    ----------
    kernel:
        Kernel function.
    n_centers:
        Number of Nyström centers ``M`` (uniform subsample).
    reg_lambda:
        Ridge parameter (statistical normalization: multiplied by ``n``).
    seed:
        Center-sampling seed.
    device:
        Optional simulated device (charged the ``n*M*(d+l)`` sweeps and
        the ``M^3`` factorization).
    """

    method_name = "nystrom-ridge"

    def __init__(
        self,
        kernel: Kernel,
        *,
        n_centers: int = 1000,
        reg_lambda: float = 1e-6,
        seed: int | None = 0,
        device: SimulatedDevice | None = None,
    ) -> None:
        if n_centers < 1:
            raise ConfigurationError(f"n_centers must be >= 1, got {n_centers}")
        if reg_lambda < 0:
            raise ConfigurationError(
                f"reg_lambda must be >= 0, got {reg_lambda}"
            )
        self.kernel = kernel
        self.n_centers = int(n_centers)
        self.reg_lambda = float(reg_lambda)
        self.seed = seed
        self.device = device
        self.model_: KernelModel | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "NystromRidge":
        """Solve the restricted normal equations directly."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
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
        # K_Mn K_nM assembled blockwise through the streaming matvec on
        # each center-column group would be O(n M^2); direct assembly of
        # the (n, M) block in row chunks keeps memory bounded.
        gram = np.zeros((m_centers, m_centers))
        k_mn_y = np.zeros((m_centers, l))
        from repro.kernels.ops import iter_row_blocks

        for rows in iter_row_blocks(n, m_centers):
            block = self.kernel(x[rows], centers)  # (b, M)
            gram += block.T @ block
            k_mn_y += block.T @ y[rows]
        if self.device is not None:
            self.device.charge_iteration(
                n * m_centers * (d + m_centers + l) + m_centers**3
            )
        lhs = gram + self.reg_lambda * n * k_mm
        chol, _ = jitter_cholesky(lhs)
        alpha = scipy.linalg.cho_solve((chol, True), k_mn_y)
        self.model_ = KernelModel(self.kernel, centers, alpha)
        return self

    # ------------------------------------------------------------ inference
    def _require_fitted(self) -> KernelModel:
        if self.model_ is None:
            raise NotFittedError("NystromRidge has not been fitted")
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
