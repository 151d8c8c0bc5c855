"""The kernel machine itself: ``f(x) = sum_i alpha_i k(c_i, x)``.

A :class:`KernelModel` is the *output* of every trainer in this package —
EigenPro 2.0, plain SGD, the original EigenPro and FALKON all produce one
(FALKON's centers are a subsample; the others use all training points).
Prediction streams over row blocks so arbitrarily large evaluation sets
stay within the configured memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.backend import backend_of, to_numpy
from repro.config import DEFAULT_BLOCK_SCALARS
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel
from repro.kernels.ops import kernel_matvec

__all__ = ["KernelModel", "as_labels"]


def as_labels(y: Any) -> np.ndarray:
    """Convert targets to integer class labels (always NumPy).

    - 1-D integer arrays pass through;
    - 2-D one-hot / score arrays map to ``argmax`` along axis 1;
    - 1-D float arrays are thresholded at the midpoint of their range
      (supports ``{0,1}`` and ``{-1,+1}`` binary encodings).
    """
    y = to_numpy(y)
    if y.ndim == 2:
        if y.shape[1] == 1:
            return as_labels(y[:, 0])
        return np.argmax(y, axis=1)
    if y.ndim == 1:
        if np.issubdtype(y.dtype, np.integer):
            return y
        mid = (float(y.max()) + float(y.min())) / 2.0 if y.size else 0.0
        return (y > mid).astype(np.intp)
    raise ConfigurationError(f"cannot interpret labels of shape {y.shape}")


def _check_targets(y: np.ndarray, pred: np.ndarray) -> None:
    """Raise unless targets and predictions match shape exactly — a
    broadcast would score the model against the wrong targets."""
    if y.shape != pred.shape:
        raise ConfigurationError(
            f"targets have shape {y.shape} but predictions have shape "
            f"{pred.shape}"
        )


@dataclass
class KernelModel:
    """A fitted kernel machine.

    Attributes
    ----------
    kernel:
        The kernel function.
    centers:
        Kernel centers, shape ``(n, d)`` (training points for SGD-family
        trainers, Nyström centers for FALKON).
    weights:
        Coefficients ``alpha``, shape ``(n, l)``.
    """

    kernel: Kernel
    centers: Any
    weights: Any

    def __post_init__(self) -> None:
        bk = backend_of(self.centers)
        self.centers = bk.as_2d(bk.asarray(self.centers))
        self.weights = backend_of(self.weights).asarray(self.weights)
        if self.weights.ndim == 1:
            self.weights = self.weights[:, None]
        if self.weights.shape[0] != self.centers.shape[0]:
            raise ConfigurationError(
                f"weights rows ({self.weights.shape[0]}) must match centers "
                f"({self.centers.shape[0]})"
            )

    # ---------------------------------------------------------- dimensions
    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[1]

    # ---------------------------------------------------------- prediction
    def predict(
        self, x: Any, max_scalars: int = DEFAULT_BLOCK_SCALARS
    ) -> Any:
        """Evaluate ``f(x)`` for each row of ``x``; shape ``(n_x, l)``,
        native to the active backend."""
        return kernel_matvec(
            self.kernel, x, self.centers, self.weights, max_scalars=max_scalars
        )

    def predict_labels(
        self, x: Any, max_scalars: int = DEFAULT_BLOCK_SCALARS
    ) -> np.ndarray:
        """Predicted class labels (argmax over outputs; thresholded when
        there is a single output column)."""
        return as_labels(self.predict(x, max_scalars=max_scalars))

    # ------------------------------------------------------------- metrics
    def mse(self, x: Any, y: Any) -> float:
        """Mean squared error of ``f`` against targets ``y`` — the
        empirical loss ``L(f)`` of Remark 2.1, averaged over points *and*
        output columns.  ``y`` has the predictions' shape ``(n_x, l)``;
        a 1-D ``y`` is accepted for a single-output model."""
        y = to_numpy(y)
        if y.ndim == 1 and self.n_outputs == 1:
            y = y[:, None]
        pred = to_numpy(self.predict(x))
        _check_targets(y, pred)
        return float(np.mean((pred - y) ** 2))

    def classification_error(self, x: Any, y: Any) -> float:
        """Fraction of misclassified points; ``y`` may be integer labels or
        one-hot targets, one per row of ``x``."""
        labels = as_labels(y)
        pred = self.predict_labels(x)
        _check_targets(labels, pred)
        return float(np.mean(pred != labels))

    def rkhs_norm_squared(self) -> float:
        """``||f||_H^2 = alpha^T K alpha`` (summed over output columns).

        Forms the full center kernel matrix — analysis/tests only.
        """
        k = self.kernel(self.centers, self.centers)
        return float((self.weights * (k @ self.weights)).sum())
