"""Kernelized Pegasos (Shalev-Shwartz et al., 2007) — SVM by stochastic
subgradient descent on the hinge loss.

A classical stochastic kernel baseline with a very different character
from the square-loss interpolation methods: the regularization parameter
``lambda`` matters, the step size schedule ``1/(lambda t)`` is fixed by
the theory, and convergence is ``O(1/(lambda T))`` rather than linear.
Included as an extra comparison point for the examples and the ablation
benches (the paper's SVM comparisons in Table 3 go through SMO solvers —
see :mod:`repro.baselines.smo`).

Implementation notes: the mini-batch variant; the state is the count
matrix ``a`` where ``a[i, c]`` is how many times point ``i`` violated the
margin for the one-vs-rest problem of class ``c``.  The model after ``T``
iterations is ``f_c(x) = (1/(lambda T)) sum_i a[i,c] y^c_i k(x_i, x)``.

Backend note: the hot work — the per-step ``(m, n)`` kernel block and
the fitted model's blocked prediction — dispatches through the active
:class:`~repro.backend.ArrayBackend`; the margin bookkeeping (count
updates, shuffling) is small host-side NumPy.  The solver therefore runs
under ``use_backend("torch")`` and inside shard executors with results
matching the NumPy backend (``tests/test_backend_parity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.backend import to_numpy
from repro.core.model import KernelModel, as_labels
from repro.device.simulator import SimulatedDevice
from repro.exceptions import ConfigurationError, NotFittedError
from repro.instrument import record_ops
from repro.kernels.base import Kernel

__all__ = ["PegasosSVM"]


class PegasosSVM:
    """Mini-batch kernel Pegasos, one-vs-rest for multiclass.

    Parameters
    ----------
    kernel:
        Kernel function.
    reg_lambda:
        Regularization ``lambda`` > 0 (also sets the ``1/(lambda t)``
        step schedule).
    batch_size:
        Mini-batch size per subgradient step.
    seed:
        Shuffling seed.
    device:
        Optional simulated device (charged ``m*n*(d+l)`` per iteration).
    """

    method_name = "pegasos"

    def __init__(
        self,
        kernel: Kernel,
        *,
        reg_lambda: float = 1e-4,
        batch_size: int = 64,
        seed: int | None = 0,
        device: SimulatedDevice | None = None,
    ) -> None:
        if reg_lambda <= 0:
            raise ConfigurationError(
                f"reg_lambda must be > 0, got {reg_lambda}"
            )
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.kernel = kernel
        self.reg_lambda = float(reg_lambda)
        self.batch_size = int(batch_size)
        self.seed = seed
        self.device = device
        self.model_: KernelModel | None = None

    def fit(self, x: np.ndarray, y: np.ndarray, *, epochs: int = 1) -> "PegasosSVM":
        """Train for ``epochs`` passes of mini-batch subgradient steps.

        ``y`` may be integer labels or a 0/1 one-hot matrix; internally
        each column becomes a ±1 one-vs-rest problem.
        """
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        labels = as_labels(np.asarray(y))
        n, d = x.shape
        n_classes = int(labels.max()) + 1 if labels.size else 2
        n_classes = max(n_classes, 2)
        y_pm = -np.ones((n, n_classes))
        y_pm[np.arange(n), labels] = 1.0

        m = min(self.batch_size, n)
        counts = np.zeros((n, n_classes))
        rng = np.random.default_rng(self.seed)
        t = 0
        for _ in range(epochs):
            perm = rng.permutation(n)
            for start in range(0, n, m):
                idx = perm[start : start + m]
                t += 1
                # The block is evaluated on the active backend (the
                # expensive part) and pulled to the host — in its working
                # dtype, so a float32 precision scope is honored — for
                # the margin bookkeeping, which is tiny by comparison.
                kb = np.asarray(to_numpy(self.kernel(x[idx], x)))  # (m', n)
                scores = kb @ (counts * y_pm) / (self.reg_lambda * t)
                record_ops("gemm", idx.shape[0] * n * n_classes)
                violated = y_pm[idx] * scores < 1.0
                counts[idx] += violated
                if self.device is not None:
                    self.device.charge_iteration(
                        idx.shape[0] * n * (d + n_classes)
                    )
        weights = (counts * y_pm) / (self.reg_lambda * max(t, 1))
        self.model_ = KernelModel(self.kernel, x, weights)
        return self

    # ------------------------------------------------------------ inference
    def _require_fitted(self) -> KernelModel:
        if self.model_ is None:
            raise NotFittedError("PegasosSVM has not been fitted")
        return self.model_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Per-class decision scores."""
        return self._require_fitted().predict(x)

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return as_labels(self.predict(x))

    def classification_error(self, x: np.ndarray, y: np.ndarray) -> float:
        """Misclassification rate on ``(x, y)``."""
        return self._require_fitted().classification_error(x, y)
