"""An SMO dual solver for C-SVMs — the LibSVM / ThunderSVM stand-in.

Table 3 of the paper compares EigenPro 2.0's seconds-scale "interactive"
training against LibSVM (CPU, hours) and ThunderSVM (GPU, minutes).  Both
are decomposition methods: sequential minimal optimization over the SVM
dual with a kernel-row cache.  This module implements that algorithm from
scratch — Platt-style two-variable analytic updates with the
maximal-violating-pair working-set selection of Keerthi et al. (the
LibSVM default) and an LRU row cache — and *counts the work it does*
(iterations, kernel rows, operations) so the Table-3 experiment can map
the same solver onto the CPU and GPU device models.

The point being reproduced is structural, not constant-factor: SMO makes
``O(iterations)`` sequential passes each touching ``O(n)`` state and
computing up to two ``(1, n)`` kernel rows, with iteration counts growing
superlinearly in ``n`` — which is why it is orders of magnitude slower
than batched square-loss iteration on the same hardware.

Backend note: the heavy work — kernel-row evaluation and the blocked
decision-function matvec — dispatches through the active
:class:`~repro.backend.ArrayBackend` (rows are pulled to the host for
the O(n) working-set bookkeeping, which is scalar-indexing-bound and
stays NumPy by design), so the solver runs under ``use_backend("torch")``
and inside shard executors with results matching the NumPy backend
(``tests/test_backend_parity.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.backend import backend_of, to_numpy
from repro.core.model import as_labels
from repro.exceptions import ConfigurationError, NotFittedError
from repro.instrument import record_ops
from repro.kernels.base import Kernel
from repro.kernels.ops import kernel_matvec

__all__ = ["SMOSVM", "SMOStats"]


@dataclass
class SMOStats:
    """Work counters accumulated across all one-vs-rest subproblems."""

    iterations: int = 0
    kernel_rows: int = 0
    cache_hits: int = 0
    kernel_ops: int = 0
    per_class_iterations: list[int] = field(default_factory=list)

    def merge_problem(self, iterations: int) -> None:
        self.per_class_iterations.append(iterations)
        self.iterations += iterations


class _RowCache:
    """LRU cache of kernel rows ``K[i, :]``."""

    def __init__(self, kernel: Kernel, x: np.ndarray, max_rows: int, stats: SMOStats):
        self.kernel = kernel
        self.x = x
        self.max_rows = max(1, int(max_rows))
        self.stats = stats
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def row(self, i: int) -> np.ndarray:
        cached = self._rows.get(i)
        if cached is not None:
            self._rows.move_to_end(i)
            self.stats.cache_hits += 1
            return cached
        # The row is evaluated on the active backend (the expensive part);
        # the O(n) working-set bookkeeping consuming it is scalar-indexing
        # NumPy, so pull it to the host — in its working dtype — here.
        row = np.asarray(to_numpy(self.kernel(self.x[i : i + 1], self.x)))[0]
        self.stats.kernel_rows += 1
        self.stats.kernel_ops += self.x.shape[0] * self.x.shape[1]
        self._rows[i] = row
        if len(self._rows) > self.max_rows:
            self._rows.popitem(last=False)
        return row


class SMOSVM:
    """C-SVM trained by sequential minimal optimization (one-vs-rest).

    Parameters
    ----------
    kernel:
        Kernel function.
    c:
        Box constraint ``C`` > 0.
    tol:
        KKT violation tolerance (LibSVM default 1e-3).
    max_iter:
        Per-binary-subproblem iteration cap (a safety net; reaching it
        leaves that subproblem slightly unconverged, which is recorded).
    cache_rows:
        Kernel-row LRU capacity (LibSVM's cache in rows).
    """

    method_name = "smo-svm"

    def __init__(
        self,
        kernel: Kernel,
        *,
        c: float = 1.0,
        tol: float = 1e-3,
        max_iter: int = 100_000,
        cache_rows: int = 512,
    ) -> None:
        if c <= 0:
            raise ConfigurationError(f"C must be > 0, got {c}")
        if tol <= 0:
            raise ConfigurationError(f"tol must be > 0, got {tol}")
        if max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
        self.kernel = kernel
        self.c = float(c)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.cache_rows = int(cache_rows)
        # Fitted state.
        self.x_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None  # (n, n_classes): alpha*y
        self.intercepts_: np.ndarray | None = None
        self.stats_: SMOStats | None = None
        self.converged_: list[bool] | None = None

    # ------------------------------------------------------------- binary
    def _solve_binary(
        self, cache: _RowCache, y: np.ndarray
    ) -> tuple[np.ndarray, float, int, bool]:
        """Solve one ±1 subproblem; returns (alpha, b, iterations, converged)."""
        n = y.shape[0]
        alpha = np.zeros(n)
        u = np.zeros(n)  # u_i = sum_j alpha_j y_j K_ij (f without bias)
        pos = y > 0
        it = 0
        converged = False
        for it in range(1, self.max_iter + 1):
            # Maximal violating pair on F = y - u.
            f = y - u
            up_mask = (pos & (alpha < self.c)) | (~pos & (alpha > 0))
            low_mask = (~pos & (alpha < self.c)) | (pos & (alpha > 0))
            if not up_mask.any() or not low_mask.any():
                converged = True
                break
            f_up = np.where(up_mask, f, -np.inf)
            f_low = np.where(low_mask, f, np.inf)
            i = int(np.argmax(f_up))
            j = int(np.argmin(f_low))
            if f_up[i] - f_low[j] <= self.tol:
                converged = True
                break

            ki = cache.row(i)
            kj = cache.row(j)
            eta = ki[i] + kj[j] - 2.0 * ki[j]
            if eta <= 1e-12:
                eta = 1e-12
            yi, yj = y[i], y[j]
            e_i, e_j = u[i] - yi, u[j] - yj
            aj_old, ai_old = alpha[j], alpha[i]
            aj_new = aj_old + yj * (e_i - e_j) / eta
            if yi != yj:
                lo = max(0.0, aj_old - ai_old)
                hi = min(self.c, self.c + aj_old - ai_old)
            else:
                lo = max(0.0, ai_old + aj_old - self.c)
                hi = min(self.c, ai_old + aj_old)
            aj_new = min(max(aj_new, lo), hi)
            if abs(aj_new - aj_old) < 1e-14:
                # Degenerate pair; nudge the bound to avoid cycling.
                aj_new = hi if aj_new < (lo + hi) / 2 else lo
                if abs(aj_new - aj_old) < 1e-14:
                    converged = True
                    break
            ai_new = ai_old + yi * yj * (aj_old - aj_new)
            alpha[i], alpha[j] = ai_new, aj_new
            u += (ai_new - ai_old) * yi * ki + (aj_new - aj_old) * yj * kj
            record_ops("gemm", 2 * n)

        # Bias from free support vectors (fall back to the KKT midpoint).
        free = (alpha > 1e-9) & (alpha < self.c - 1e-9)
        if free.any():
            b = float(np.mean((y - u)[free]))
        else:
            f = y - u
            up_mask = (pos & (alpha < self.c)) | (~pos & (alpha > 0))
            low_mask = (~pos & (alpha < self.c)) | (pos & (alpha > 0))
            hi = f[up_mask].max() if up_mask.any() else 0.0
            lo = f[low_mask].min() if low_mask.any() else 0.0
            b = float((hi + lo) / 2.0)
        return alpha, b, it, converged

    # ------------------------------------------------------------- fitting
    def fit(self, x: np.ndarray, y: np.ndarray) -> "SMOSVM":
        """Train one-vs-rest SVMs; ``y`` is integer labels or one-hot."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        labels = as_labels(np.asarray(y))
        if labels.shape[0] != x.shape[0]:
            raise ConfigurationError("x and y row counts differ")
        n = x.shape[0]
        n_classes = max(int(labels.max()) + 1, 2)
        stats = SMOStats()
        cache = _RowCache(self.kernel, x, self.cache_rows, stats)
        dual = np.zeros((n, n_classes))
        intercepts = np.zeros(n_classes)
        converged: list[bool] = []
        # Binary problems reuse the cache: rows are label-independent.
        n_problems = 1 if n_classes == 2 else n_classes
        for c in range(n_problems):
            y_pm = np.where(labels == c, 1.0, -1.0)
            alpha, b, iters, ok = self._solve_binary(cache, y_pm)
            dual[:, c] = alpha * y_pm
            intercepts[c] = b
            stats.merge_problem(iters)
            converged.append(ok)
        if n_classes == 2 and n_problems == 1:
            # Mirror the binary problem into the second column so argmax
            # readout works uniformly.
            dual[:, 1] = -dual[:, 0]
            intercepts[1] = -intercepts[0]
            converged.append(converged[0])
        self.x_ = x
        self.dual_coef_ = dual
        self.intercepts_ = intercepts
        self.stats_ = stats
        self.converged_ = converged
        return self

    # ----------------------------------------------------------- inference
    def _require_fitted(self) -> None:
        if self.dual_coef_ is None:
            raise NotFittedError("SMOSVM has not been fitted")

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Per-class decision values ``sum_i (alpha_i y_i) k(x_i, x) + b``,
        native to the active backend."""
        self._require_fitted()
        scores = kernel_matvec(self.kernel, x, self.x_, self.dual_coef_)
        bk = backend_of(scores)
        intercepts = bk.asarray(
            self.intercepts_, dtype=bk.dtype_of(scores)
        )
        return scores + intercepts[None, :]

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        """Predicted class labels (argmax of decision values)."""
        return np.argmax(to_numpy(self.decision_function(x)), axis=1)

    def classification_error(self, x: np.ndarray, y: np.ndarray) -> float:
        """Misclassification rate on ``(x, y)``."""
        labels = as_labels(np.asarray(y))
        return float(np.mean(self.predict_labels(x) != labels))

    # ------------------------------------------------------------ analysis
    def total_ops(self) -> int:
        """Total scalar operations: kernel-row evaluations plus the O(n)
        state updates per iteration — the quantity the Table-3 experiment
        maps onto device throughput models."""
        self._require_fitted()
        n = self.x_.shape[0]
        return self.stats_.kernel_ops + 2 * n * self.stats_.iterations
