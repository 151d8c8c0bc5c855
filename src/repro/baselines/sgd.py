"""Standard mini-batch kernel SGD (paper Eq. 2 / Eq. 3).

The unmodified-kernel baseline: randomized coordinate descent on
``K alpha = y``.  Its convergence per iteration saturates at the tiny
critical batch size ``m*(k) = beta/lambda_1`` — the phenomenon Figure 2
demonstrates and EigenPro 2.0 removes.  Parameter selection is still
analytic (same theory, original kernel): by default the batch size *is*
``m*(k)`` (larger batches only waste device time on this kernel) and the
step size is the Ma-et-al. optimum for whatever batch size is used.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.spectrum import estimate_beta, estimate_lambda1_operator
from repro.core.stepsize import analytic_step_size
from repro.core.trainer import BaseKernelTrainer

__all__ = ["KernelSGD"]


class KernelSGD(BaseKernelTrainer):
    """Plain kernel SGD with analytic (original-kernel) parameters.

    Parameters
    ----------
    kernel, device, batch_size, step_size, seed, monitor_size, damping:
        As in :class:`~repro.core.trainer.BaseKernelTrainer`.  When
        ``batch_size`` is ``None`` it defaults to ``round(m*(k))``; when
        ``step_size`` is ``None`` it is the analytic optimum for the batch
        size in use.
    spectrum_sample:
        Subsample size for the ``beta`` / ``lambda_1`` estimates.

    Attributes
    ----------
    beta_, lambda1_, m_star_:
        The estimated spectral quantities after :meth:`fit`.
    """

    method_name = "sgd"

    def __init__(
        self, kernel, *, spectrum_sample: int = 2000, **options: Any
    ) -> None:
        super().__init__(kernel, **options)
        self.spectrum_sample = int(spectrum_sample)
        self.beta_: float | None = None
        self.lambda1_: float | None = None
        self.m_star_: float | None = None

    def _setup(self, x: np.ndarray, y: np.ndarray) -> None:
        n = x.shape[0]
        self.beta_ = estimate_beta(self.kernel, x, seed=self.seed)
        self.lambda1_ = estimate_lambda1_operator(
            self.kernel,
            x,
            sample_size=min(n, self.spectrum_sample),
            seed=self.seed,
        )
        self.m_star_ = self.beta_ / max(self.lambda1_, 1e-300)
        if self.requested_batch_size is not None:
            m = min(self.requested_batch_size, n)
        else:
            m = int(min(max(1, round(self.m_star_)), n))
        self.batch_size_ = m
        self.step_size_ = (
            self.requested_step_size
            if self.requested_step_size is not None
            else analytic_step_size(
                m, self.beta_, self.lambda1_, damping=self.damping
            )
        )
