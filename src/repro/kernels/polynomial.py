"""Polynomial kernel ``k(x, z) = (gamma <x, z> + coef0)^degree``.

Not shift-invariant and in general not normalized (``k(x,x)`` varies with
``||x||``), so it exercises the code paths where ``beta(K)`` must actually
be estimated from data rather than assumed to be 1 — see
:func:`repro.core.spectrum.estimate_beta`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend import get_backend
from repro.config import compute_dtype
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel, _as_2d


class PolynomialKernel(Kernel):
    """Polynomial kernel.

    Parameters
    ----------
    degree:
        Positive integer exponent.
    gamma:
        Inner-product scale, > 0.
    coef0:
        Additive constant, >= 0 (required for positive-definiteness of
        odd-degree kernels on general data).
    """

    name = "polynomial"
    is_shift_invariant = False
    is_normalized = False

    def __init__(
        self,
        degree: int = 3,
        gamma: float = 1.0,
        coef0: float = 1.0,
    ) -> None:
        degree = int(degree)
        if degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {degree}")
        if not np.isfinite(gamma) or gamma <= 0:
            raise ConfigurationError(f"gamma must be > 0, got {gamma}")
        if not np.isfinite(coef0) or coef0 < 0:
            raise ConfigurationError(f"coef0 must be >= 0, got {coef0}")
        self.degree = degree
        self.gamma = float(gamma)
        self.coef0 = float(coef0)

    def _cross(
        self,
        x: Any,
        z: Any,
        out: Any | None = None,
        x_sq_norms: Any | None = None,
        z_sq_norms: Any | None = None,
    ) -> Any:
        # The row-norm arguments are part of the streaming kernel API; the
        # polynomial kernel consumes inner products, not distances, so
        # both are unused.
        bk = get_backend()
        dtype = compute_dtype(x, z)
        x = bk.asarray(x, dtype=dtype)
        z = bk.asarray(z, dtype=dtype)
        out = bk.matmul(x, z.T, out=out)
        out *= self.gamma
        out += self.coef0
        if self.degree != 1:
            bk.power(out, self.degree, out=out)
        return out

    def diag(self, x: Any) -> Any:
        bk = get_backend()
        x = _as_2d("x", x)
        x = bk.asarray(x, dtype=compute_dtype(x))
        sq = bk.row_sq_norms(x)
        out = self.gamma * sq + self.coef0
        if self.degree != 1:
            bk.power(out, self.degree, out=out)
        return out

    def params(self) -> dict[str, Any]:
        return {"degree": self.degree, "gamma": self.gamma, "coef0": self.coef0}
