"""Matérn kernels: a smoothness dial between Laplacian and Gaussian.

The Matérn family with smoothness ``nu`` interpolates between the
Laplacian (``nu = 1/2``) and the Gaussian (``nu -> inf``); its kernel
operator's eigenvalues decay polynomially with exponent growing in
``nu``.  That makes it the ideal instrument for the paper's central
quantity: the critical batch size ``m*(k) = beta/lambda_1`` *increases*
as smoothness decreases, exactly the Laplacian-vs-Gaussian effect of
Section 5.5, now as a continuum.  Exercised by the smoothness ablation in
``benchmarks/bench_ablations.py``.

Closed forms implemented (``r = ||x - z||``, bandwidth ``sigma``):

- ``nu = 1/2``: ``exp(-r/sigma)``  (the Laplacian)
- ``nu = 3/2``: ``(1 + a r) exp(-a r)``, ``a = sqrt(3)/sigma``
- ``nu = 5/2``: ``(1 + a r + a^2 r^2 / 3) exp(-a r)``, ``a = sqrt(5)/sigma``
"""

from __future__ import annotations

import math
from typing import Any

from repro.backend import get_backend
from repro.exceptions import ConfigurationError
from repro.kernels.base import RadialKernel

__all__ = ["MaternKernel"]

_SUPPORTED_NU = (0.5, 1.5, 2.5)


class MaternKernel(RadialKernel):
    """Matérn kernel with half-integer smoothness ``nu`` in {1/2, 3/2, 5/2}.

    Parameters
    ----------
    bandwidth:
        Length scale ``sigma`` > 0.
    nu:
        Smoothness; one of 0.5, 1.5, 2.5 (the closed-form cases —
        general ``nu`` needs Bessel functions and is never used in
        large-scale practice).
    """

    name = "matern"

    def __init__(self, bandwidth: float, nu: float = 1.5) -> None:
        super().__init__(bandwidth)
        nu = float(nu)
        if nu not in _SUPPORTED_NU:
            raise ConfigurationError(
                f"nu must be one of {_SUPPORTED_NU}, got {nu}"
            )
        self.nu = nu

    def _profile(self, sq_dists: Any) -> Any:
        bk = get_backend()
        r = bk.sqrt(sq_dists, out=sq_dists)
        if self.nu == 0.5:
            r *= -1.0 / self.bandwidth
            return bk.exp(r, out=r)
        # nu = 3/2, 5/2: both exp(-a r) and the polynomial in (a r) are
        # needed, so one extra (b, n) temporary per block is unavoidable;
        # negating in place keeps it to exactly one.
        if self.nu == 1.5:
            nar = r
            nar *= -math.sqrt(3.0) / self.bandwidth  # nar = -a r
            out = bk.exp(nar)
            out *= 1.0 - nar
            return out
        nar = r
        nar *= -math.sqrt(5.0) / self.bandwidth  # nar = -a r
        out = bk.exp(nar)
        out *= 1.0 - nar + nar * nar / 3.0
        return out

    def params(self) -> dict[str, Any]:
        return {"bandwidth": self.bandwidth, "nu": self.nu}
