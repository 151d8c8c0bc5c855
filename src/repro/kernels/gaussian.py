"""Gaussian (RBF) kernel ``k(x, z) = exp(-||x - z||^2 / (2 sigma^2))``.

This is the bandwidth convention of the paper's Appendix B.  The Gaussian
kernel has extremely fast eigenvalue decay, which is precisely why its
critical batch size ``m*(k)`` is tiny and EigenPro-style spectral
modification pays off so much.
"""

from __future__ import annotations

from typing import Any

from repro.backend import get_backend
from repro.kernels.base import RadialKernel


class GaussianKernel(RadialKernel):
    """Gaussian kernel with bandwidth ``sigma``.

    Parameters
    ----------
    bandwidth:
        The ``sigma`` in ``exp(-||x-z||^2 / (2 sigma^2))``; must be > 0.
    """

    name = "gaussian"

    @property
    def fused_spec(self) -> tuple[str, float]:
        # Same scale expression as _profile, so the backend fused path
        # ("gaussian": sq *= scale; exp) is bit-identical to it.
        return ("gaussian", -0.5 / (self.bandwidth * self.bandwidth))

    def _profile(self, sq_dists: Any) -> Any:
        out = sq_dists
        out *= -0.5 / (self.bandwidth * self.bandwidth)
        return get_backend().exp(out, out=out)
