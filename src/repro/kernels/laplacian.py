"""Laplacian (exponential) kernel ``k(x, z) = exp(-||x - z|| / sigma)``.

Section 5.5 of the paper singles this kernel out: compared to the Gaussian
it (1) needs fewer epochs, (2) has a *larger* critical batch size ``m*``
(slower eigenvalue decay), and (3) is more robust to the bandwidth choice.
The ablation benchmark (``benchmarks/bench_ablations.py``) reproduces these
claims.  Note the distance here is the Euclidean norm, not the L1 norm.
"""

from __future__ import annotations

from typing import Any

from repro.backend import get_backend
from repro.kernels.base import RadialKernel


class LaplacianKernel(RadialKernel):
    """Laplacian kernel with bandwidth ``sigma``.

    Parameters
    ----------
    bandwidth:
        The ``sigma`` in ``exp(-||x-z|| / sigma)``; must be > 0.
    """

    name = "laplacian"

    @property
    def fused_spec(self) -> tuple[str, float]:
        # Same scale expression as _profile, so the backend fused path
        # ("laplacian": sqrt; *= scale; exp) is bit-identical to it.
        return ("laplacian", -1.0 / self.bandwidth)

    def _profile(self, sq_dists: Any) -> Any:
        bk = get_backend()
        out = bk.sqrt(sq_dists, out=sq_dists)
        out *= -1.0 / self.bandwidth
        return bk.exp(out, out=out)
