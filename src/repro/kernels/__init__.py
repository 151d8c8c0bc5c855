"""Positive-definite kernel functions and blocked kernel-matrix operations.

This subpackage is the lowest layer of the system: everything above it —
preconditioners, trainers, baselines — consumes kernels only through the
:class:`~repro.kernels.base.Kernel` interface and the blocked operations in
:mod:`repro.kernels.ops`, which keep peak memory bounded regardless of the
number of kernel centers (the paper trains with up to ``n ≈ 10^6`` centers).

The paper uses the Gaussian kernel ``exp(-||x-z||^2 / (2 sigma^2))`` and the
Laplacian kernel ``exp(-||x-z|| / sigma)`` (Appendix B); the Cauchy and
polynomial kernels are provided as additional standard choices exercised by
tests and ablations.
"""

from repro.kernels.base import Kernel, RadialKernel
from repro.kernels.cauchy import CauchyKernel
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.laplacian import LaplacianKernel
from repro.kernels.matern import MaternKernel
from repro.kernels.polynomial import PolynomialKernel
from repro.kernels.pairwise import euclidean_distances, sq_euclidean_distances
from repro.kernels.ops import (
    BlockWorkspace,
    block_workspace,
    kernel_matvec,
    row_block_sizes,
)

__all__ = [
    "BlockWorkspace",
    "block_workspace",
    "Kernel",
    "RadialKernel",
    "GaussianKernel",
    "LaplacianKernel",
    "CauchyKernel",
    "MaternKernel",
    "PolynomialKernel",
    "sq_euclidean_distances",
    "euclidean_distances",
    "kernel_matvec",
    "row_block_sizes",
]

#: Registry mapping kernel names to classes, used by experiment configs.
KERNELS: dict[str, type[Kernel]] = {
    "gaussian": GaussianKernel,
    "laplacian": LaplacianKernel,
    "cauchy": CauchyKernel,
    "matern": MaternKernel,
    "polynomial": PolynomialKernel,
}


def make_kernel(name: str, **params: float) -> Kernel:
    """Instantiate a kernel by registry name.

    Parameters
    ----------
    name:
        One of ``"gaussian"``, ``"laplacian"``, ``"cauchy"``,
        ``"polynomial"``.
    **params:
        Forwarded to the kernel constructor (e.g. ``bandwidth=5.0``).
    """
    try:
        cls = KERNELS[name]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise KeyError(f"unknown kernel {name!r}; known kernels: {known}") from None
    return cls(**params)
