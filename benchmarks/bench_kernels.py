"""Micro-benchmarks of the computational substrate.

These time the operations that dominate training — the batch-vs-centers
kernel block and the blocked model evaluation — at a realistic shape
(``m x n`` with large ``d``), plus the preconditioner application whose
negligible-overhead property Table 1 claims.
"""

import numpy as np
import pytest

from repro.core.preconditioner import NystromPreconditioner
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.kernels.ops import kernel_matvec
from repro.linalg import nystrom_extension

N, D, M, L = 4000, 400, 400, 10
S, Q = 800, 120


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((N, D)),
        rng.standard_normal((M, D)),
        rng.standard_normal((N, L)),
    )


@pytest.mark.parametrize(
    "kernel",
    [GaussianKernel(bandwidth=5.0), LaplacianKernel(bandwidth=5.0)],
    ids=["gaussian", "laplacian"],
)
def test_kernel_block(benchmark, data, kernel):
    """The (m, n) kernel block — the paper's n*m*d term."""
    x, batch, _ = data
    out = benchmark(lambda: kernel(batch, x))
    assert out.shape == (M, N)


def test_prediction_gemm(benchmark, data):
    """Block @ weights — the n*m*l term."""
    x, batch, w = data
    kernel = GaussianKernel(bandwidth=5.0)
    kb = kernel(batch, x)
    out = benchmark(lambda: kb @ w)
    assert out.shape == (M, L)


def test_blocked_matvec_matches_budget(benchmark, data):
    """Full blocked model evaluation under a tight memory budget."""
    x, batch, w = data
    kernel = GaussianKernel(bandwidth=5.0)
    out = benchmark(
        lambda: kernel_matvec(kernel, batch, x, w, max_scalars=200_000)
    )
    assert out.shape == (M, L)


def test_preconditioner_correction(benchmark, data):
    """The EigenPro correction ``V D V^T (Phi^T g)`` — ``s*m*l + 2*s*q*l``
    operations as executed, so never more than the ``n*m*l`` prediction
    GEMM it rides along with (Table 1's point: cheap next to the kernel
    block)."""
    x, batch, w = data
    kernel = GaussianKernel(bandwidth=5.0)
    ext = nystrom_extension(kernel, x, S, Q, seed=0)
    precond = NystromPreconditioner(ext, Q)
    phi = kernel(batch, precond.points)
    g = np.random.default_rng(1).standard_normal((M, L))
    out = benchmark(lambda: precond.correction(phi, g))
    assert out.shape == (S, L)


def test_nystrom_setup(benchmark, data):
    """One-time subsample eigensystem setup."""
    x, _, _ = data
    kernel = GaussianKernel(bandwidth=5.0)
    ext = benchmark(
        lambda: nystrom_extension(kernel, x, S, Q, seed=0)
    )
    assert ext.q == Q
