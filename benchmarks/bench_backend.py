"""NumPy vs Torch-CPU micro-benchmarks of the backend dispatch layer.

Times the operation that dominates training and prediction —
``kernel_matvec``, the streamed model evaluation — on each available
backend at a realistic shape, plus the dispatch overhead itself on a tiny
shape (the backend layer must not tax the small-problem path).  Torch
cases appear only when torch is installed; results print with ``pytest -s``
via pytest-benchmark's comparison table, grouped per operation.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend.py -q
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.backend import use_backend
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.kernels.ops import block_workspace, kernel_matvec

N, D, M, L = 4000, 400, 400, 10
BLOCK_SCALARS = 200_000

BACKENDS = ["numpy"] + (
    ["torch"] if importlib.util.find_spec("torch") is not None else []
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((N, D)),
        rng.standard_normal((M, D)),
        rng.standard_normal((N, L)),
    )


@pytest.fixture(params=BACKENDS)
def backend_name(request):
    return request.param


@pytest.mark.benchmark(group="kernel_matvec")
@pytest.mark.parametrize(
    "kernel",
    [GaussianKernel(bandwidth=5.0), LaplacianKernel(bandwidth=5.0)],
    ids=["gaussian", "laplacian"],
)
def test_kernel_matvec_backend(benchmark, data, backend_name, kernel):
    """Streamed K(x, centers) @ w — the n*m*(d+l) training hot path."""
    centers, batch, w = data
    with use_backend(backend_name) as bk:
        block_workspace().reset()
        out = benchmark(
            lambda: (
                kernel_matvec(
                    kernel, batch, centers, w, max_scalars=BLOCK_SCALARS
                ),
                bk.synchronize(),
            )[0]
        )
        assert tuple(out.shape) == (M, L)


@pytest.mark.benchmark(group="dispatch_overhead")
def test_small_problem_dispatch_overhead(benchmark, backend_name):
    """Tiny shapes measure the per-call cost of the backend layer itself."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 4))
    c = rng.standard_normal((16, 4))
    w = rng.standard_normal((16, 1))
    kernel = GaussianKernel(bandwidth=2.0)
    with use_backend(backend_name):
        out = benchmark(lambda: kernel_matvec(kernel, x, c, w))
        assert tuple(out.shape) == (8, 1)
