"""Bench: the NumPy kernel block former at the ``fit-large-batch`` step shape.

Under pytest (``python -m pytest benchmarks/bench_fused.py``, add
``--benchmark-disable`` for a one-shot smoke) the module times one
8000 x 8000 float64 Gaussian block, d=32, tiled over the process's
compute threads against the single-pass chain, and asserts the two
blocks are bitwise equal.  The fused entry points' bitwise contract
against the decomposed chain is pinned by
``tests/test_backend_parity.py::TestFusedHotPathNumpy``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backend import ArrayBackend, NumpyBackend
from repro.kernels import GaussianKernel


class _SinglePass(NumpyBackend):
    """NumPy with the base class's one-pass post-GEMM tail."""

    _kernel_tail = ArrayBackend._kernel_tail


@pytest.fixture(scope="module")
def large_block():
    """Operands of one ``fit-large-batch`` step block, m = n = 8000."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8_000, 32))
    z = rng.standard_normal((8_000, 32))
    profile, scale = GaussianKernel(bandwidth=5.0).fused_spec
    kwargs = dict(
        profile=profile, scale=scale, out=np.empty((8_000, 8_000)),
        x_sq_norms=np.einsum("ij,ij->i", x, x),
        z_sq_norms=np.einsum("ij,ij->i", z, z), dtype=np.float64,
    )
    return x, z, kwargs


def _form(bk, large_block):
    x, z, kwargs = large_block
    return bk.fused_kernel_block(x, z, **kwargs)


def test_large_batch_block_tiled(benchmark, large_block):
    block = benchmark(_form, NumpyBackend(), large_block)
    tiled = hashlib.sha256(block).hexdigest()
    single = hashlib.sha256(_form(_SinglePass(), large_block)).hexdigest()
    assert tiled == single


def test_large_batch_block_single_pass(benchmark, large_block):
    benchmark(_form, _SinglePass(), large_block)
