"""Tests for blocked kernel-matrix operations (memory-bounded paths)."""

import numpy as np
import pytest

from repro.core.model import KernelModel
from repro.exceptions import ConfigurationError
from repro.kernels import GaussianKernel
from repro.kernels.ops import (
    iter_row_blocks,
    kernel_matvec,
    row_block_sizes,
)


class TestRowBlockSizes:
    def test_sizes_sum_to_n_rows(self):
        assert sum(row_block_sizes(1000, 37, max_scalars=1234)) == 1000

    def test_each_block_within_budget(self):
        for b in row_block_sizes(500, 64, max_scalars=1000):
            assert b * 64 <= 1000 or b == 1

    def test_single_block_when_budget_large(self):
        assert row_block_sizes(10, 10, max_scalars=10**9) == [10]

    def test_empty_for_zero_rows(self):
        assert row_block_sizes(0, 10) == []

    def test_minimum_one_row_per_block(self):
        # Budget smaller than one row still yields usable blocks.
        assert row_block_sizes(5, 100, max_scalars=10) == [1] * 5

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError):
            row_block_sizes(5, 5, max_scalars=0)

    def test_rejects_negative_dims(self):
        with pytest.raises(ConfigurationError):
            row_block_sizes(-1, 5)

    def test_iter_row_blocks_covers_range(self):
        slices = list(iter_row_blocks(100, 7, max_scalars=50))
        covered = np.concatenate([np.arange(s.start, s.stop) for s in slices])
        np.testing.assert_array_equal(covered, np.arange(100))


class TestKernelMatvec:
    def test_matches_dense_product_2d(self, rng):
        k = GaussianKernel(bandwidth=1.5)
        x = rng.standard_normal((30, 5))
        centers = rng.standard_normal((20, 5))
        w = rng.standard_normal((20, 3))
        np.testing.assert_allclose(
            kernel_matvec(k, x, centers, w, max_scalars=64),
            k(x, centers) @ w,
            atol=1e-10,
        )

    def test_matches_dense_product_1d(self, rng):
        k = GaussianKernel(bandwidth=1.5)
        x = rng.standard_normal((15, 4))
        centers = rng.standard_normal((10, 4))
        w = rng.standard_normal(10)
        out = kernel_matvec(k, x, centers, w, max_scalars=32)
        assert out.shape == (15,)
        np.testing.assert_allclose(out, k(x, centers) @ w, atol=1e-10)

    def test_block_size_does_not_change_result(self, rng):
        k = GaussianKernel(bandwidth=1.0)
        x = rng.standard_normal((23, 4))
        c = rng.standard_normal((11, 4))
        w = rng.standard_normal((11, 2))
        full = kernel_matvec(k, x, c, w, max_scalars=10**9)
        tiny = kernel_matvec(k, x, c, w, max_scalars=12)
        np.testing.assert_allclose(full, tiny, atol=1e-12)

    def test_weight_center_mismatch_raises(self, rng):
        k = GaussianKernel(bandwidth=1.0)
        with pytest.raises(ConfigurationError, match="weights"):
            kernel_matvec(
                k,
                rng.standard_normal((5, 3)),
                rng.standard_normal((4, 3)),
                rng.standard_normal(7),
            )

    def test_predict_alias(self, rng):
        """Model-centric prediction is the streamed matvec itself."""
        k = GaussianKernel(bandwidth=1.0)
        x = rng.standard_normal((8, 3))
        c = rng.standard_normal((6, 3))
        w = rng.standard_normal((6, 2))
        np.testing.assert_array_equal(
            KernelModel(k, c, w).predict(x), kernel_matvec(k, x, c, w)
        )

    @pytest.mark.parametrize("weights_shape", [(6,), (6, 2)])
    def test_zero_rows(self, rng, weights_shape):
        k = GaussianKernel(bandwidth=1.0)
        w = rng.standard_normal(weights_shape)
        out = kernel_matvec(
            k, np.empty((0, 3)), rng.standard_normal((6, 3)), w
        )
        assert out.shape == (0,) + weights_shape[1:]
