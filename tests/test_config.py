"""Tests for global configuration helpers."""

import numpy as np
import pytest

from repro.config import DEFAULT_DTYPE, get_precision, use_precision


class TestResolveDtype:
    """A precision request resolves to a floating dtype or is rejected."""

    def test_default(self):
        assert get_precision() == DEFAULT_DTYPE

    def test_float32_accepted(self):
        for request in (np.float32, "float32"):
            with use_precision(request) as precision:
                assert precision.compute == np.dtype(np.float32)
                assert get_precision() == np.dtype(np.float32)

    def test_non_float_rejected(self):
        with pytest.raises(TypeError, match="floating"):
            use_precision(np.int64)

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            use_precision("not-a-dtype")


class TestFloat32Path:
    """The paper trains in float32 on the GPU; the kernel layer must
    support it end to end."""

    def test_kernel_matrix_float32(self, rng):
        from repro.kernels import GaussianKernel

        k = GaussianKernel(bandwidth=2.0)
        x = rng.standard_normal((20, 4))
        with use_precision("float32"):
            out = k(x, x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, k(x, x), atol=1e-5)

    def test_training_with_float32_kernel(self, small_xy):
        from repro.baselines import KernelSGD
        from repro.kernels import GaussianKernel

        x, y = small_xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), batch_size=8, seed=0)
        with use_precision("float32"):
            t.fit(x, y, epochs=30)
            assert t.predict(x).dtype == np.float32
            assert t.mse(x, y) < 0.05
