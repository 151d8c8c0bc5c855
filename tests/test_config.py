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
                assert precision == np.dtype(np.float32)
                assert get_precision() == np.dtype(np.float32)

    def test_non_float_rejected(self):
        with pytest.raises(TypeError, match="floating"):
            use_precision(np.int64)

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            use_precision("not-a-dtype")

    def test_mixed_is_not_a_tier(self):
        """There are two tiers, float64 and float32: ``"mixed"`` is
        rejected like any other name that is not a float dtype."""

        def rejection(name):
            with pytest.raises(TypeError) as raised:
                use_precision(name)
            return str(raised.value).replace(repr(name), "<name>")

        assert rejection("mixed") == rejection("not-a-dtype")


class TestScopes:
    def test_out_of_order_exit_removes_its_own_entry(self):
        """Two scopes of equal values (an interned dtype, the shared
        NumPy backend) are told apart: an outer scope that exits first
        removes its own entry, and the innermost scope stays in force."""
        from repro.backend import NumpyBackend, get_backend, use_backend

        other = NumpyBackend()
        outer = [use_precision("float32"), use_backend("numpy")]
        middle = [use_precision("float64"), use_backend(other)]
        inner = [use_precision("float32"), use_backend("numpy")]
        for scope in outer + middle + inner:
            scope.__enter__()
        for scope in outer:
            scope.__exit__(None, None, None)
        try:
            assert get_precision() == np.float32
            assert get_backend() is not other
        finally:
            for scope in inner + middle:
                scope.__exit__(None, None, None)
        assert get_precision() == DEFAULT_DTYPE


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
