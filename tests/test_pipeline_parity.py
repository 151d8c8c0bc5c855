"""Parity suite for the pipelined sharded step schedule.

:class:`~repro.shard.ShardedEigenPro2` has one step schedule: it
prefetches the formation of step ``t+1`` behind the fused contraction +
all-reduce of step ``t``.  That overlap earns its keep only if it is
*invisible* to the numbers: the sharded fit must land on the weights of
the plain serial :class:`~repro.core.eigenpro2.EigenPro2` loop, because
the prefetched block depends only on data the update never writes.

Also covered: the :class:`~repro.kernels.ops.BlockWorkspace` pooling
contract (one recycled buffer per key, a second only for a second key)
and the ``debug_workspace`` assertion that pooled scratch cannot be
silently discarded.

Set ``REPRO_SHARD_G`` to restrict the shard counts exercised (same
convention as ``tests/test_shard_parity.py``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.config import debug_workspace
from repro.core.eigenpro2 import EigenPro2
from repro.device.presets import titan_xp
from repro.exceptions import ConfigurationError
from repro.kernels import GaussianKernel
from repro.kernels.ops import BlockWorkspace, block_workspace
from repro.shard import ShardedEigenPro2

_ENV_G = os.environ.get("REPRO_SHARD_G")
G_VALUES = [int(_ENV_G)] if _ENV_G else [1, 2, 4]

shard_counts = pytest.mark.parametrize("g", G_VALUES)

KW = dict(s=80, batch_size=32, seed=0, damping=0.9)


def _fit(trainer, ds, epochs=2):
    trainer.fit(ds.x_train, ds.y_train, epochs=epochs)
    return trainer


class TestPipelinedEigenPro2:
    def test_max_iterations_respected(self, small_dataset):
        """The iteration cap stops mid-epoch, and a capped fit is
        reproducible bit for bit."""
        ds = small_dataset
        a = EigenPro2(GaussianKernel(bandwidth=2.5), device=titan_xp(), **KW)
        a.fit(ds.x_train, ds.y_train, epochs=5, max_iterations=7)
        b = EigenPro2(GaussianKernel(bandwidth=2.5), device=titan_xp(), **KW)
        b.fit(ds.x_train, ds.y_train, epochs=5, max_iterations=7)
        assert a.history_.final.iterations == 7
        assert b.history_.final.iterations == 7
        np.testing.assert_array_equal(
            np.asarray(b._alpha), np.asarray(a._alpha)
        )


class TestPipelinedShardedEigenPro2:
    @shard_counts
    def test_pipelined_matches_unsharded_serial(self, small_dataset, g):
        """The full cross-check: pipelined sharded vs serial unsharded."""
        ds = small_dataset
        ref = _fit(
            EigenPro2(GaussianKernel(bandwidth=2.5), device=titan_xp(), **KW),
            ds,
        )
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=g,
            device=titan_xp(),
            **KW,
        )
        try:
            _fit(trainer, ds)
            scale = max(float(np.abs(np.asarray(ref._alpha)).max()), 1.0)
            np.testing.assert_allclose(
                np.asarray(trainer._alpha),
                np.asarray(ref._alpha),
                atol=1e-6 * scale,
                rtol=0,
            )
        finally:
            trainer.close()


class TestWorkspaceDoubleBuffer:
    @pytest.fixture(autouse=True)
    def fresh_workspace(self):
        block_workspace().reset()
        yield
        block_workspace().reset()

    def test_two_slots_two_buffers(self):
        """Two pool keys keep exactly two resident buffers: re-requesting
        one key recycles its buffer and leaves the other untouched."""
        ws = BlockWorkspace()
        bk = NumpyBackend()
        a0 = ws.get(bk, 8, 16, np.float64)
        a1 = ws.get(bk, 8, 16, np.float32)
        assert ws.peak_scalars == 2 * 8 * 16
        a0[...] = 1.0
        a1[...] = 2.0
        b0 = ws.get(bk, 8, 16, np.float64)
        assert np.shares_memory(b0, a0)
        assert not np.shares_memory(b0, a1)
        assert float(a1.min()) == 2.0
        # Many more alternating requests never grow the pool.
        for t in range(10):
            ws.get(bk, 8, 16, (np.float64, np.float32)[t % 2])
        assert ws.peak_scalars == 2 * 8 * 16

    def test_default_slot_single_buffer(self):
        ws = BlockWorkspace()
        bk = NumpyBackend()
        for _ in range(5):
            ws.get(bk, 8, 16, np.float64)
        assert ws.peak_scalars == 8 * 16


class TestWorkspaceDebugFlag:
    def test_discarded_scratch_raises_under_debug(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        kernel = GaussianKernel(bandwidth=1.0)
        bad = np.empty((2, 2))  # wrong shape
        with debug_workspace():
            with pytest.raises(ConfigurationError):
                kernel(x, x, out=bad)
        # With the flag off (forced — CI may export REPRO_DEBUG_WORKSPACE)
        # the historical fall-back-to-allocate holds.
        with debug_workspace(False):
            out = kernel(x, x, out=bad)
        assert out.shape == (4, 4)

    def test_wrong_dtype_raises_under_debug(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        kernel = GaussianKernel(bandwidth=1.0)
        bad = np.empty((4, 4), dtype=np.float32)
        with debug_workspace():
            with pytest.raises(ConfigurationError):
                kernel(x, x, out=bad)

    def test_streaming_paths_clean_under_debug(self, small_dataset):
        """The hot paths request correctly-dtyped scratch up front, so the
        debug assertions never fire on them — unsharded and sharded
        training alike."""
        from repro.kernels.ops import kernel_matvec

        ds = small_dataset
        rng = np.random.default_rng(1)
        w = rng.standard_normal(ds.x_train.shape[0])
        with debug_workspace():
            kernel_matvec(
                GaussianKernel(bandwidth=2.5), ds.x_test, ds.x_train, w
            )
            trainer = EigenPro2(
                GaussianKernel(bandwidth=2.5), device=titan_xp(), **KW
            )
            trainer.fit(ds.x_train, ds.y_train, epochs=1)
            sharded = ShardedEigenPro2(
                GaussianKernel(bandwidth=2.5),
                n_shards=2,
                device=titan_xp(),
                **KW,
            )
            try:
                sharded.fit(ds.x_train, ds.y_train, epochs=1)
            finally:
                sharded.close()
