"""Edge-case regression tests for the blocked-operation layer.

Covers :func:`repro.kernels.ops.row_block_sizes` corner cases and the
memory contract of streamed prediction
(:func:`~repro.kernels.ops.kernel_matvec`): streamed temporaries must
respect the scalar budget (:data:`~repro.config.DEFAULT_BLOCK_SCALARS` by
default), which the shared :class:`~repro.kernels.ops.BlockWorkspace`
makes directly observable via its per-thread high-water mark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_BLOCK_SCALARS
from repro.core.eigenpro2 import EigenPro2
from repro.core.model import KernelModel
from repro.device.presets import titan_xp
from repro.exceptions import ConfigurationError
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.kernels.ops import (
    block_workspace,
    kernel_matvec,
    row_block_sizes,
)

KW = dict(s=80, batch_size=32, seed=0, damping=0.9)


class TestRowBlockSizesEdges:
    def test_zero_rows_empty(self):
        assert row_block_sizes(0, 10**9, max_scalars=1) == []

    def test_zero_rows_zero_cols(self):
        assert row_block_sizes(0, 0) == []

    def test_zero_cols_counts_as_width_one(self):
        # Degenerate zero-width blocks are scheduled as if one scalar per
        # row, so the budget still bounds block height.
        sizes = row_block_sizes(7, 0, max_scalars=5)
        assert sum(sizes) == 7
        assert max(sizes) <= 5

    def test_pathological_wide_row(self):
        """One row wider than the whole budget still gets scheduled —
        one row at a time, the documented over-budget escape hatch."""
        sizes = row_block_sizes(3, 1_000, max_scalars=10)
        assert sizes == [1, 1, 1]

    def test_budget_exactly_divisible(self):
        """Budget an exact multiple of the width: full blocks, no runt."""
        sizes = row_block_sizes(12, 5, max_scalars=20)  # 4 rows per block
        assert sizes == [4, 4, 4]
        assert all(b * 5 <= 20 for b in sizes)

    def test_budget_equals_one_row(self):
        assert row_block_sizes(4, 6, max_scalars=6) == [1, 1, 1, 1]

    def test_runt_block_when_not_divisible(self):
        sizes = row_block_sizes(10, 3, max_scalars=9)  # 3 rows per block
        assert sizes == [3, 3, 3, 1]

    def test_rejects_negative_cols(self):
        with pytest.raises(ConfigurationError):
            row_block_sizes(5, -2)


class TestWorkspaceBudget:
    @pytest.fixture(autouse=True)
    def fresh_workspace(self):
        block_workspace().reset()
        yield
        block_workspace().reset()

    def test_predict_in_blocks_respects_default_budget(self):
        """Peak temporary allocation stays under DEFAULT_BLOCK_SCALARS."""
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((300, 8))
        w = rng.standard_normal((300, 2))
        x = rng.standard_normal((500, 8))
        KernelModel(GaussianKernel(bandwidth=2.0), centers, w).predict(x)
        assert 0 < block_workspace().peak_scalars <= DEFAULT_BLOCK_SCALARS

    def test_tight_budget_respected(self):
        rng = np.random.default_rng(1)
        centers = rng.standard_normal((40, 4))
        w = rng.standard_normal(40)
        x = rng.standard_normal((100, 4))
        budget = 200  # 5 rows of 40 columns per block
        kernel_matvec(
            GaussianKernel(bandwidth=2.0), x, centers, w, max_scalars=budget
        )
        assert block_workspace().peak_scalars <= budget

    def test_pathological_row_exceeds_by_one_row_only(self):
        """A single row wider than the budget allocates exactly one row."""
        rng = np.random.default_rng(2)
        centers = rng.standard_normal((50, 3))
        w = rng.standard_normal(50)
        x = rng.standard_normal((4, 3))
        kernel_matvec(
            GaussianKernel(bandwidth=2.0), x, centers, w, max_scalars=10
        )
        assert block_workspace().peak_scalars == 50  # one (1, 50) row block

    def test_buffer_reused_across_blocks(self):
        """Streaming many equal blocks must not grow the pool."""
        rng = np.random.default_rng(3)
        centers = rng.standard_normal((64, 4))
        w = rng.standard_normal((64, 1))
        x = rng.standard_normal((1024, 4))
        kernel_matvec(
            GaussianKernel(bandwidth=2.0), x, centers, w, max_scalars=1024
        )
        # 16-row blocks of 64 columns: exactly one 1024-scalar buffer.
        assert block_workspace().peak_scalars == 1024

    def test_results_unchanged_by_reuse(self):
        """Workspace recycling must not corrupt later blocks (values are
        contracted before the buffer is reused)."""
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((30, 5))
        w = rng.standard_normal((30, 2))
        x = rng.standard_normal((90, 5))
        k = LaplacianKernel(bandwidth=1.5)
        tiny = kernel_matvec(k, x, centers, w, max_scalars=60)
        full = kernel_matvec(k, x, centers, w, max_scalars=10**9)
        np.testing.assert_allclose(tiny, full, atol=1e-12)

    def test_reset_clears_peak(self):
        rng = np.random.default_rng(5)
        kernel_matvec(
            GaussianKernel(bandwidth=2.0),
            rng.standard_normal((10, 3)),
            rng.standard_normal((10, 3)),
            rng.standard_normal(10),
        )
        assert block_workspace().peak_scalars > 0
        block_workspace().reset()
        assert block_workspace().peak_scalars == 0

    def test_trainer_holds_one_batch_block(self, small_dataset):
        """End to end: a training epoch keeps one (m, n) batch block."""
        peaks = []

        class Probe(EigenPro2):
            def _run_epoch(self, *args):
                super()._run_epoch(*args)
                peaks.append(block_workspace().peak_scalars)

        ds = small_dataset
        trainer = Probe(GaussianKernel(bandwidth=2.5), device=titan_xp(), **KW)
        trainer.fit(ds.x_train, ds.y_train, epochs=1)
        n = ds.x_train.shape[0]
        assert peaks == [trainer.batch_size_ * n]
