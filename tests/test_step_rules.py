"""The numeric rules of one EigenPro step, each pinned to its formula.

:func:`repro.backend.master_matmul` is the step's one contraction (the
serial prediction GEMM, every shard's partial and the correction's
``g^T Phi``): the block is cast to the weights' dtype, then multiplied.
These cases hold it to the written-out formula bit for bit under every
precision tier.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.backend import master_matmul
from repro.config import compute_dtype, use_precision
from repro.instrument import meter_scope

TIERS = [None, "float64", "float32"]
TIER_IDS = ["default", "float64", "float32"]


def _scope(tier):
    return use_precision(tier) if tier is not None else nullcontext()


def _written_out_contract(block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The contraction rule spelled out: the block is cast to ``w``'s
    dtype."""
    return block.astype(w.dtype) @ w


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(5)
    return rng.standard_normal((37, 301)), rng.standard_normal((301, 5))


class TestMasterMatmul:
    @pytest.mark.parametrize(
        "tier,block_dtype,w_dtype,expected_dtype",
        [
            (None, np.float64, np.float64, np.float64),
            ("float32", np.float32, np.float32, np.float32),
            # A kernel pinned to float32 against float64 weights.
            (None, np.float32, np.float64, np.float64),
            ("float64", np.float32, np.float64, np.float64),
        ],
        ids=["f64", "f32", "pinned-f32", "pinned-f32-explicit"],
    )
    def test_bitwise_equal_to_the_written_out_rule(
        self, operands, tier, block_dtype, w_dtype, expected_dtype
    ):
        block, w = operands
        block, w = block.astype(block_dtype), w.astype(w_dtype)
        with _scope(tier):
            got = master_matmul(block, w)
            want = _written_out_contract(block, w)
        assert got.dtype == expected_dtype
        np.testing.assert_array_equal(got, want)

    def test_transposed_block(self, operands):
        """The correction contracts ``Phi^T`` with the residuals."""
        block, g = operands[0].T.astype(np.float32), np.ones((37, 3))
        got = master_matmul(block, g)
        want = _written_out_contract(block, g)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_kept_block_orientation(self, operands, tier):
        """The full-batch step contracts its kept block as
        ``(w^T block^T)^T``: the same rule, with the operands swapped."""
        block, w = operands
        with _scope(tier):
            dtype = compute_dtype(block)
            block, w = block.astype(dtype), w.astype(dtype)
            got = master_matmul(block.T, w.T, w_first=True).T
            want = (w.T @ block.T).T
        assert got.dtype == w.dtype
        np.testing.assert_array_equal(got, want)

    def test_kept_block_orientation_is_the_product(self, operands):
        block, w = operands
        got = master_matmul(block.T, w.T, w_first=True).T
        want = block @ w
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_records_no_ops(self, operands):
        block, w = operands
        with meter_scope() as meter:
            master_matmul(block, w)
            master_matmul(block.astype(np.float32), w)
        assert meter.as_dict() == {}
