"""The numeric rules of one EigenPro step, each pinned to its formula.

:func:`repro.backend.master_matmul` is the step's one contraction (the
serial prediction GEMM, every shard's partial and the correction's
``g^T Phi``) and :func:`repro.config.master_dtype` its one
accumulate-dtype rule (the master weights and the host all-reduce).
These cases hold both to the written-out formulas bit for bit under
every precision tier, and pin the one place
where the sharded step moves different bytes under mixed precision: a
worker lifts its float32 partial to float64 before the all-reduce, and
the sum keeps the bits of lifting inside the all-reduce.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.backend import master_matmul
from repro.config import (
    Precision,
    accumulate_dtype,
    compute_dtype,
    master_dtype,
    mixed_precision_active,
    use_precision,
)
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel
from repro.shard import ProcessTransport, ShardGroup, allreduce_sum

KERNEL = GaussianKernel(bandwidth=2.5)

TIERS = [
    None,
    "float64",
    "float32",
    "mixed",
    Precision("half-mixed", np.float16, np.float32),
]
TIER_IDS = ["default", "float64", "float32", "mixed", "half-mixed"]


def _scope(tier):
    return use_precision(tier) if tier is not None else nullcontext()


def _written_out_contract(block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The contraction rule spelled out: under mixed precision a block
    in another dtype meets a downcast copy of ``w`` and the product is
    lifted; otherwise the block is cast to ``w``'s dtype."""
    if mixed_precision_active() and block.dtype != w.dtype:
        return (block @ w.astype(block.dtype)).astype(w.dtype)
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
            ("mixed", np.float32, np.float64, np.float64),
            # A float64-pinned kernel under mixed precision.
            ("mixed", np.float64, np.float64, np.float64),
        ],
        ids=["f64", "f32", "pinned-f32", "pinned-f32-explicit", "mixed",
             "mixed-pinned-f64"],
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

    def test_mixed_runs_the_product_in_the_block_dtype(self, operands):
        """Under mixed precision the heavy product is float32: the lifted
        result differs from the float64 product, which a cast-up block
        would give."""
        block, w = operands
        block = block.astype(np.float32)
        with use_precision("mixed"):
            got = master_matmul(block, w)
        assert not np.array_equal(got, block.astype(np.float64) @ w)
        np.testing.assert_allclose(got, block.astype(np.float64) @ w,
                                   rtol=1e-4, atol=1e-4)

    def test_transposed_block(self, operands):
        """The correction contracts ``Phi^T`` with the residuals."""
        block, g = operands[0].T.astype(np.float32), np.ones((37, 3))
        with use_precision("mixed"):
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
            block, w = block.astype(dtype), w.astype(master_dtype(dtype))
            got = master_matmul(block.T, w.T, w_first=True).T
            if mixed_precision_active() and block.dtype != w.dtype:
                want = (w.T.astype(block.dtype) @ block.T).astype(w.dtype).T
            else:
                want = (w.T @ block.T.astype(w.dtype)).T
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
            with use_precision("mixed"):
                master_matmul(block.astype(np.float32), w)
        assert meter.as_dict() == {}


class TestMasterDtype:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_matches_the_written_out_rule(self, tier, dtype):
        with _scope(tier):
            want = (
                np.result_type(dtype, accumulate_dtype())
                if mixed_precision_active()
                else np.dtype(dtype)
            )
            assert master_dtype(dtype) == want

    @pytest.mark.parametrize(
        "tier,dtype,expected",
        [
            (None, np.float32, np.float32),
            (None, np.float64, np.float64),
            ("float64", np.float32, np.float32),
            ("float32", np.float64, np.float64),
            ("mixed", np.float32, np.float64),
            ("mixed", np.float64, np.float64),
            (TIERS[-1], np.float16, np.float32),
            (TIERS[-1], np.float64, np.float64),
        ],
    )
    def test_values(self, tier, dtype, expected):
        with _scope(tier):
            assert master_dtype(dtype) == np.dtype(expected)


# Module-level tasks (picklable for the process transport).
def _f32_partial_task(worker, x):
    """A shard's mixed-precision partial left in float32 (the all-reduce
    lifts it)."""
    kb = KERNEL(x, worker.centers)
    return kb @ np.asarray(worker.weights).astype(kb.dtype)


def _lifted_partial_task(worker, x):
    """The same partial through the step's contraction rule: lifted to
    float64 on the worker."""
    return master_matmul(KERNEL(x, worker.centers), np.asarray(worker.weights))


@pytest.mark.parametrize(
    "transport",
    [
        "thread",
        pytest.param("process", marks=pytest.mark.skipif(
            not ProcessTransport.is_available(),
            reason="platform lacks fork-safe shared memory",
        )),
    ],
)
def test_worker_lifted_partials_reduce_to_the_same_bits(transport):
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((203, 6))
    weights = rng.standard_normal((203, 4))
    x = rng.standard_normal((29, 6))
    group = ShardGroup.build(centers, weights, g=2, transport=transport)
    try:
        with use_precision("mixed"):
            parts32 = group.map(_f32_partial_task, x)
            lifted = group.map_allreduce(_lifted_partial_task, x)
            legacy = group.map_allreduce(_f32_partial_task, x)
    finally:
        group.close()
    assert all(np.asarray(p).dtype == np.float32 for p in parts32)
    lifted, legacy = np.asarray(lifted), np.asarray(legacy)
    assert lifted.dtype == legacy.dtype == np.float64
    np.testing.assert_array_equal(lifted, legacy)
    with use_precision("mixed"):
        host = np.asarray(allreduce_sum(parts32))
    np.testing.assert_array_equal(lifted, host)
