"""Contract tests for the one streamed matvec and its serving segments.

:func:`~repro.kernels.ops.kernel_matvec` plans its row blocks with
:func:`~repro.kernels.ops.row_block_sizes` and forms each block with the
ops a dense kernel call uses, so a single-block call is *bitwise* the
dense ``kernel(x, z) @ w`` in the resolved output dtype.  The serving
tick (:func:`repro.shard.ops._serve_batch_task`) evaluates each run of
equal-length request segments with one such call whose blocks are the
segments, so each segment's rows are bitwise-equal to evaluating that
segment alone — the invariant the serving engine's batched-vs-solo
parity rests on.  (The test names are those of the segment plan object
these cases first pinned.)
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import get_backend
from repro.exceptions import ConfigurationError
from repro.instrument import OpMeter, meter_scope
from repro.kernels import CauchyKernel, GaussianKernel, LaplacianKernel
from repro.kernels.ops import center_sq_norms, kernel_matvec
from repro.shard.ops import _serve_batch_task

KERNELS = [
    GaussianKernel(bandwidth=2.0),
    LaplacianKernel(bandwidth=3.0),
    CauchyKernel(bandwidth=2.5),  # no fused spec: the kernel's own _cross
]


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(42)
    z = rng.standard_normal((151, 6))
    w2 = rng.standard_normal((151, 3))
    x = rng.standard_normal((40, 6))
    return z, w2, x


def _dense(kernel, x, z, w):
    """The unstreamed reference: one kernel call, one product."""
    return get_backend().matmul(kernel(x, z), w)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("weights_1d", [False, True])
def test_plan_matches_kernel_matvec(arrays, kernel, dtype, weights_1d):
    """One block: output dtype, shape and bits of the dense product."""
    z, w2, x = arrays
    z, x = z.astype(dtype), x.astype(dtype)
    w = (w2[:, 0] if weights_1d else w2).astype(dtype)
    got = kernel_matvec(kernel, x, z, w)
    assert got.dtype == dtype
    assert got.shape == (x.shape[0],) + w.shape[1:]
    np.testing.assert_array_equal(got, _dense(kernel, x, z, w))


def test_plan_matches_multiblock(arrays):
    """A tight budget (several blocks per call) evaluates each block as
    a solo call over its rows."""
    z, w2, x = arrays
    kernel = GaussianKernel(bandwidth=2.0)
    budget = z.shape[0] * 4  # 4 rows per block
    got = kernel_matvec(kernel, x, z, w2, max_scalars=budget)
    for lo in range(0, x.shape[0], 4):
        np.testing.assert_array_equal(
            got[lo:lo + 4], _dense(kernel, x[lo:lo + 4], z, w2)
        )


def test_plan_dtype_mismatch_falls_back(arrays):
    """float32 points against float64 centers compute in float64 — the
    dense product over the promoted points, bit for bit."""
    z, w2, x = arrays
    kernel = GaussianKernel(bandwidth=2.0)
    x32 = x.astype(np.float32)
    got = kernel_matvec(kernel, x32, z, w2)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(
        got, _dense(kernel, x32.astype(np.float64), z, w2)
    )


def test_plan_weight_rows_mismatch_raises(arrays):
    z, w2, x = arrays
    with pytest.raises(ConfigurationError, match="rows"):
        kernel_matvec(GaussianKernel(bandwidth=2.0), x, z, w2[:-1])


def test_kernel_matvec_delegates_to_plan(arrays, monkeypatch):
    """How a block is formed is settled once per call: a fused radial
    kernel binds the backend's prepared contraction once and runs it on
    every block; a kernel without a fused form calls its own
    ``__call__`` on every block, in pooled scratch."""
    z, w2, x = arrays
    budget = z.shape[0] * 16  # 16 + 16 + 8 rows
    bk = get_backend()
    kernel_calls, prepared_calls = [], []
    real_call = CauchyKernel.__call__
    real_prepare = type(bk).prepared_fused_matvec

    def spy_call(self, xb, zb=None, out=None, **kwargs):
        kernel_calls.append((type(self).__name__, out is not None))
        return real_call(self, xb, zb, out=out, **kwargs)

    def spy_prepare(self, *args, **kwargs):
        run = real_prepare(self, *args, **kwargs)

        def counted(*run_args):
            prepared_calls.append(len(run_args[0]))
            return run(*run_args)

        return counted

    monkeypatch.setattr(CauchyKernel, "__call__", spy_call)
    monkeypatch.setattr(LaplacianKernel, "__call__", spy_call)
    monkeypatch.setattr(type(bk), "prepared_fused_matvec", spy_prepare)
    kernel_matvec(CauchyKernel(bandwidth=2.5), x, z, w2, max_scalars=budget)
    assert kernel_calls == [("CauchyKernel", True)] * 3
    assert prepared_calls == []
    kernel_calls.clear()
    kernel_matvec(LaplacianKernel(bandwidth=3.0), x, z, w2, max_scalars=budget)
    assert kernel_calls == []
    assert prepared_calls == [16, 16, 8]


# --------------------------------------------------------------------------
# serving segments
# --------------------------------------------------------------------------


def _bounds_for(rows: list[int]) -> tuple[tuple[int, int], ...]:
    bounds, lo = [], 0
    for r in rows:
        bounds.append((lo, lo + r))
        lo += r
    return tuple(bounds)


def _worker(kernel, z, w):
    """A stand-in shard worker holding the whole model."""
    return SimpleNamespace(
        centers=z, weights=w, center_sq_norms=center_sq_norms(kernel, z)
    )


def _run_segments(kernel, z, w, x, bounds, max_scalars=10**8):
    return _serve_batch_task(_worker(kernel, z, w), kernel, x, bounds,
                             max_scalars)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
@pytest.mark.parametrize("weights_1d", [False, True])
def test_run_segments_bitwise_per_segment(arrays, kernel, weights_1d):
    """Each segment's rows == evaluating that segment alone (incl. the
    no-fused-spec kernel and zero-length segments)."""
    z, w2, x = arrays
    w = w2[:, 0] if weights_1d else w2
    bounds = _bounds_for([3, 0, 11, 1, 0, 25])
    assert bounds[-1][1] == x.shape[0]
    out = _run_segments(kernel, z, w, x, bounds)
    for lo, hi in bounds:
        np.testing.assert_array_equal(
            out[lo:hi], kernel_matvec(kernel, x[lo:hi], z, w)
        )
    # A single full-range segment is exactly the bulk call.
    np.testing.assert_array_equal(
        _run_segments(kernel, z, w, x, ((0, x.shape[0]),)),
        kernel_matvec(kernel, x, z, w),
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
def test_run_segments_equal_length_runs(arrays, kernel):
    """Consecutive equal-length segments (zero-length ones between them
    included) share one matvec call whose blocks are the segments; a
    segment wider than the budget streams alone.  Every segment still
    matches its solo evaluation."""
    z, w2, x = arrays
    budget = z.shape[0] * 8  # 8 rows per block
    bounds = _bounds_for([1, 1, 0, 1, 2, 2, 1, 4, 4, 0, 4, 20])
    assert bounds[-1][1] == x.shape[0]
    out = _run_segments(kernel, z, w2, x, bounds, max_scalars=budget)
    for lo, hi in bounds:
        np.testing.assert_array_equal(
            out[lo:hi],
            kernel_matvec(kernel, x[lo:hi], z, w2, max_scalars=budget),
        )


def test_run_segments_multiblock_segment(arrays):
    """A segment larger than one block budget streams internally and
    still matches its solo evaluation."""
    z, w2, x = arrays
    kernel = GaussianKernel(bandwidth=2.0)
    budget = z.shape[0] * 4  # ~4 rows per block, segments span blocks
    bounds = _bounds_for([17, 23])
    out = _run_segments(kernel, z, w2, x, bounds, max_scalars=budget)
    for lo, hi in bounds:
        np.testing.assert_array_equal(
            out[lo:hi],
            kernel_matvec(kernel, x[lo:hi], z, w2, max_scalars=budget),
        )


def test_run_segments_empty_bounds(arrays):
    z, w2, x = arrays
    out = _run_segments(GaussianKernel(bandwidth=2.0), z, w2, x[:0], ())
    assert out.shape == (0, w2.shape[1])


def test_run_segments_dtype_mismatch_fallback(arrays):
    """float32 segments against float64 centers: still bitwise per
    segment."""
    z, w2, x = arrays
    kernel = GaussianKernel(bandwidth=2.0)
    x32 = x.astype(np.float32)
    bounds = _bounds_for([8, 0, 32])
    out = _run_segments(kernel, z, w2, x32, bounds)
    for lo, hi in bounds:
        np.testing.assert_array_equal(
            out[lo:hi], kernel_matvec(kernel, x32[lo:hi], z, w2)
        )


def test_run_segments_op_counts_match_bulk(arrays):
    """Segmented evaluation records the same shape-derived op counts as
    one bulk call."""
    z, w2, x = arrays
    kernel = GaussianKernel(bandwidth=2.0)
    bulk_meter, seg_meter = OpMeter(), OpMeter()
    with meter_scope(bulk_meter):
        kernel_matvec(kernel, x, z, w2)
    with meter_scope(seg_meter):
        _run_segments(kernel, z, w2, x, _bounds_for([10, 0, 30]))
    assert bulk_meter.as_dict() == seg_meter.as_dict()
    assert bulk_meter.as_dict().get("kernel_eval", 0) > 0
