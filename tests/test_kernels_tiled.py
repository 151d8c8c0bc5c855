"""Row-tiled radial kernel blocks on the NumPy backend.

:meth:`NumpyBackend._kernel_tail` runs the elementwise chain after a
block's GEMM in row tiles over the calling thread and the process's
helper threads.  Every case here checks that the tiled block is bitwise
equal to the single pass of the base class, with the tile constant
shrunk so that small shapes are cut into many tiles.  The thread budget
is the process's BLAS thread count, so running the module once as is
and once under ``OPENBLAS_NUM_THREADS=1`` covers threaded and serial
tiles; ``test_forced_helpers_match_single_pass`` forces helpers on any
host.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import ArrayBackend, NumpyBackend, use_backend
from repro.backend import numpy_backend
from repro.backend import threads as threads_module
from repro.config import use_precision
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.kernels.ops import block_workspace, center_sq_norms, kernel_matvec
from repro.linalg.eigensystem import top_eigensystem
from repro.linalg import nystrom as nystrom_module
from repro.linalg.nystrom import nystrom_extension
from repro.serve.server import _serve_batch_task

#: Shrunk tile: 3 rows of a 4001-column float64 block, 6 of float32.
TILE_BYTES = 100_000

KERNELS = [GaussianKernel(bandwidth=4.0), LaplacianKernel(bandwidth=4.0)]
KERNEL_IDS = ["gaussian", "laplacian"]


class _SinglePass(NumpyBackend):
    """NumPy with the base class's one-pass tail: the reference."""

    _kernel_tail = ArrayBackend._kernel_tail


SINGLE = _SinglePass()


@pytest.fixture(autouse=True)
def _tiles(monkeypatch):
    monkeypatch.setattr(numpy_backend, "_TILE_BYTES", TILE_BYTES)


@pytest.fixture
def tile_calls(monkeypatch):
    """Tile counts of every :func:`run_tiles` call the backend makes."""
    calls: list[int] = []
    real = numpy_backend.run_tiles

    def spy(n_tiles, work):
        calls.append(n_tiles)
        return real(n_tiles, work)

    monkeypatch.setattr(numpy_backend, "run_tiles", spy)
    return calls


def _points(n_x: int, n_z: int, d: int = 7, dtype=np.float64):
    rng = np.random.default_rng(n_x * 1000 + n_z)
    return (
        rng.standard_normal((n_x, d)).astype(dtype),
        rng.standard_normal((n_z, d)).astype(dtype),
    )


def _rows_per_tile(n_z: int, dtype) -> int:
    return max(1, TILE_BYTES // (n_z * np.dtype(dtype).itemsize))


def _both(kernel, x, z, **kwargs):
    """The tiled block and the single-pass reference for one call."""
    profile, scale = kernel.fused_spec
    dtype = kernel._eval_dtype(x, z)
    blocks = []
    for bk in (NumpyBackend(), SINGLE):
        with use_backend(bk):
            blocks.append(
                bk.fused_kernel_block(
                    x, z, profile=profile, scale=scale, dtype=dtype, **kwargs
                )
            )
    return blocks


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "n_x, n_z",
    [
        (37, 4001),  # not a multiple of the tile, odd n
        (2, 4001),  # fewer rows than threads
        (1, 4001),  # one row
        (64, 1000),  # many tiles of whole rows
    ],
)
def test_tiled_block_is_bitwise_single_pass(kernel, dtype, n_x, n_z):
    x, z = _points(n_x, n_z, dtype=dtype)
    tiled, ref = _both(kernel, x, z)
    assert tiled.dtype == ref.dtype == dtype
    np.testing.assert_array_equal(tiled, ref)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_forced_helpers_match_single_pass(monkeypatch, kernel, dtype):
    import threading
    import time

    monkeypatch.setattr(threads_module, "blas_threads", lambda: 3)
    runners = set()
    real = ArrayBackend._kernel_tail

    def recording(self, *args):
        runners.add(threading.get_ident())
        time.sleep(0.002)  # leave the helpers time to start
        return real(self, *args)

    monkeypatch.setattr(ArrayBackend, "_kernel_tail", recording)
    x, z = _points(61, 4001, dtype=dtype)
    tiled, ref = _both(kernel, x, z)
    np.testing.assert_array_equal(tiled, ref)
    assert len(runners) > 1  # helper threads formed tiles


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_out_buffer_and_precomputed_norms(kernel, dtype):
    x, z = _points(29, 4001, dtype=dtype)
    xn = np.einsum("ij,ij->i", x, x)
    zn = np.einsum("ij,ij->i", z, z)
    bufs = [np.empty((29, 4001), dtype=dtype) for _ in range(2)]
    tiled, ref = _both(kernel, x, z)
    for norms in ({}, {"x_sq_norms": xn, "z_sq_norms": zn}):
        profile, scale = kernel.fused_spec
        got = []
        for bk, buf in zip((NumpyBackend(), SINGLE), bufs):
            block = bk.fused_kernel_block(
                x, z, profile=profile, scale=scale, out=buf, dtype=dtype,
                **norms,
            )
            assert block is buf  # written into the caller's buffer
            got.append(block.copy())
        np.testing.assert_array_equal(got[0], got[1])
        np.testing.assert_array_equal(got[0], tiled)
    np.testing.assert_array_equal(tiled, ref)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_mixed_precision_blocks(kernel):
    x, z = _points(41, 4001)
    with use_precision("mixed"):
        tiled = kernel(x, z)
        with use_backend(SINGLE):
            ref = kernel(x, z)
    assert tiled.dtype == ref.dtype == np.float32
    np.testing.assert_array_equal(tiled, ref)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_tile_threshold(kernel, dtype, tile_calls):
    rows = _rows_per_tile(4001, dtype)
    x, z = _points(rows + 1, 4001, dtype=dtype)
    below, ref_below = _both(kernel, x[:rows], z)
    assert tile_calls == []  # one tile: the single pass, no pool
    above, ref_above = _both(kernel, x, z)
    assert tile_calls == [2]
    np.testing.assert_array_equal(below, ref_below)
    np.testing.assert_array_equal(above, ref_above)


def test_single_row_never_touches_the_pool(monkeypatch, tile_calls):
    monkeypatch.setattr(numpy_backend, "_TILE_BYTES", 8)  # under one row
    x, z = _points(1, 4001)
    kernel = KERNELS[0]
    kernel(x, z)
    assert tile_calls == []


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_matvec_paths_match_single_pass(kernel, tile_calls):
    """The streamed matvec, over the whole batch and over a serving
    tick's per-request segments, tiles its blocks and keeps the bits."""
    x, z = _points(50, 4001)
    w = np.random.default_rng(1).standard_normal((4001, 3))
    budget = 20 * 4001  # 20-row blocks: several tiles each
    bounds = ((0, 1), (1, 30), (30, 40), (40, 50))

    def paths():
        whole = kernel_matvec(kernel, x, z, w, max_scalars=budget)
        worker = SimpleNamespace(
            centers=z, weights=w, center_sq_norms=center_sq_norms(kernel, z)
        )
        segments = _serve_batch_task(worker, kernel, x, bounds, budget)
        return whole, segments

    tiled, segments = paths()
    assert tile_calls
    with use_backend(SINGLE):
        ref, ref_segments = paths()
    np.testing.assert_array_equal(tiled, ref)
    np.testing.assert_array_equal(segments, ref_segments)


def test_op_counts_and_workspace_peak_unchanged():
    x, z = _points(60, 4001)
    w = np.random.default_rng(2).standard_normal((4001, 2))
    kernel = KERNELS[0]
    peaks, meters = [], []
    for bk in (NumpyBackend(), SINGLE):
        block_workspace().reset()
        with use_backend(bk), meter_scope() as meter:
            kernel_matvec(kernel, x, z, w, max_scalars=30 * 4001)
            kernel(x, z)
        peaks.append(block_workspace().peak_scalars)
        meters.append(meter.as_dict())
    assert peaks[0] == peaks[1] == 30 * 4001
    assert meters[0] == meters[1]


# --------------------------------------------------------------------------
# Symmetric blocks stay on syrk
# --------------------------------------------------------------------------
# ``x @ x.T`` goes to BLAS syrk, whose last bits differ from the general
# GEMM's at 150 x 32 rows; these pin the symmetric block, and so the
# Nyström subsample matrix, to the syrk route.


def _syrk_reference(kernel, points):
    """The block as formed through ``points @ points.T`` (BLAS syrk)."""
    sq = points @ points.T
    norms = np.einsum("ij,ij->i", points, points)
    sq *= -2.0
    sq += norms[:, None]
    sq += norms[None, :]
    np.maximum(sq, 0.0, out=sq)
    return SINGLE._apply_profile(sq, *kernel.fused_spec)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_symmetric_block_matches_syrk_route(kernel):
    x = np.random.default_rng(3).standard_normal((300, 32))
    points = x[np.sort(np.random.default_rng(4).choice(300, 150, replace=False))]
    ref = _syrk_reference(kernel, points)
    np.testing.assert_array_equal(kernel(points, points), ref)
    np.testing.assert_array_equal(kernel(points), ref)


def test_nystrom_subsample_matrix_unchanged(monkeypatch):
    kernel = KERNELS[0]
    x = np.random.default_rng(5).standard_normal((400, 32))
    seen = []

    def spy(k_s, q, **kwargs):
        seen.append(np.array(k_s))
        return top_eigensystem(k_s, q, **kwargs)

    monkeypatch.setattr(nystrom_module, "top_eigensystem", spy)
    ext = nystrom_extension(kernel, x, 150, 10, seed=0)
    np.testing.assert_array_equal(
        seen[0], _syrk_reference(kernel, x[ext.indices])
    )
