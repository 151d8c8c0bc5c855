"""Blocked, memory-bounded kernel-matrix operations.

The model function of a kernel machine is ``f(x) = sum_i alpha_i k(x_i, x)``
with up to ``n ≈ 10^6`` centers; the ``(n_x, n)`` cross kernel matrix for a
large evaluation set does not fit in memory.  All prediction and training
paths therefore stream over *row blocks* of the evaluation points, forming
one ``(b, n)`` kernel block at a time and immediately contracting it against
the weights.  Peak temporary memory is capped at a configurable number of
scalars, which is the paper's "more effective memory management" lever
(Section 6) and what lets the same code scale from unit tests to the
million-point benchmark configurations.

Two substrate features keep the streaming cheap:

- all array work dispatches through the active
  :class:`~repro.backend.ArrayBackend`, so the same code runs on NumPy or
  Torch (CPU/CUDA) arrays;
- successive ``(b, n)`` blocks are written into a per-thread
  :class:`BlockWorkspace` scratch buffer instead of being re-allocated per
  block — a measurable win even on the pure-NumPy path, since a 64 MB
  temporary per block otherwise churns the allocator and the page cache.

Streaming discipline
--------------------
A workspace buffer is recycled the moment the same ``(backend, device,
dtype)`` key is requested again, so a caller must finish consuming a
block before asking for the next one.  The unsharded trainer
(:mod:`repro.core.trainer`) consumes each step's block before forming the
next; the sharded trainer (:mod:`repro.shard`) prefetches the next block
on each shard worker, but FIFO worker order runs the current block's
contraction first.  Either way one buffer per key is ever resident.

On the NumPy backend a radial block's elementwise tail runs in row tiles
shared with the process's helper threads
(:mod:`repro.backend.threads`).  The tiles are views of the pooled block,
not buffers of their own, so the workspace peak is unchanged; and every
helper has finished its tile before the block former returns (or
raises), so no helper can still be writing into a buffer the next block
reuses.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.config import DEFAULT_BLOCK_SCALARS, compute_dtype
from repro.exceptions import ConfigurationError
from repro.instrument import record_ops
from repro.kernels.base import Kernel

__all__ = [
    "BlockWorkspace",
    "block_workspace",
    "center_sq_norms",
    "row_block_sizes",
    "kernel_matvec",
]


class BlockWorkspace:
    """Per-thread pool of reusable scratch buffers for streamed blocks.

    One flat buffer is kept per ``(backend, device, dtype)`` key, sized
    to the largest block requested so far under that key; block views
    are carved out of it with zero-copy reshapes.  Because a buffer is
    recycled the moment the next block is requested, callers must finish
    consuming a block (e.g. contract it against the weights) before
    asking for the next one — exactly the streaming discipline of
    :func:`kernel_matvec`.

    The scalar budget therefore caps the scratch held *per key*; a
    workload that touches several dtypes or backends on one thread keeps
    one buffer alive for each.  :attr:`peak_scalars` tracks the
    high-water mark of the *total* resident scratch across keys, which
    the memory-bound tests assert against
    :data:`~repro.config.DEFAULT_BLOCK_SCALARS`; call :meth:`reset` to
    drop everything.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _cache(self) -> dict:
        cache = getattr(self._local, "buffers", None)
        if cache is None:
            cache = {}
            self._local.buffers = cache
            self._local.peak = 0
        return cache

    @property
    def peak_scalars(self) -> int:
        """High-water mark of total resident scratch scalars (all pooled
        buffers summed) on this thread since the last :meth:`reset`."""
        self._cache()
        return self._local.peak

    def reset(self) -> None:
        """Drop this thread's buffers and zero its high-water mark."""
        self._local.buffers = {}
        self._local.peak = 0

    def get(
        self,
        bk: ArrayBackend,
        n_rows: int,
        n_cols: int,
        dtype: object,
    ) -> Any:
        """A ``(n_rows, n_cols)`` scratch block, reusing pooled memory."""
        dtype = np.dtype(dtype)
        cache = self._cache()
        # Device is part of the key: torch:cpu and torch:cuda must never
        # hand each other buffers.
        key = (bk.name, str(getattr(bk, "device", "")), dtype.str)
        need = int(n_rows) * int(n_cols)
        buf = cache.get(key)
        if buf is None or buf.shape[0] < need:
            buf = bk.empty((need,), dtype=dtype)
            cache[key] = buf
            total = sum(int(b.shape[0]) for b in cache.values())
            self._local.peak = max(self._local.peak, total)
        return buf[:need].reshape(n_rows, n_cols)


#: Process-wide workspace (internally per-thread); shared by all blocked
#: operations in this module.
_WORKSPACE = BlockWorkspace()


def block_workspace() -> BlockWorkspace:
    """The module's shared :class:`BlockWorkspace` (per-thread buffers)."""
    return _WORKSPACE


def row_block_sizes(
    n_rows: int, n_cols: int, max_scalars: int = DEFAULT_BLOCK_SCALARS
) -> list[int]:
    """Split ``n_rows`` into blocks so each ``(b, n_cols)`` chunk stays under
    ``max_scalars`` scalars.

    Always returns at least one row per block, so a single pathological
    row wider than the budget still gets processed (memory then exceeds
    the budget by that one row — the caller asked for an impossible split).

    Returns
    -------
    list[int]
        Block sizes summing to ``n_rows``; empty when ``n_rows == 0``.
    """
    if n_rows < 0 or n_cols < 0:
        raise ConfigurationError("row/column counts must be non-negative")
    if max_scalars <= 0:
        raise ConfigurationError(f"max_scalars must be positive, got {max_scalars}")
    if n_rows == 0:
        return []
    block = max(1, int(max_scalars // max(1, n_cols)))
    block = min(block, n_rows)
    n_full, rem = divmod(n_rows, block)
    sizes = [block] * n_full
    if rem:
        sizes.append(rem)
    return sizes


def iter_row_blocks(
    n_rows: int, n_cols: int, max_scalars: int = DEFAULT_BLOCK_SCALARS
) -> Iterator[slice]:
    """Yield row slices matching :func:`row_block_sizes`."""
    start = 0
    for size in row_block_sizes(n_rows, n_cols, max_scalars):
        yield slice(start, start + size)
        start += size


def center_sq_norms(kernel: Kernel, z: Any, bk: ArrayBackend | None = None) -> Any | None:
    """Row squared norms of the centers ``z`` when ``kernel`` consumes
    distances (shift-invariant); ``None`` otherwise.  Streaming callers
    (the blocked operations here, the training loop, shard executors)
    compute this once and pass it into every block evaluation via the
    kernel API's ``z_sq_norms`` argument."""
    if not kernel.is_shift_invariant:
        return None
    bk = bk if bk is not None else get_backend()
    return bk.row_sq_norms(z)


def kernel_matvec(
    kernel: Kernel,
    x: Any,
    centers: Any,
    weights: Any,
    max_scalars: int = DEFAULT_BLOCK_SCALARS,
    z_sq_norms: Any | None = None,
    x_sq_norms: Any | None = None,
) -> Any:
    """Compute ``K(x, centers) @ weights`` without materialising ``K``.

    This is the model evaluation ``f(x_j) = sum_i alpha_i k(c_i, x_j)``
    (Algorithm 1, step 2) for every row of ``x``, and the package's one
    streamed matvec: prediction, shard executors and every serving tick
    run this block loop.  Cost per the paper's model: ``n_x * n * d``
    kernel evaluations plus ``n_x * n * l`` GEMM operations, both on the
    active :class:`~repro.instrument.OpMeter`.  Each ``(b, n)`` block is
    formed into pooled :class:`BlockWorkspace` scratch, so it is never
    re-allocated per block (profiles needing an auxiliary array, e.g.
    Matérn ν ≥ 3/2, still allocate that one temporary), then contracted
    against the weights.

    How a block is formed is settled once per call.  A radial kernel
    with a :attr:`~repro.kernels.base.Kernel.fused_spec` runs the
    backend's :meth:`~repro.backend.ArrayBackend.prepared_fused_matvec`
    closure: the :meth:`~repro.backend.ArrayBackend.fused_kernel_block`
    chain and the GEMM with the centers, weights and profile bound once,
    the same ops on the same bits.  Every other kernel forms each block
    with its own ``__call__``.  Blocks, weights and the output all hold
    the working dtype of :func:`~repro.config.compute_dtype`.

    Parameters
    ----------
    weights:
        Shape ``(n,)`` or ``(n, l)``.
    z_sq_norms:
        Optional precomputed row squared norms of ``centers``.  Computed
        once here when omitted (for shift-invariant kernels); callers that
        hold fixed centers across many calls — every shard executor does —
        precompute once and pass it through.
    x_sq_norms:
        Optional precomputed row squared norms of ``x`` (full length
        ``n_x``), sliced per block.  Computed once here when omitted for
        shift-invariant kernels, so blocked evaluation stops recomputing
        row norms per block; pass it when the caller already holds the
        norms (the training loop does).

    Returns
    -------
    Array of shape ``(n_x,)`` or ``(n_x, l)`` matching ``weights``, native
    to the active backend.
    """
    bk = get_backend()
    dtype = compute_dtype(x, centers, weights)
    x = bk.as_2d(bk.asarray(x, dtype=dtype))
    centers = bk.as_2d(bk.asarray(centers, dtype=dtype))
    weights = bk.asarray(weights, dtype=dtype)
    n_x, n = x.shape[0], centers.shape[0]
    if weights.shape[0] != n:
        raise ConfigurationError(
            f"weights has {weights.shape[0]} rows but there are {n} centers"
        )
    squeeze = weights.ndim == 1
    w2 = weights[:, None] if squeeze else weights
    l = w2.shape[1]
    if z_sq_norms is None:
        z_sq_norms = center_sq_norms(kernel, centers, bk)
    if x_sq_norms is None:
        # Row norms of the evaluation points, once for all blocks.
        x_sq_norms = center_sq_norms(kernel, x, bk)
    out = bk.empty((n_x, l), dtype=dtype)
    sizes = row_block_sizes(n_x, n, max_scalars)
    # The first block is the widest: every block's scratch is a row
    # prefix of one pooled buffer.
    scratch = _WORKSPACE.get(bk, sizes[0] if sizes else 0, n, dtype)
    spec = kernel.fused_spec
    if spec is not None:
        contract = bk.prepared_fused_matvec(
            centers, w2, profile=spec[0], scale=spec[1],
            z_sq_norms=z_sq_norms, dtype=dtype,
        )
        # Norms in the working dtype: a no-op for the ones computed
        # above, the cast the kernel call would apply to a caller's.
        x_sq_norms = bk.asarray(x_sq_norms, dtype=dtype)
        # Shape-derived, as the kernel call records it in the other arm.
        record_ops("kernel_eval", n_x * n * x.shape[1])
    else:
        def contract(
            x_rows: Any, x_norms: Any, out_rows: Any, block_out: Any
        ) -> None:
            block = kernel(
                x_rows, centers, out=block_out, x_sq_norms=x_norms,
                z_sq_norms=z_sq_norms,
            )
            bk.matmul(block, w2, out=out_rows)

    lo = 0
    for b in sizes:
        hi = lo + b
        contract(
            x[lo:hi], None if x_sq_norms is None else x_sq_norms[lo:hi],
            out[lo:hi], scratch[:b],
        )
        lo = hi
    record_ops("gemm", n_x * n * l)
    return out[:, 0] if squeeze else out
