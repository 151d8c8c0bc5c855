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

from repro.backend import ArrayBackend, get_backend, match_dtype
from repro.config import DEFAULT_BLOCK_SCALARS, compute_dtype
from repro.exceptions import ConfigurationError
from repro.instrument import record_ops
from repro.kernels.base import Kernel

__all__ = [
    "BlockWorkspace",
    "block_workspace",
    "center_sq_norms",
    "row_block_sizes",
    "take_columns",
    "kernel_matrix",
    "kernel_matvec",
    "KernelMatvecPlan",
    "predict_in_blocks",
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


def take_columns(block: Any, idx: np.ndarray) -> Any:
    """The columns ``block[:, idx]`` as a new array.

    On NumPy this is ``np.take(block, idx, axis=1)``: bitwise the same
    copy as fancy indexing, but several times faster on a wide block,
    and fastest when ``idx`` is sorted.  Taking 2000 of the columns of
    an 8000 x 8000 float64 block on a 2-vCPU x86 host: fancy indexing
    ~420 ms, ``np.take`` ~100 ms unsorted and ~80 ms sorted.  Other
    backends index.
    """
    if isinstance(block, np.ndarray):
        return np.take(block, idx, axis=1)
    return block[:, idx]


def iter_row_blocks(
    n_rows: int, n_cols: int, max_scalars: int = DEFAULT_BLOCK_SCALARS
) -> Iterator[slice]:
    """Yield row slices matching :func:`row_block_sizes`."""
    start = 0
    for size in row_block_sizes(n_rows, n_cols, max_scalars):
        yield slice(start, start + size)
        start += size


def kernel_matrix(
    kernel: Kernel,
    x: Any,
    z: Any | None = None,
    max_scalars: int = DEFAULT_BLOCK_SCALARS,
    out: Any | None = None,
) -> Any:
    """Dense kernel matrix ``K(x, z)``, computed in row blocks.

    Unlike ``kernel(x, z)`` this never holds more than one block of
    *intermediate* distance matrix at a time (the output itself is dense);
    each block is in fact written straight into its slice of ``out``, so no
    per-block temporary exists at all.

    Parameters
    ----------
    kernel:
        The kernel function.
    x, z:
        Point sets; ``z`` defaults to ``x``.
    max_scalars:
        Temporary-block budget in scalars.
    out:
        Optional preallocated ``(n_x, n_z)`` output.
    """
    bk = get_backend()
    x = bk.as_2d(bk.asarray(x))
    z = x if z is None else bk.as_2d(bk.asarray(z))
    n_x, n_z = x.shape[0], z.shape[0]
    if out is None:
        # As in kernel_matvec: an explicitly pinned kernel dtype must not
        # be silently downcast away (and matching dtypes lets each block
        # be written straight into its out slice).
        dtype = np.result_type(compute_dtype(x, z), kernel._eval_dtype(x, z))
        out = bk.empty((n_x, n_z), dtype=dtype)
    elif tuple(out.shape) != (n_x, n_z):
        raise ConfigurationError(
            f"out has shape {tuple(out.shape)}, expected {(n_x, n_z)}"
        )
    z_sq_norms = center_sq_norms(kernel, z, bk)
    # Scratch is requested up front in the kernel's own working dtype: a
    # destination the kernel would decline (e.g. float64 output slices for
    # a float32-pinned kernel) is replaced by a pooled eval-dtype block so
    # no per-block temporary is silently allocated (the debug_workspace
    # flag turns any such decline into an error).
    block_dtype = kernel._eval_dtype(x, z)
    writes_direct = bk.dtype_of(out) == block_dtype
    # Row norms once for all blocks (dtype guard as in kernel_matvec:
    # a precision-pinned kernel computes norms of the cast rows itself).
    x_sq_norms = (
        center_sq_norms(kernel, x, bk)
        if bk.dtype_of(x) == block_dtype
        else None
    )
    for rows in iter_row_blocks(n_x, n_z, max_scalars):
        dest = (
            out[rows]
            if writes_direct
            else _WORKSPACE.get(bk, rows.stop - rows.start, n_z, block_dtype)
        )
        block = kernel(
            x[rows], z, out=dest,
            x_sq_norms=None if x_sq_norms is None else x_sq_norms[rows],
            z_sq_norms=z_sq_norms,
        )
        if not writes_direct or block is not dest:
            # Pooled scratch (cast on copy-back), or a kernel profile that
            # returns a fresh array (e.g. Matérn nu >= 3/2).
            out[rows] = block
    return out


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
    (Algorithm 1, step 2) for every row of ``x``.  Cost per the paper's
    model: ``n_x * n * d`` kernel evaluations plus ``n_x * n * l`` GEMM
    operations, both recorded on the active :class:`~repro.instrument.OpMeter`.
    Streamed ``(b, n)`` kernel blocks live in the shared
    :class:`BlockWorkspace`, so the distance/kernel block is never
    re-allocated per block (profiles needing an auxiliary array, e.g.
    Matérn ν ≥ 3/2, still allocate that one temporary).

    Kernels that advertise a :attr:`~repro.kernels.base.Kernel.fused_spec`
    contract each block through the backend's
    :meth:`~repro.backend.ArrayBackend.fused_kernel_matvec` — one entry
    point per block instead of a kernel call plus a separate GEMM — with
    the op counts still recorded here from shapes.

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
    plan = KernelMatvecPlan(
        kernel, centers, weights, max_scalars=max_scalars,
        z_sq_norms=z_sq_norms, x_like=x,
    )
    return plan(x, x_sq_norms=x_sq_norms)


class KernelMatvecPlan:
    """:func:`kernel_matvec` with the per-call prologue hoisted.

    Every :func:`kernel_matvec` call re-resolves dtypes, re-casts
    ``centers``/``weights``, re-derives the fused dispatch and
    re-validates shapes before touching a single block.  For one call
    over a large ``x`` that prologue is noise; for a serving tick that
    evaluates many small *segments* against the same model it dominates.
    The plan runs the prologue once for a fixed ``(kernel, centers,
    weights, max_scalars)`` and then ``plan(x_seg)`` executes only the
    ``x``-dependent tail — the identical block loop
    :func:`kernel_matvec` runs, so for any ``x_seg`` whose dtype matches
    the ``x_like`` exemplar the plan was built from, ``plan(x_seg)`` is
    bitwise-equal to a fresh ``kernel_matvec(kernel, x_seg, ...)``.
    (:func:`kernel_matvec` itself now delegates to a throwaway plan, so
    the two paths cannot drift.)  A call whose dtype does *not* match
    the exemplar silently falls back to the full-prologue path with the
    original (uncast) arrays — correct, just not hoisted.

    Plans hold backend casts of the model arrays; build them where the
    calls will run (e.g. inside a shard worker task) and do not reuse a
    plan after mutating the underlying weights.
    """

    __slots__ = (
        "kernel", "max_scalars", "_bk", "_x_dtype", "_data_dtype",
        "_block_dtype", "_out_dtype", "_centers", "_w2", "_squeeze",
        "_z_sq_norms", "_fused_spec", "_fast_block", "_n", "_l",
        "_fallback",
    )

    def __init__(
        self,
        kernel: Kernel,
        centers: Any,
        weights: Any,
        max_scalars: int = DEFAULT_BLOCK_SCALARS,
        z_sq_norms: Any | None = None,
        x_like: Any | None = None,
    ) -> None:
        bk = get_backend()
        # Originals (pre-cast) kept for the dtype-mismatch fallback: a
        # fresh kernel_matvec call must see what this caller was given.
        self._fallback = (centers, weights, z_sq_norms)
        data_dtype = compute_dtype(x_like, centers, weights)
        centers = bk.as_2d(bk.asarray(centers, dtype=data_dtype))
        # An explicitly requested kernel dtype participates in the output
        # dtype (it must not be silently downcast away in the streamed
        # path).  ``x_like`` only contributes its dtype here, exactly as
        # the cast ``x`` contributes only its dtype in the direct path.
        block_dtype = kernel._eval_dtype(
            _DtypeExemplar(data_dtype), centers
        )
        out_dtype = np.result_type(data_dtype, block_dtype)
        weights = bk.asarray(weights, dtype=out_dtype)
        if weights.shape[0] != centers.shape[0]:
            raise ConfigurationError(
                f"weights has {weights.shape[0]} rows but there are "
                f"{centers.shape[0]} centers"
            )
        self.kernel = kernel
        self.max_scalars = max_scalars
        self._bk = bk
        self._x_dtype = getattr(x_like, "dtype", None)
        self._data_dtype = data_dtype
        self._block_dtype = block_dtype
        self._out_dtype = out_dtype
        self._centers = centers
        self._squeeze = weights.ndim == 1
        self._w2 = weights[:, None] if self._squeeze else weights
        self._z_sq_norms = (
            center_sq_norms(kernel, centers, bk)
            if z_sq_norms is None
            else z_sq_norms
        )
        self._fused_spec = (
            kernel.fused_spec if block_dtype == out_dtype else None
        )
        self._n = centers.shape[0]
        self._l = self._w2.shape[1]
        # Precompiled per-block closure (backend-side invariant hoist):
        # only for the cast-free case, where every block's inputs are
        # already in the working dtype — precisely when the plan holds
        # precomputed x row norms (see __call__).
        self._fast_block = None
        if (
            self._fused_spec is not None
            and block_dtype == data_dtype == out_dtype
        ):
            profile, scale = self._fused_spec
            self._fast_block = bk.prepared_fused_matvec(
                centers, self._w2, profile=profile, scale=scale,
                z_sq_norms=self._z_sq_norms, dtype=block_dtype,
            )

    def __call__(self, x: Any, x_sq_norms: Any | None = None) -> Any:
        if getattr(x, "dtype", None) != self._x_dtype:
            # Built from a different exemplar: the hoisted dtypes may not
            # be the ones a direct call would resolve — take that path.
            centers, weights, z_sq_norms = self._fallback
            return kernel_matvec(
                self.kernel, x, centers, weights,
                max_scalars=self.max_scalars, z_sq_norms=z_sq_norms,
                x_sq_norms=x_sq_norms,
            )
        bk = self._bk
        x = bk.as_2d(bk.asarray(x, dtype=self._data_dtype))
        n_x, n, l = x.shape[0], self._n, self._l
        if x_sq_norms is None and self._block_dtype == self._data_dtype:
            # Row norms of the evaluation points, once for all blocks.
            # Only when the block dtype matches the data dtype: a kernel
            # pinned to a different precision computes norms of the
            # *cast* rows inside each block evaluation, and precomputing
            # at data dtype would change those bits.
            x_sq_norms = center_sq_norms(self.kernel, x, bk)
        out = bk.empty((n_x, l), dtype=self._out_dtype)
        if self._fast_block is not None and x_sq_norms is not None:
            # Cast-free fused path with the backend-side hoist: norms in
            # the working dtype (a no-op for plan-computed norms, the
            # same cast sq_euclidean_distances would apply otherwise).
            x_sq_norms = bk.asarray(x_sq_norms, dtype=self._block_dtype)
            for rows in iter_row_blocks(n_x, n, self.max_scalars):
                b = rows.stop - rows.start
                scratch = _WORKSPACE.get(bk, b, n, self._block_dtype)
                self._fast_block(
                    x[rows], x_sq_norms[rows], out[rows], scratch
                )
                record_ops("kernel_eval", b * n * x.shape[1])
                record_ops("gemm", b * n * l)
            return out[:, 0] if self._squeeze else out
        for rows in iter_row_blocks(n_x, n, self.max_scalars):
            b = rows.stop - rows.start
            x_norms = None if x_sq_norms is None else x_sq_norms[rows]
            scratch = _WORKSPACE.get(bk, b, n, self._block_dtype)
            if self._fused_spec is not None:
                profile, scale = self._fused_spec
                bk.fused_kernel_matvec(
                    x[rows], self._centers, self._w2,
                    profile=profile, scale=scale,
                    out=out[rows], block_out=scratch,
                    x_sq_norms=x_norms, z_sq_norms=self._z_sq_norms,
                    dtype=self._block_dtype,
                )
                # Op counts from shapes only, as in the unfused arm
                # below — fused dispatch changes codegen, never
                # accounting.
                record_ops("kernel_eval", b * n * x.shape[1])
            else:
                block = self.kernel(
                    x[rows], self._centers, out=scratch,
                    x_sq_norms=x_norms, z_sq_norms=self._z_sq_norms,
                )
                # A kernel pinned to a lower precision than the data
                # casts up before the contraction.
                block = match_dtype(block, self._out_dtype, bk)
                bk.matmul(block, self._w2, out=out[rows])
            record_ops("gemm", b * n * l)
        return out[:, 0] if self._squeeze else out

    def run_segments(self, x: Any, bounds: Any) -> Any:
        """Evaluate every segment ``x[lo:hi]`` into one output array.

        The serving tick's inner loop.  ``bounds`` is a sequence of
        ``(lo, hi)`` row ranges that tile ``[0, n_x)`` in order without
        overlap (zero-length segments allowed); the returned array's
        rows ``lo:hi`` are bitwise-equal to ``plan(x[lo:hi])`` for each
        segment.  Segments are tiny in a serving tick, so the remaining
        per-call machinery — the row-norm reduction, output allocation,
        op accounting and the final concatenation — is amortised over
        the whole tick: one norm pass over ``x`` (row-wise reductions
        are per-row independent, so sliced norms carry the bits a
        per-segment reduction would), one output buffer each segment's
        final GEMM writes in place, one op-count record.  Dtypes or
        kernels without the precompiled fast block take the per-segment
        ``plan(...)`` road into the shared buffer instead — same bits,
        no hoist.
        """
        bk = self._bk
        if (
            self._fast_block is None
            or getattr(x, "dtype", None) != self._x_dtype
        ):
            out = None
            for lo, hi in bounds:
                seg = self(x[lo:hi])
                if out is None:
                    shape = (
                        (x.shape[0],) if seg.ndim == 1
                        else (x.shape[0], seg.shape[1])
                    )
                    out = bk.empty(shape, dtype=seg.dtype)
                out[lo:hi] = seg
            if out is None:  # no bounds at all
                out = self(x[:0])
            return out
        x = bk.as_2d(bk.asarray(x, dtype=self._data_dtype))
        n, l = self._n, self._l
        x_sq_norms = bk.asarray(
            center_sq_norms(self.kernel, x, bk), dtype=self._block_dtype
        )
        out = bk.empty((x.shape[0], l), dtype=self._out_dtype)
        # Serving segments are overwhelmingly single-block (the same
        # split iter_row_blocks would produce for them), so resolve the
        # block budget once and memoize the scratch buffer across
        # equal-sized segments instead of paying the generator and the
        # workspace lookup per segment.
        rows_per_block = max(1, self.max_scalars // max(1, n))
        fast_block = self._fast_block
        covered = 0
        scratch_rows = -1
        scratch = None
        for lo, hi in bounds:
            seg = hi - lo
            covered += seg
            if seg <= rows_per_block:
                if seg == 0:
                    continue
                if seg != scratch_rows:
                    scratch = _WORKSPACE.get(bk, seg, n, self._block_dtype)
                    scratch_rows = seg
                fast_block(x[lo:hi], x_sq_norms[lo:hi], out[lo:hi], scratch)
                continue
            for rows in iter_row_blocks(seg, n, self.max_scalars):
                s0, s1 = lo + rows.start, lo + rows.stop
                if s1 - s0 != scratch_rows:
                    scratch = _WORKSPACE.get(
                        bk, s1 - s0, n, self._block_dtype
                    )
                    scratch_rows = s1 - s0
                fast_block(
                    x[s0:s1], x_sq_norms[s0:s1], out[s0:s1], scratch
                )
        # Same totals a per-segment loop would record, once per tick.
        record_ops("kernel_eval", covered * n * x.shape[1])
        record_ops("gemm", covered * n * l)
        return out[:, 0] if self._squeeze else out


class _DtypeExemplar:
    """Stand-in carrying only a dtype, for dtype-resolution helpers that
    read nothing else (``compute_dtype`` / ``Kernel._eval_dtype``)."""

    __slots__ = ("dtype",)

    def __init__(self, dtype: object) -> None:
        self.dtype = dtype


def predict_in_blocks(
    kernel: Kernel,
    centers: Any,
    weights: Any,
    x: Any,
    max_scalars: int = DEFAULT_BLOCK_SCALARS,
    z_sq_norms: Any | None = None,
    x_sq_norms: Any | None = None,
) -> Any:
    """Alias of :func:`kernel_matvec` with model-centric argument order.

    ``x_sq_norms``/``z_sq_norms`` are threaded straight through, so a
    serving caller holding precomputed evaluation-point or center norms
    pays the ``O(n_x d)`` / ``O(n d)`` norm reductions once, not per call
    (and never per block)."""
    return kernel_matvec(
        kernel, x, centers, weights, max_scalars=max_scalars,
        z_sq_norms=z_sq_norms, x_sq_norms=x_sq_norms,
    )
