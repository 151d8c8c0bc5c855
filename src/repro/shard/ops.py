"""Sharded streaming primitives: the data-parallel ``K(x, Z) @ W``.

These mirror :func:`repro.kernels.ops.kernel_matvec` with the centers
and weights split across a :class:`~repro.shard.ShardGroup`: every shard
runs that one streamed matvec against its own centers and weight rows
on its own backend (reusing its precomputed center norms); the
``(n_x, l)`` partials are then summed by
:func:`~repro.shard.allreduce_sum` — exactly the per-iteration collective
the cluster cost model (:mod:`repro.device.cluster`) charges for.  One
worker task, :func:`_serve_batch_task`, runs it: a serving tick
(:mod:`repro.serve`) passes its request segments,
:func:`sharded_kernel_matvec` one segment spanning ``x``.

Because each shard's op counts are shape-derived and the shards tile the
center set, the aggregate ``kernel_eval`` / ``gemm`` counts equal the
unsharded counts exactly — the invariant
``tests/test_shard_parity.py`` asserts for ``g in {1, 2, 4}``.

Streaming discipline: each worker's blocks live in its thread's
:class:`~repro.kernels.ops.BlockWorkspace`.  The primitives here consume
every block before requesting the next, as does the sharded trainer
(:mod:`repro.shard.trainer`), so each shard holds one resident block per
key — the cap the workspace accounting tests assert.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend import get_backend, to_numpy
from repro.config import DEFAULT_BLOCK_SCALARS
from repro.exceptions import ConfigurationError, ShardError
from repro.kernels.base import Kernel
from repro.kernels.ops import kernel_matvec, row_block_sizes
from repro.shard.group import ShardGroup

__all__ = ["sharded_kernel_matvec", "sharded_predict"]


def _serve_batch_task(
    worker,
    kernel: Kernel,
    x_host: np.ndarray,
    bounds: tuple[tuple[int, int], ...],
    max_scalars: int,
) -> np.ndarray:
    """Per-shard ``K(x, centers_i) @ weights_i`` over request segments
    (module-level so every transport — including cross-process ones —
    can ship it): one serving tick of :mod:`repro.serve`, or one
    segment spanning ``x_host`` for :func:`sharded_kernel_matvec`.

    ``bounds`` holds the per-request row segments, which tile
    ``x_host`` in order.  A solo :func:`~repro.shard.sharded_predict`
    of an ``r``-row request streams it in the blocks
    :func:`~repro.kernels.ops.row_block_sizes` gives under
    ``max_scalars``.  When that is one block, a run of consecutive
    ``r``-row segments is one :func:`~repro.kernels.ops.kernel_matvec`
    call whose budget is exactly ``r`` rows, so each of its blocks is
    one request's block; a longer segment gets its own call under
    ``max_scalars``.  Row norms are per-row and op counts shape-derived,
    so the partial matches the per-request loop in bits and in op
    totals while the matvec prologue runs once per run, not once per
    request.  Zero-row segments add no rows; a tick of only those yields
    a well-formed ``(0, l)`` partial.
    """
    n = max(1, worker.centers.shape[0])
    calls: list[list[int]] = []  # [lo, hi, budget, rows per segment]
    for lo, hi in bounds:
        rows = hi - lo
        if rows and calls and calls[-1][3] == rows:
            calls[-1][1] = hi  # one more r-row block in the same call
        elif len(row_block_sizes(rows, n, max_scalars)) == 1:
            calls.append([lo, hi, rows * n, rows])
        elif rows:
            calls.append([lo, hi, max_scalars, 0])
    parts = [
        np.asarray(to_numpy(kernel_matvec(
            kernel, x_host[lo:hi], worker.centers, worker.weights,
            max_scalars=budget, z_sq_norms=worker.center_sq_norms,
        )))
        for lo, hi, budget, _ in calls or ((0, 0, max_scalars, 0),)
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def sharded_kernel_matvec(
    kernel: Kernel,
    x: Any,
    group: ShardGroup,
    max_scalars: int = DEFAULT_BLOCK_SCALARS,
) -> Any:
    """Compute ``K(x, centers) @ weights`` with centers/weights sharded
    across ``group``.

    Parameters
    ----------
    kernel:
        The kernel function (may differ from ``group.kernel``).
    x:
        Evaluation points ``(n_x, d)``.
    max_scalars:
        Per-shard temporary-block budget in scalars, forwarded to each
        executor's streamed :func:`~repro.kernels.ops.kernel_matvec`.

    Returns
    -------
    Array of shape ``(n_x,)`` or ``(n_x, l)`` matching the shard weights,
    native to the *caller's* active backend.
    """
    if group.closed:
        raise ShardError(
            "shard group is closed and can no longer serve predictions"
        )
    if any(ex.weights is None for ex in group.executors):
        raise ConfigurationError("group executors hold no weights")
    x_host = np.atleast_2d(to_numpy(x))
    # Fused map + all-reduce: one streamed-matvec task per shard, its
    # partials combined host-side.  A single segment forms exactly the
    # blocks kernel_matvec forms under max_scalars.
    return group.map_allreduce(
        _serve_batch_task, kernel, x_host, ((0, x_host.shape[0]),),
        max_scalars, bk=get_backend(),
    )


def sharded_predict(
    group: ShardGroup,
    x: Any,
    kernel: Kernel | None = None,
    max_scalars: int = DEFAULT_BLOCK_SCALARS,
) -> Any:
    """Sharded model evaluation ``f(x) = sum_i alpha_i k(c_i, x)`` — the
    data-parallel counterpart of :meth:`repro.core.model.KernelModel.predict`.

    ``kernel`` defaults to the group's :attr:`kernel`, the one
    ``ShardGroup.build(kernel=...)`` attached.
    """
    kernel = kernel if kernel is not None else group.kernel
    if kernel is None:
        raise ConfigurationError(
            "no kernel: pass one or build the group with kernel=..."
        )
    return sharded_kernel_matvec(kernel, x, group, max_scalars=max_scalars)
