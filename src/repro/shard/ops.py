"""Sharded streaming primitives: the data-parallel ``K(x, Z) @ W``.

These mirror :func:`repro.kernels.ops.kernel_matvec` with the centers
and weights split across a :class:`~repro.shard.ShardGroup`: every shard
runs that one streamed matvec against its own centers and weight rows
on its own backend (reusing its precomputed center norms); the
``(n_x, l)`` partials are then summed by
:func:`~repro.shard.allreduce_sum` — exactly the per-iteration collective
the cluster cost model (:mod:`repro.device.cluster`) charges for.

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
from repro.kernels.ops import kernel_matvec
from repro.shard.group import ShardGroup

__all__ = ["sharded_kernel_matvec", "sharded_predict"]


def _matvec_task(
    worker, kernel: Kernel, x_host: np.ndarray, max_scalars: int
) -> Any:
    """Per-shard streamed ``K(x, centers_i) @ weights_i`` (module-level so
    every transport — including cross-process ones — can ship it)."""
    return kernel_matvec(
        kernel,
        x_host,
        worker.centers,
        worker.weights,
        max_scalars=max_scalars,
        z_sq_norms=worker.center_sq_norms,
    )


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
    x_host = np.asarray(to_numpy(x))
    # Fused map + all-reduce: one task per shard carries both the
    # streamed matvec and (on collective-fabric transports) the reduction.
    reduced, _ = group.map_allreduce(
        _matvec_task, kernel, x_host, max_scalars, bk=get_backend()
    )
    return reduced


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
