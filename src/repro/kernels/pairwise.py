"""Vectorized pairwise Euclidean distances.

The single hottest operation in kernel training is forming the cross kernel
block between a mini-batch and all ``n`` centers — the paper's
``(d + l) * m * n`` per-iteration cost is dominated by exactly this.  We use
the standard expansion

    ||x - z||^2 = ||x||^2 + ||z||^2 - 2 <x, z>

so the inner products route through a single GEMM on the active
:class:`~repro.backend.ArrayBackend` (BLAS on the NumPy backend, cuBLAS on
Torch/CUDA), per the vectorization guidance of the ml-systems style guide.
The expansion can produce tiny negative values for nearly-identical points,
so results are clipped at zero before any square root.

The working dtype comes from :func:`repro.config.compute_dtype`: float32
inputs compute in float32 (no silent promotion to float64), and an explicit
:func:`repro.config.use_precision` scope overrides input dtypes entirely.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend import get_backend
from repro.config import compute_dtype, workspace_debug_enabled
from repro.exceptions import ConfigurationError

__all__ = [
    "distance_operands",
    "distance_tail",
    "euclidean_distances",
    "sq_euclidean_distances",
]


def sq_euclidean_distances(
    x: Any,
    z: Any,
    x_sq_norms: Any | None = None,
    z_sq_norms: Any | None = None,
    out: Any | None = None,
    dtype: Any | None = None,
) -> Any:
    """Squared Euclidean distance matrix ``D[i, j] = ||x_i - z_j||^2``.

    Parameters
    ----------
    x:
        Array of shape ``(n_x, d)``.
    z:
        Array of shape ``(n_z, d)``.
    x_sq_norms, z_sq_norms:
        Optional precomputed row squared norms (shape ``(n_x,)`` /
        ``(n_z,)``).  Callers that evaluate many blocks against the same
        centers should precompute ``z_sq_norms`` once.
    out:
        Optional preallocated ``(n_x, n_z)`` destination in the working
        dtype; reused by the blocked operations of
        :mod:`repro.kernels.ops` to avoid per-block allocation.
    dtype:
        Explicit working dtype; overrides both input dtypes and the
        ambient precision switch (used by kernels constructed with an
        explicit ``dtype=``).

    Returns
    -------
    Array of shape ``(n_x, n_z)``, non-negative, native to the active
    backend.
    """
    bk, x, z, x_sq_norms, z_sq_norms, out = distance_operands(
        x, z, x_sq_norms, z_sq_norms, out, dtype
    )
    d = bk.matmul(x, z.T, out=out)
    return distance_tail(bk, d, x_sq_norms, z_sq_norms)


def distance_operands(
    x: Any,
    z: Any,
    x_sq_norms: Any | None,
    z_sq_norms: Any | None,
    out: Any | None,
    dtype: Any | None,
) -> tuple[Any, Any, Any, Any, Any, Any | None]:
    """The operands of a distance block's GEMM: ``(bk, x, z, x_sq_norms,
    z_sq_norms, out)``, all cast to the working dtype, with the norms
    computed when not given and a mismatched ``out`` dropped (see
    :func:`sq_euclidean_distances`).

    A symmetric block (``z is x``, as in ``kernel(points, points)``)
    keeps ``z`` as the same array, so NumPy sends ``x @ x.T`` to BLAS
    ``syrk``.  A copy of ``z`` would take the general GEMM, faster on a
    2-vCPU x86 host (4 vs 14 ms at 2000 x 32, 0.13 vs 0.56 s at
    8000 x 32), but its last bits differ from ``syrk``'s whenever the
    row count is not a multiple of the GEMM's unroll (150 x 32, for
    one), and the Nyström subsample eigensystem is built from this
    block.
    """
    bk = get_backend()
    if dtype is None:
        dtype = compute_dtype(x, z)
    x = bk.as_2d(bk.asarray(x, dtype=dtype))
    z = bk.as_2d(bk.asarray(z, dtype=dtype))
    if x_sq_norms is None:
        x_sq_norms = bk.row_sq_norms(x)
    else:
        x_sq_norms = bk.asarray(x_sq_norms, dtype=dtype)
    if z_sq_norms is None:
        z_sq_norms = bk.row_sq_norms(z)
    else:
        z_sq_norms = bk.asarray(z_sq_norms, dtype=dtype)
    if out is not None and (
        tuple(out.shape) != (x.shape[0], z.shape[0]) or bk.dtype_of(out) != dtype
    ):
        # Mismatched scratch: fall back to allocating.  Under the debug
        # flag this is an error instead — a streaming caller that meant to
        # reuse pooled scratch just lost it silently.
        if workspace_debug_enabled():
            raise ConfigurationError(
                f"sq_euclidean_distances discarded its out buffer: got "
                f"shape {tuple(out.shape)} dtype {bk.dtype_of(out)}, "
                f"needs {(x.shape[0], z.shape[0])} {np.dtype(dtype)}"
            )
        out = None
    return bk, x, z, x_sq_norms, z_sq_norms, out


def distance_tail(bk: Any, d: Any, x_sq_norms: Any, z_sq_norms: Any) -> Any:
    """Turn ``d = x @ z.T`` into squared distances in place on backend
    ``bk``: ``-2 d + ||x||² + ||z||²``, clipped at zero.

    Every element is computed on its own, so a row slice of ``d`` with
    the matching slice of ``x_sq_norms`` gets the same bits as the whole
    block — which is what lets the NumPy backend run this in row tiles
    (:meth:`repro.backend.NumpyBackend._kernel_tail`).
    """
    d *= -2.0
    d += x_sq_norms[:, None]
    d += z_sq_norms[None, :]
    bk.clip_min(d, 0.0, out=d)
    return d


def euclidean_distances(
    x: Any,
    z: Any,
    x_sq_norms: Any | None = None,
    z_sq_norms: Any | None = None,
    out: Any | None = None,
    dtype: Any | None = None,
) -> Any:
    """Euclidean distance matrix ``D[i, j] = ||x_i - z_j||``.

    Same contract as :func:`sq_euclidean_distances`; the square root is
    taken in place on the squared distances.
    """
    bk = get_backend()
    d = sq_euclidean_distances(x, z, x_sq_norms, z_sq_norms, out=out, dtype=dtype)
    bk.sqrt(d, out=d)
    return d
