"""Kernel interface.

A kernel is a positive-definite function ``k : R^d x R^d -> R``.  The paper
(Section 2) only requires two structural facts from the kernel beyond
positive-definiteness:

- ``beta(K) = max_i k(x_i, x_i)`` — for normalized shift-invariant kernels
  this is identically 1, which the analytic step-size formula relies on;
- rapid eigenvalue decay of the kernel matrix, which makes the critical
  batch size ``m*(k) = beta(K)/lambda_1(K)`` small and creates the
  opportunity EigenPro 2.0 exploits.

Every concrete kernel therefore exposes :meth:`__call__` (cross kernel
matrix), :meth:`diag` (needed for ``beta``) and two structural flags.

All array work dispatches through the active
:class:`~repro.backend.ArrayBackend`, so the same kernel object evaluates
on NumPy or Torch arrays depending on the ambient :func:`repro.backend.
use_backend` scope.  Kernel evaluation supports an optional ``out=``
scratch buffer so the blocked operations in :mod:`repro.kernels.ops` can
stream ``(b, n)`` blocks without re-allocating per block.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.backend import get_backend
from repro.config import compute_dtype, resolve_dtype, workspace_debug_enabled
from repro.exceptions import ConfigurationError
from repro.instrument import record_ops
from repro.kernels.pairwise import sq_euclidean_distances


def _as_2d(name: str, arr: Any) -> Any:
    out = get_backend().asarray(arr)
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim != 2:
        raise ConfigurationError(
            f"{name} must be a 2-D array of shape (n, d); got ndim={out.ndim}"
        )
    return out


class Kernel(abc.ABC):
    """Abstract positive-definite kernel.

    Subclasses implement :meth:`_cross` producing the ``(n_x, n_z)`` kernel
    matrix block and :meth:`diag`.
    """

    #: Registry/display name, e.g. ``"gaussian"``.
    name: str = "kernel"
    #: True when ``k(x, z)`` depends only on ``x - z``.
    is_shift_invariant: bool = False
    #: True when ``k(x, x) == 1`` for all ``x`` (normalized kernel).  The
    #: paper notes that for normalized shift-invariant kernels
    #: ``beta(K) == 1``.
    is_normalized: bool = False

    #: Explicitly requested dtype (``None`` = follow inputs / precision
    #: switch); set by subclass constructors accepting ``dtype=``.
    _requested_dtype: np.dtype | None = None

    @property
    def dtype(self) -> np.dtype:
        """The dtype kernel evaluations resolve to *right now* — the
        explicitly requested one, else the active precision."""
        return resolve_dtype(self._requested_dtype)

    def _eval_dtype(self, x: Any, z: Any) -> np.dtype:
        """Working dtype for one evaluation: an explicit constructor dtype
        wins; otherwise float32 inputs stay float32 and the precision
        switch applies (:func:`repro.config.compute_dtype`)."""
        if self._requested_dtype is not None:
            return self._requested_dtype
        return compute_dtype(x, z)

    # ------------------------------------------------------------------ api
    def __call__(
        self,
        x: Any,
        z: Any | None = None,
        out: Any | None = None,
        x_sq_norms: Any | None = None,
        z_sq_norms: Any | None = None,
    ) -> Any:
        """Evaluate the kernel matrix ``K[i, j] = k(x_i, z_j)``.

        Parameters
        ----------
        x:
            Array of shape ``(n_x, d)`` (a single point may be passed as a
            1-D array of length ``d``).
        z:
            Array of shape ``(n_z, d)``; defaults to ``x`` (symmetric
            kernel matrix).
        out:
            Optional ``(n_x, n_z)`` scratch buffer in the working dtype;
            ignored when shape or dtype mismatch (an error instead under
            :func:`repro.config.debug_workspace`).
        x_sq_norms:
            Optional precomputed row squared norms of ``x``, shape
            ``(n_x,)``.  The training loop slices these out of the norms
            it already holds for the full training set, so batch-row
            norms are not recomputed every iteration.
        z_sq_norms:
            Optional precomputed row squared norms of ``z``, shape
            ``(n_z,)``.  Streaming callers that evaluate many row blocks
            against the same centers (``kernel_matvec``, the training
            loop, every shard executor) pass this so the ``O(n_z * d)``
            norm reduction happens once instead of once per block.
            Kernels that do not consume distances ignore both norm
            arguments.
        """
        x = _as_2d("x", x)
        z = x if z is None else _as_2d("z", z)
        if x.shape[1] != z.shape[1]:
            raise ConfigurationError(
                f"feature dimensions differ: x has d={x.shape[1]}, "
                f"z has d={z.shape[1]}"
            )
        if out is not None:
            bk = get_backend()
            if tuple(out.shape) != (x.shape[0], z.shape[0]) or bk.dtype_of(
                out
            ) != self._eval_dtype(x, z):
                if workspace_debug_enabled():
                    raise ConfigurationError(
                        f"{type(self).__name__} declined its out scratch: "
                        f"got shape {tuple(out.shape)} dtype "
                        f"{bk.dtype_of(out)}, needs "
                        f"{(x.shape[0], z.shape[0])} {self._eval_dtype(x, z)}"
                    )
                out = None
        result = self._cross(
            x, z, out=out, x_sq_norms=x_sq_norms, z_sq_norms=z_sq_norms
        )
        # Pairwise-evaluation cost per the paper's cost model: n_x * n_z * d.
        # Computed from shapes only, hence backend-invariant.
        record_ops("kernel_eval", x.shape[0] * z.shape[0] * x.shape[1])
        return result

    @abc.abstractmethod
    def _cross(
        self,
        x: Any,
        z: Any,
        out: Any | None = None,
        x_sq_norms: Any | None = None,
        z_sq_norms: Any | None = None,
    ) -> Any:
        """Compute the dense ``(n_x, n_z)`` kernel block, writing into
        ``out`` when given (shape/dtype already validated).  Kernels whose
        evaluation does not involve row norms ignore ``x_sq_norms`` /
        ``z_sq_norms``."""

    @abc.abstractmethod
    def diag(self, x: Any) -> Any:
        """Return ``[k(x_i, x_i)]`` of shape ``(n_x,)`` without forming the
        full kernel matrix."""

    @property
    def fused_spec(self) -> tuple[str, float] | None:
        """``(profile, scale)`` for the backend fused hot path
        (:meth:`repro.backend.ArrayBackend.fused_kernel_block`), or
        ``None`` when this kernel has no fused form and always evaluates
        through its own :meth:`_cross`.  Kernels advertising a spec must
        guarantee ``profile(dist²) == _profile(dist²)`` bit-for-bit, so
        routing through the backend entry point never changes results."""
        return None

    # --------------------------------------------------------------- helpers
    def beta(self, x: Any) -> float:
        """``beta(K) = max_i k(x_i, x_i)`` over rows of ``x`` (Section 2)."""
        x = _as_2d("x", x)
        return float(self.diag(x).max())

    def params(self) -> dict[str, Any]:
        """Constructor parameters, for reporting and reconstruction."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.params() == other.params()  # type: ignore[union-attr]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.params().items()))))


class RadialKernel(Kernel):
    """Base class for shift-invariant radial kernels ``k(x,z) = g(||x-z||^2)``.

    Subclasses implement :meth:`_profile`, mapping an array of *squared*
    Euclidean distances to kernel values *in place* (the argument is always
    a freshly computed — or scratch — distance block that may be
    overwritten).  All radial kernels here are normalized (``g(0) = 1``),
    matching the paper's observation that ``beta(K) = 1`` after
    normalization.
    """

    is_shift_invariant = True
    is_normalized = True

    def __init__(self, bandwidth: float, dtype: object | None = None) -> None:
        bandwidth = float(bandwidth)
        if not np.isfinite(bandwidth) or bandwidth <= 0.0:
            raise ConfigurationError(
                f"bandwidth must be a positive finite number, got {bandwidth}"
            )
        self.bandwidth = bandwidth
        self._requested_dtype = (
            None if dtype is None else resolve_dtype(dtype)
        )

    @abc.abstractmethod
    def _profile(self, sq_dists: Any) -> Any:
        """Map squared distances to kernel values (vectorized, may operate
        in place on its argument)."""

    def _cross(
        self,
        x: Any,
        z: Any,
        out: Any | None = None,
        x_sq_norms: Any | None = None,
        z_sq_norms: Any | None = None,
    ) -> Any:
        spec = self.fused_spec
        if spec is not None:
            # Every evaluation of a fusable radial kernel routes through
            # the backend's fused entry point: the NumPy base decomposes
            # to the identical pooled-workspace chain below (tail in row
            # tiles, same bits), Torch swaps in its torch.compile kernel
            # (repro.config.use_fusion gates).
            profile, scale = spec
            return get_backend().fused_kernel_block(
                x, z, profile=profile, scale=scale, out=out,
                x_sq_norms=x_sq_norms, z_sq_norms=z_sq_norms,
                dtype=self._eval_dtype(x, z),
            )
        sq = sq_euclidean_distances(
            x, z, x_sq_norms=x_sq_norms, z_sq_norms=z_sq_norms, out=out,
            dtype=self._eval_dtype(x, z),
        )
        return self._profile(sq)

    def diag(self, x: Any) -> Any:
        x = _as_2d("x", x)
        return get_backend().ones(x.shape[0], dtype=self._eval_dtype(x, x))

    def params(self) -> dict[str, Any]:
        return {"bandwidth": self.bandwidth}
