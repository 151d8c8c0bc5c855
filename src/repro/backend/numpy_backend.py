"""The default :class:`ArrayBackend`: NumPy + SciPy on the host CPU.

This backend reproduces the package's historical numerics exactly — the
dense top-``q`` eigensolver keeps using LAPACK's subset driver
(``scipy.linalg.eigh(subset_by_index=...)``) rather than a full
decomposition, and Cholesky goes through :func:`scipy.linalg.cholesky`.

Radial kernel blocks are formed in row tiles.  The block's GEMM runs
once, at full BLAS width; the elementwise chain after it (distance tail,
profile: six or seven passes) then runs tile by tile, each tile small
enough to stay in L2 across all of its passes, and the tiles are shared
between the calling thread and the process's helper threads
(:func:`repro.backend.threads.run_tiles`).  Every element still goes
through the same operations in the same order, so a tiled block is
bitwise equal to the single pass.  On a 2-vCPU x86 host an 8000 x 8000
float64 Gaussian block (d=32) takes ~0.22 s instead of ~0.40 s; its
GEMM is ~0.10 s of either.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import scipy.linalg

from repro.backend.base import ArrayBackend
from repro.backend.threads import run_tiles
from repro.config import get_precision
from repro.exceptions import BackendLinAlgError

__all__ = ["NumpyBackend"]

#: Bytes of kernel block per row tile: whole rows adding up to about
#: 1 MiB, which stays in a core's L2 across the tail's passes.
_TILE_BYTES = 1 << 20


class NumpyBackend(ArrayBackend):
    """NumPy/SciPy implementation of the array substrate."""

    name = "numpy"

    # ------------------------------------------------------- creation
    def asarray(self, x: Any, dtype: object | None = None) -> np.ndarray:
        if type(x).__module__.startswith("torch"):
            # Cross-backend handoff: pull the tensor back to host memory.
            x = x.detach().cpu().numpy()
        return np.asarray(x, dtype=dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        return self.asarray(x)

    def _dtype(self, dtype: object | None) -> np.dtype:
        return get_precision() if dtype is None else np.dtype(dtype)

    def empty(self, shape: Sequence[int] | int, dtype: object | None = None) -> np.ndarray:
        return np.empty(shape, dtype=self._dtype(dtype))

    def zeros(self, shape: Sequence[int] | int, dtype: object | None = None) -> np.ndarray:
        return np.zeros(shape, dtype=self._dtype(dtype))

    def ones(self, shape: Sequence[int] | int, dtype: object | None = None) -> np.ndarray:
        return np.ones(shape, dtype=self._dtype(dtype))

    def eye(self, n: int, dtype: object | None = None) -> np.ndarray:
        return np.eye(n, dtype=self._dtype(dtype))

    def copy(self, x: Any) -> np.ndarray:
        return np.array(x, copy=True)

    # ------------------------------------------------- shape / dtype
    def dtype_of(self, x: Any) -> np.dtype:
        return np.asarray(x).dtype

    def ascontiguous(self, x: Any) -> np.ndarray:
        return np.ascontiguousarray(x)

    # --------------------------------------------------- elementwise
    def exp(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.exp(x, out=out)

    def sqrt(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.sqrt(x, out=out)

    def reciprocal(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.reciprocal(x, out=out)

    def power(self, x: np.ndarray, exponent: float, out: np.ndarray | None = None) -> np.ndarray:
        return np.power(x, exponent, out=out)

    def clip_min(self, x: np.ndarray, lo: float, out: np.ndarray | None = None) -> np.ndarray:
        return np.maximum(x, lo, out=out)

    # ---------------------------------------------------- reductions
    def row_sq_norms(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", x, x)

    def all_finite(self, x: np.ndarray) -> bool:
        return bool(np.isfinite(x).all())

    # ------------------------------------------------ linear algebra
    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise BackendLinAlgError(str(exc)) from exc

    def cholesky(self, a: np.ndarray) -> np.ndarray:
        try:
            return scipy.linalg.cholesky(a, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise BackendLinAlgError(str(exc)) from exc

    def cho_solve(self, chol: np.ndarray, b: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve((chol, True), b)

    def solve_triangular(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        lower: bool = True,
        trans: bool = False,
    ) -> np.ndarray:
        return scipy.linalg.solve_triangular(
            a, b, lower=lower, trans="T" if trans else "N"
        )

    def qr(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.qr(a)

    def eigh(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(a)

    def flip_columns(self, a: np.ndarray) -> np.ndarray:
        return a[:, ::-1]

    def top_eigh(self, a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
        s = a.shape[0]
        vals, vecs = scipy.linalg.eigh(a, subset_by_index=(s - q, s - 1))
        # eigh returns ascending order; flip to descending.
        return vals[::-1].copy(), vecs[:, ::-1].copy()

    # ---------------------------------------------------- fused hot path
    def _kernel_tail(
        self, d: np.ndarray, x_sq_norms: np.ndarray, z_sq_norms: np.ndarray,
        profile: str, scale: float,
    ) -> np.ndarray:
        rows = max(1, _TILE_BYTES // max(1, d.shape[1] * d.itemsize))
        if d.shape[0] <= rows:
            return super()._kernel_tail(
                d, x_sq_norms, z_sq_norms, profile, scale
            )
        base_tail = super()._kernel_tail

        def tile(i: int) -> None:
            span = slice(i * rows, (i + 1) * rows)
            base_tail(d[span], x_sq_norms[span], z_sq_norms, profile, scale)

        run_tiles(-(-d.shape[0] // rows), tile)
        return d
