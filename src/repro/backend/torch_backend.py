"""Optional Torch :class:`ArrayBackend` (CPU or CUDA).

``torch`` is imported lazily at *instantiation* time; importing this module
never touches torch, so the package works unchanged when torch is absent
(install with ``pip install repro[torch]`` to pull it in).  Construction
raises :class:`~repro.exceptions.BackendUnavailableError` when torch is
missing, which the registry and the test suite translate into a clean skip.

Non-tensor inputs are routed through NumPy first so that Python lists get
NumPy's dtype rules (float64) rather than torch's float32 default —
keeping results bit-comparable with the NumPy backend under the default
precision.

Fused hot path
--------------
:meth:`TorchBackend.fused_kernel_block` — the backend's one fusion
point, which every radial kernel block reaches, including each block of
the streamed matvec (:func:`repro.kernels.ops.kernel_matvec`, through
the base :meth:`~repro.backend.base.ArrayBackend.prepared_fused_matvec`)
— overrides the decomposed base implementation with a single
``torch.compile``-compiled kernel per radial profile (GEMM expansion →
norm broadcast → clamp → profile in one graph, letting the inductor fuse
the memory-bound elementwise chain).  The
compiled function preserves the decomposed path's elementwise operation
order, so float64 fused blocks are bit-identical to unfused ones on this
backend.  Compilation failures (unsupported platform, missing compiler
toolchain) latch a fallback to the *eager* fused function — same
arithmetic, no codegen.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backend.base import ArrayBackend
from repro.config import compute_dtype, get_precision, workspace_debug_enabled
from repro.exceptions import (
    BackendLinAlgError,
    BackendUnavailableError,
    ConfigurationError,
)

__all__ = ["TorchBackend"]


def _build_fused_profile(torch: Any, profile: str):
    """The fused ``distances² → profile`` chain as one pure function of
    tensors, compilable by ``torch.compile``.  The operation order is the
    decomposed path's exactly (GEMM, ``*-2``, ``+x_norms``, ``+z_norms``,
    clamp, profile), so fused and unfused results are bit-identical at
    the same dtype; returns ``None`` for profiles without a fused form.
    """
    if profile == "gaussian":

        def fused(x, z, xn, zn, scale: float):
            t = torch.matmul(x, z.mT)
            t = t * -2.0
            t = t + xn[:, None]
            t = t + zn[None, :]
            t = torch.clamp(t, min=0.0)
            t = t * scale
            return torch.exp(t)

        return fused
    if profile == "laplacian":

        def fused(x, z, xn, zn, scale: float):
            t = torch.matmul(x, z.mT)
            t = t * -2.0
            t = t + xn[:, None]
            t = t + zn[None, :]
            t = torch.clamp(t, min=0.0)
            t = torch.sqrt(t)
            t = t * scale
            return torch.exp(t)

        return fused
    return None


class TorchBackend(ArrayBackend):
    """Torch implementation of the array substrate.

    Parameters
    ----------
    device:
        Torch device string, e.g. ``"cpu"``, ``"cuda"``, ``"cuda:1"``.
        CUDA devices are validated at construction.
    """

    name = "torch"

    def __init__(self, device: str = "cpu") -> None:
        try:
            import torch
        except ImportError as exc:  # pragma: no cover - depends on env
            raise BackendUnavailableError(
                "the 'torch' backend requires torch; install it with "
                "pip install repro[torch]"
            ) from exc
        self.torch = torch
        dev = torch.device(device)
        if dev.type == "cuda":
            if not torch.cuda.is_available():  # pragma: no cover - needs GPU
                raise BackendUnavailableError(
                    f"torch device {device!r} requested but CUDA is not available"
                )
            if dev.index is None:
                # Canonicalize bare "cuda" to an explicit index so that
                # "cuda" and "cuda:0" resolve to one backend instance
                # (and one workspace key) for the same physical GPU.
                dev = torch.device("cuda", torch.cuda.current_device())
        self.device = dev
        self._to_torch_dtype = {
            np.dtype(np.float32): torch.float32,
            np.dtype(np.float64): torch.float64,
            np.dtype(np.float16): torch.float16,
            np.dtype(np.int64): torch.int64,
            np.dtype(np.int32): torch.int32,
            np.dtype(np.bool_): torch.bool,
        }
        #: Per-profile ``(compiled_fn_or_None, eager_fn)`` fused kernels.
        self._fused_cache: dict[str, tuple[Any, Any]] = {}
        #: Latched when torch.compile fails once; all profiles then stay
        #: on the eager fused function for this backend instance.
        self._compile_failed = False

    # ------------------------------------------------------- helpers
    def _torch_dtype(self, dtype: object | None):
        if dtype is None:
            return None
        np_dt = np.dtype(dtype)
        try:
            return self._to_torch_dtype[np_dt]
        except KeyError:
            raise TypeError(f"dtype {np_dt!r} has no torch equivalent") from None

    def _default_float(self):
        return self._torch_dtype(get_precision())

    def _is_tensor(self, x: Any) -> bool:
        return isinstance(x, self.torch.Tensor)

    # ------------------------------------------------------- creation
    def asarray(self, x: Any, dtype: object | None = None) -> Any:
        torch_dtype = self._torch_dtype(dtype)
        if not self._is_tensor(x):
            # NumPy dtype rules for plain Python containers (see module doc).
            x = np.asarray(x)
        return self.torch.as_tensor(x, dtype=torch_dtype, device=self.device)

    def to_numpy(self, x: Any) -> np.ndarray:
        if self._is_tensor(x):
            return x.detach().cpu().numpy()
        return np.asarray(x)

    def empty(self, shape: Sequence[int] | int, dtype: object | None = None) -> Any:
        dt = self._torch_dtype(dtype) or self._default_float()
        return self.torch.empty(shape, dtype=dt, device=self.device)

    def zeros(self, shape: Sequence[int] | int, dtype: object | None = None) -> Any:
        dt = self._torch_dtype(dtype) or self._default_float()
        return self.torch.zeros(shape, dtype=dt, device=self.device)

    def ones(self, shape: Sequence[int] | int, dtype: object | None = None) -> Any:
        dt = self._torch_dtype(dtype) or self._default_float()
        return self.torch.ones(shape, dtype=dt, device=self.device)

    def eye(self, n: int, dtype: object | None = None) -> Any:
        dt = self._torch_dtype(dtype) or self._default_float()
        return self.torch.eye(n, dtype=dt, device=self.device)

    def copy(self, x: Any) -> Any:
        if self._is_tensor(x):
            return x.detach().clone()
        return self.asarray(np.array(x, copy=True))

    # ------------------------------------------------- shape / dtype
    def dtype_of(self, x: Any) -> np.dtype:
        if self._is_tensor(x):
            return np.dtype(str(x.dtype).replace("torch.", ""))
        return np.asarray(x).dtype

    def ascontiguous(self, x: Any) -> Any:
        return x.contiguous()

    # --------------------------------------------------- elementwise
    def exp(self, x: Any, out: Any | None = None) -> Any:
        return self.torch.exp(x, out=out)

    def sqrt(self, x: Any, out: Any | None = None) -> Any:
        return self.torch.sqrt(x, out=out)

    def reciprocal(self, x: Any, out: Any | None = None) -> Any:
        return self.torch.reciprocal(x, out=out)

    def power(self, x: Any, exponent: float, out: Any | None = None) -> Any:
        return self.torch.pow(x, exponent, out=out)

    def clip_min(self, x: Any, lo: float, out: Any | None = None) -> Any:
        return self.torch.clamp(x, min=lo, out=out)

    # ---------------------------------------------------- reductions
    def row_sq_norms(self, x: Any) -> Any:
        return (x * x).sum(dim=1)

    def all_finite(self, x: Any) -> bool:
        return bool(self.torch.isfinite(x).all().item())

    # ------------------------------------------------ linear algebra
    def matmul(self, a: Any, b: Any, out: Any | None = None) -> Any:
        return self.torch.matmul(a, b, out=out)

    def solve(self, a: Any, b: Any) -> Any:
        try:
            return self.torch.linalg.solve(a, b)
        except RuntimeError as exc:
            raise BackendLinAlgError(str(exc)) from exc

    def cholesky(self, a: Any) -> Any:
        try:
            return self.torch.linalg.cholesky(a)
        except RuntimeError as exc:
            raise BackendLinAlgError(str(exc)) from exc

    def cho_solve(self, chol: Any, b: Any) -> Any:
        return self.torch.cholesky_solve(b, chol, upper=False)

    def solve_triangular(
        self, a: Any, b: Any, *, lower: bool = True, trans: bool = False
    ) -> Any:
        if trans:
            # Solve a.T x = b without materializing the transpose's copy:
            # a lower factor's transpose is upper triangular.
            a, upper = a.mT, lower
        else:
            upper = not lower
        b2 = b if b.ndim == 2 else b.unsqueeze(1)
        out = self.torch.linalg.solve_triangular(a, b2, upper=upper)
        return out if b.ndim == 2 else out.squeeze(1)

    def top_eigh(self, a: Any, q: int) -> tuple[np.ndarray, Any]:
        # torch has no subset driver: solve the full eigensystem and slice.
        vals, vecs = self.torch.linalg.eigh(a)
        vals = self.to_numpy(vals)[::-1][:q].copy()
        return vals, vecs.flip(1)[:, :q]

    # ---------------------------------------------------- fused hot path
    def _fused_profile_fns(self, profile: str) -> tuple[Any, Any] | None:
        entry = self._fused_cache.get(profile)
        if entry is None:
            eager = _build_fused_profile(self.torch, profile)
            if eager is None:
                return None
            compiled = None
            if not self._compile_failed:
                try:
                    compiled = self.torch.compile(eager, dynamic=True)
                except Exception:  # pragma: no cover - platform-dependent
                    self._compile_failed = True
            entry = (compiled, eager)
            self._fused_cache[profile] = entry
        return entry

    def fused_kernel_block(
        self,
        x: Any,
        z: Any,
        *,
        profile: str,
        scale: float,
        out: Any | None = None,
        x_sq_norms: Any | None = None,
        z_sq_norms: Any | None = None,
        dtype: object | None = None,
    ) -> Any:
        entry = self._fused_profile_fns(profile)
        if entry is None:
            # Unknown profile: the base implementation owns the error.
            return super().fused_kernel_block(
                x, z, profile=profile, scale=scale, out=out,
                x_sq_norms=x_sq_norms, z_sq_norms=z_sq_norms, dtype=dtype,
            )
        if dtype is None:
            dtype = compute_dtype(x, z)
        dtype = np.dtype(dtype)
        x = self.as_2d(self.asarray(x, dtype=dtype))
        z = self.as_2d(self.asarray(z, dtype=dtype))
        xn = (
            self.row_sq_norms(x)
            if x_sq_norms is None
            else self.asarray(x_sq_norms, dtype=dtype)
        )
        zn = (
            self.row_sq_norms(z)
            if z_sq_norms is None
            else self.asarray(z_sq_norms, dtype=dtype)
        )
        if out is not None and (
            tuple(out.shape) != (x.shape[0], z.shape[0])
            or self.dtype_of(out) != dtype
        ):
            # Same discard contract as sq_euclidean_distances: a
            # mismatched pooled buffer is dropped, or raises under the
            # workspace debug flag.
            if workspace_debug_enabled():
                raise ConfigurationError(
                    f"fused_kernel_block discarded its out buffer: got "
                    f"shape {tuple(out.shape)} dtype {self.dtype_of(out)}, "
                    f"needs {(x.shape[0], z.shape[0])} {dtype}"
                )
            out = None
        compiled, eager = entry
        fn = compiled if compiled is not None else eager
        try:
            result = fn(x, z, xn, zn, float(scale))
        except Exception:  # pragma: no cover - platform-dependent
            if compiled is None:
                raise
            # torch.compile backends can fail at first call (tracing /
            # codegen), not at wrap time; latch the eager fused fallback.
            self._compile_failed = True
            self._fused_cache[profile] = (None, eager)
            result = eager(x, z, xn, zn, float(scale))
        if out is not None:
            # The compiled graph returns a fresh tensor; land it in the
            # caller's pooled scratch so streaming callers keep their
            # one-resident-block-per-key footprint.
            out.copy_(result)
            return out
        return result

    # -------------------------------------------------------- meta
    def synchronize(self) -> None:
        if self.device.type == "cuda":  # pragma: no cover - needs GPU
            self.torch.cuda.synchronize(self.device)
