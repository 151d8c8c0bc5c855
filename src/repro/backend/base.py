"""The :class:`ArrayBackend` interface — the kernel substrate's contract.

Every hot path in the package (pairwise distances, elementwise kernel
profiles, blocked matvecs, eigensolvers, the EigenPro training loop) talks
to arrays exclusively through this interface plus the small set of operators
that NumPy arrays and Torch tensors implement identically (``@``, ``+``,
``*=``, 2-D ``.T``, basic/advanced indexing, ``.shape``, ``.sum()``,
``.max()``).  Anything the two array libraries spell differently — creation,
conversion, ufuncs with ``out=``, linear-algebra factorizations — goes
through a backend method.

Conventions shared by all implementations:

- dtypes are *NumPy* dtypes at the interface; backends translate internally.
- ``out=`` arguments are optional destinations that must match shape and
  dtype; passing ``None`` allocates.
- eigen/Cholesky factorizations follow NumPy's layout conventions
  (eigenvalues descending from :meth:`top_eigh`; eigenvectors as
  columns).
- :meth:`top_eigh` returns eigen*values* as a NumPy array regardless of
  backend — they are tiny, and all parameter-selection logic (Eq. 7 scans,
  step sizes) is scalar NumPy math.  Eigen*vectors* stay native.
- Operation *counts* recorded via :mod:`repro.instrument` are computed from
  shapes only, so they are identical across backends by construction.

Fused hot path
--------------
The per-step hot chain — pairwise squared distances → kernel profile →
GEMM — has one backend entry point implementations may fuse:
:meth:`ArrayBackend.fused_kernel_block` (distances + profile, i.e. one
``(b, n)`` kernel block).  Every radial kernel evaluation reaches it
through :meth:`repro.kernels.base.Kernel.__call__`.  The one streamed
matvec (:func:`repro.kernels.ops.kernel_matvec`) binds the invariant
side of that chain once per call instead, through
:meth:`ArrayBackend.prepared_fused_matvec`: a closure that forms each
block and contracts it with :meth:`ArrayBackend.matmul`, replaying the
same ops (a backend that overrides the block former is called through
it).  The base implementation *decomposes* to exactly the historical
pooled-workspace ops, so op counts stay shape-derived and
backend-invariant (the NumPy backend's row-tiled
:meth:`~ArrayBackend._kernel_tail` override keeps each element's ops and
their order); the Torch backend overrides the block former with a
``torch.compile`` fused kernel (eager fused fallback).  The base
decomposition stays the bitwise reference a fused override is tested
against.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["ArrayBackend"]

#: Radial kernel profiles the fused path understands, applied to a block of
#: *squared* distances in place:
#: ``"gaussian"`` — ``exp(scale * sq)`` (``scale = -0.5 / bandwidth**2``);
#: ``"laplacian"`` — ``exp(scale * sqrt(sq))`` (``scale = -1.0 / bandwidth``).
FUSED_PROFILES = ("gaussian", "laplacian")


class ArrayBackend(abc.ABC):
    """Abstract array/linear-algebra substrate."""

    #: Registry name, e.g. ``"numpy"`` or ``"torch"``.
    name: str = "abstract"

    # ------------------------------------------------------- creation
    @abc.abstractmethod
    def asarray(self, x: Any, dtype: object | None = None) -> Any:
        """Convert ``x`` to this backend's native array type (no copy when
        already native with the right dtype)."""

    @abc.abstractmethod
    def to_numpy(self, x: Any) -> np.ndarray:
        """Convert a native array back to a NumPy ``ndarray``."""

    @abc.abstractmethod
    def empty(self, shape: Sequence[int] | int, dtype: object | None = None) -> Any:
        """Uninitialized native array."""

    @abc.abstractmethod
    def zeros(self, shape: Sequence[int] | int, dtype: object | None = None) -> Any:
        """Zero-filled native array."""

    @abc.abstractmethod
    def ones(self, shape: Sequence[int] | int, dtype: object | None = None) -> Any:
        """One-filled native array."""

    @abc.abstractmethod
    def eye(self, n: int, dtype: object | None = None) -> Any:
        """Identity matrix."""

    @abc.abstractmethod
    def copy(self, x: Any) -> Any:
        """Deep copy of a native array."""

    # ------------------------------------------------- shape / dtype
    @abc.abstractmethod
    def dtype_of(self, x: Any) -> np.dtype:
        """The NumPy dtype corresponding to ``x``'s element type."""

    def as_2d(self, x: Any) -> Any:
        """View ``x`` with at least 2 dimensions (1-D becomes a row)."""
        if x.ndim == 1:
            return x[None, :]
        return x

    @abc.abstractmethod
    def ascontiguous(self, x: Any) -> Any:
        """Row-major contiguous version of ``x`` (no copy when already so)."""

    # --------------------------------------------------- elementwise
    @abc.abstractmethod
    def exp(self, x: Any, out: Any | None = None) -> Any:
        """Elementwise ``e**x``."""

    @abc.abstractmethod
    def sqrt(self, x: Any, out: Any | None = None) -> Any:
        """Elementwise square root."""

    @abc.abstractmethod
    def reciprocal(self, x: Any, out: Any | None = None) -> Any:
        """Elementwise ``1/x``."""

    @abc.abstractmethod
    def power(self, x: Any, exponent: float, out: Any | None = None) -> Any:
        """Elementwise ``x**exponent``."""

    @abc.abstractmethod
    def clip_min(self, x: Any, lo: float, out: Any | None = None) -> Any:
        """Elementwise ``max(x, lo)``."""

    # ---------------------------------------------------- reductions
    @abc.abstractmethod
    def row_sq_norms(self, x: Any) -> Any:
        """Row squared norms of a 2-D array, shape ``(n,)``."""

    @abc.abstractmethod
    def all_finite(self, x: Any) -> bool:
        """True when every element of ``x`` is finite."""

    # ------------------------------------------------ linear algebra
    @abc.abstractmethod
    def matmul(self, a: Any, b: Any, out: Any | None = None) -> Any:
        """Matrix product ``a @ b``."""

    @abc.abstractmethod
    def solve(self, a: Any, b: Any) -> Any:
        """Solve ``a x = b`` for square ``a``."""

    @abc.abstractmethod
    def cholesky(self, a: Any) -> Any:
        """Lower Cholesky factor of symmetric positive-definite ``a``.

        Raises
        ------
        repro.exceptions.BackendLinAlgError
            When the factorization fails (non-PSD input).
        """

    def cho_solve(self, chol: Any, b: Any) -> Any:
        """Solve ``a x = b`` given the lower Cholesky factor of ``a``.

        The default implementation runs two generic :meth:`solve` calls;
        backends override with their triangular solvers.
        """
        return self.solve(chol.T, self.solve(chol, b))

    def solve_triangular(
        self, a: Any, b: Any, *, lower: bool = True, trans: bool = False
    ) -> Any:
        """Solve ``a x = b`` (or ``a.T x = b`` when ``trans``) for
        triangular ``a``.

        This is the half-step of :meth:`cho_solve` that preconditioned
        solvers (FALKON's ``T``/``A`` factor applications) need
        separately.  The default falls back to the dense :meth:`solve`,
        which — unlike a true triangular solver — reads the *whole*
        matrix: it is only correct when the non-triangular half of ``a``
        is zero-filled (true for factors from :meth:`cholesky` on the
        shipped backends, but NOT for e.g. LAPACK ``cho_factor`` output,
        whose untouched triangle holds garbage).  Backends should
        override with a real triangular solver that references only the
        indicated triangle; both shipped backends do.
        """
        return self.solve(a.T if trans else a, b)

    @abc.abstractmethod
    def top_eigh(self, a: Any, q: int) -> tuple[np.ndarray, Any]:
        """Top-``q`` eigenpairs of symmetric ``a``, eigenvalues *descending*.

        Returns ``(eigvals, eigvecs)`` with ``eigvals`` a NumPy ``(q,)``
        array (see module docstring) and ``eigvecs`` native ``(s, q)``.
        """

    # ---------------------------------------------------- fused hot path
    def _apply_profile(self, sq: Any, profile: str, scale: float) -> Any:
        """Apply a named radial profile to a block of squared distances in
        place (see :data:`FUSED_PROFILES`)."""
        if profile == "gaussian":
            sq *= scale
            return self.exp(sq, out=sq)
        if profile == "laplacian":
            r = self.sqrt(sq, out=sq)
            r *= scale
            return self.exp(r, out=r)
        raise ConfigurationError(
            f"unknown fused kernel profile {profile!r}; known: "
            + ", ".join(FUSED_PROFILES)
        )

    def _kernel_tail(
        self, d: Any, x_sq_norms: Any, z_sq_norms: Any, profile: str,
        scale: float,
    ) -> Any:
        """Everything after a radial block's GEMM, in place on ``d = x @
        z.T``: the distance tail
        (:func:`repro.kernels.pairwise.distance_tail`), then the profile.
        One pass over the whole block; the NumPy backend runs it in row
        tiles instead, with the same bits."""
        from repro.kernels.pairwise import distance_tail

        d = distance_tail(self, d, x_sq_norms, z_sq_norms)
        return self._apply_profile(d, profile, scale)

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
        """One ``(n_x, n_z)`` radial-kernel block: squared distances plus
        the named ``profile`` in a single backend entry point.

        The base implementation decomposes to the historical chain —
        the GEMM of :func:`repro.kernels.pairwise.sq_euclidean_distances`
        into the caller's pooled ``out`` scratch, then :meth:`_kernel_tail`
        (its distance tail and the profile) in place — so results are
        bit-identical to the unfused path and op counts (recorded by the
        *caller* from shapes) are backend-invariant.  The NumPy backend's
        :meth:`_kernel_tail` splits that tail into row tiles over the
        process's compute threads and stays bitwise equal to the single
        pass.  Backends with a fusing compiler override this method; the
        override must preserve the elementwise operation order so a
        fused float64 block stays bit-identical to the decomposed one on
        the same backend.
        """
        # Late import: the pairwise layer dispatches back through the
        # backend registry, so importing it at module scope would cycle.
        from repro.kernels.pairwise import distance_operands

        _, x, z, x_sq_norms, z_sq_norms, out = distance_operands(
            x, z, x_sq_norms, z_sq_norms, out, dtype
        )
        d = self.matmul(x, z.T, out=out)
        return self._kernel_tail(d, x_sq_norms, z_sq_norms, profile, scale)

    def prepared_fused_matvec(
        self,
        z: Any,
        weights: Any,
        *,
        profile: str,
        scale: float,
        z_sq_norms: Any,
        dtype: object,
    ) -> Any:
        """One streamed matvec block, ``profile(dist²(x, z)) @ weights``,
        with ``z``, ``weights`` and the profile bound once.

        Returns ``run(x, x_sq_norms, out, block_out)``, which replays
        :meth:`fused_kernel_block` then :meth:`matmul` op for op, so its
        bits are theirs; the per-call work — center cast and transpose,
        norm casts, profile dispatch, scratch checks — is done here
        once.  :func:`repro.kernels.ops.kernel_matvec` builds one per
        call and runs it on every block.  The caller passes ``x`` cast to
        ``dtype``, ``x_sq_norms`` as :meth:`row_sq_norms` of that ``x``
        and shape/dtype-matched ``out``/``block_out``: the state the
        block loop holds.  A backend that overrides
        :meth:`fused_kernel_block` gets a closure that calls it.
        """
        if (
            type(self).fused_kernel_block
            is not ArrayBackend.fused_kernel_block
        ):
            def forward(
                x: Any, x_sq_norms: Any, out: Any, block_out: Any
            ) -> Any:
                block = self.fused_kernel_block(
                    x, z, profile=profile, scale=scale, out=block_out,
                    x_sq_norms=x_sq_norms, z_sq_norms=z_sq_norms,
                    dtype=dtype,
                )
                return self.matmul(block, weights, out=out)

            return forward
        if profile not in FUSED_PROFILES:
            raise ConfigurationError(
                f"unknown fused kernel profile {profile!r}; known: "
                + ", ".join(FUSED_PROFILES)
            )
        z = self.as_2d(self.asarray(z, dtype=dtype))
        z_t = z.T
        z_norms = self.asarray(z_sq_norms, dtype=dtype)
        kernel_tail = self._kernel_tail

        def run(x: Any, x_sq_norms: Any, out: Any, block_out: Any) -> Any:
            # The fused_kernel_block chain with hoisted invariants: GEMM,
            # then the same tail on the same bits.
            d = self.matmul(x, z_t, out=block_out)
            d = kernel_tail(d, x_sq_norms, z_norms, profile, scale)
            return self.matmul(d, weights, out=out)

        return run

    # -------------------------------------------------------- meta
    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on CPU)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
