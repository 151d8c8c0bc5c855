"""Nyström extension of a subsample eigensystem to the RKHS.

This is the mathematical device behind the *improved* EigenPro iteration
(paper Section 4).  Given ``s`` subsample points with kernel matrix
``K_s = [k(x_ri, x_rj)]`` and its eigenpairs ``(sigma_i, e_i)``:

- the **kernel operator eigenvalues** are estimated by
  ``lambda_i ≈ sigma_i / s``;
- the **L2-normalized eigenfunctions** extend to any point ``x`` as
  ``ẽ_i(x) ≈ (sqrt(s) / sigma_i) * e_i^T phi(x)`` where
  ``phi(x) = (k(x_r1, x), ..., k(x_rs, x))^T``;
- the **RKHS-normalized eigenfunctions** (used by the preconditioner
  operator ``P_q`` of Eq. 4) are ``ê_i = sqrt(lambda_i) ẽ_i`` with
  coefficient vector ``e_i / sqrt(sigma_i)`` over the subsample centers.

The two normalizations matter: the paper's Step-2 formula for
``beta(K_{P_q})`` uses the L2 normalization, while ``P_q`` itself uses the
RKHS one; both are exposed here and consistency between them is tested
property-style in ``tests/test_linalg_nystrom.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.backend import backend_of, get_backend
from repro.config import EPS
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel
from repro.linalg.eigensystem import top_eigensystem

__all__ = ["NystromExtension", "nystrom_extension"]


@dataclass(frozen=True)
class NystromExtension:
    """A top-``q`` subsample eigensystem lifted to the RKHS.

    Attributes
    ----------
    kernel:
        The kernel whose operator is being approximated.
    points:
        The ``(s, d)`` subsample points ``x_r1 ... x_rs``
        (backend-native).
    eigvals:
        ``(q,)`` eigenvalues ``sigma_i`` of the *subsample matrix* ``K_s``,
        descending, always a NumPy array (they feed scalar selection
        math).  Note these are matrix eigenvalues, not operator ones.
    eigvecs:
        ``(s, q)`` orthonormal eigenvectors of ``K_s`` (columns,
        backend-native).
    indices:
        Indices of the subsample within the original training set, or
        ``None`` when the points were supplied directly.
    """

    kernel: Kernel
    points: Any
    eigvals: np.ndarray
    eigvecs: Any
    indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.points.ndim != 2:
            raise ConfigurationError("points must be 2-D (s, d)")
        s = self.points.shape[0]
        q = self.eigvals.shape[0]
        if tuple(self.eigvecs.shape) != (s, q):
            raise ConfigurationError(
                f"eigvecs shape {tuple(self.eigvecs.shape)} inconsistent with "
                f"s={s}, q={q}"
            )
        eigvals = backend_of(self.eigvals).to_numpy(self.eigvals)
        if q > 1 and np.any(np.diff(eigvals) > 1e-9 * abs(eigvals[0])):
            raise ConfigurationError("eigvals must be sorted descending")

    # ---------------------------------------------------------- properties
    @property
    def s(self) -> int:
        """Subsample size."""
        return self.points.shape[0]

    @property
    def q(self) -> int:
        """Number of eigenpairs held."""
        return self.eigvals.shape[0]

    @property
    def operator_eigenvalues(self) -> np.ndarray:
        """Estimates ``lambda_i ≈ sigma_i / s`` of the kernel operator
        eigenvalues (equivalently, of the normalized kernel matrix
        ``K / n``)."""
        return self.eigvals / self.s

    # ------------------------------------------------------------- queries
    def feature_map(self, x: Any) -> Any:
        """``phi(x)``: the ``(n_x, s)`` kernel block against the subsample."""
        return self.kernel(x, self.points)

    def projections(self, x: Any) -> Any:
        """Raw eigenvector projections ``phi(x) @ V``, shape ``(n_x, q)``.

        The stored eigenvectors are converted to the backend that produced
        ``phi(x)`` (the *active* one), so an extension built under one
        backend can be queried under another.
        """
        phi = self.feature_map(x)
        bk = backend_of(phi)
        vecs = bk.asarray(self.eigvecs, dtype=bk.dtype_of(phi))
        return phi @ vecs

    def eigenfunction_values(self, x: Any) -> Any:
        """L2-normalized eigenfunction values ``ẽ_i(x)``, shape ``(n_x, q)``.

        Computed as ``(sqrt(s)/sigma_i) * (phi(x) @ e_i)``.  On the
        subsample points themselves this reproduces ``sqrt(s) * e_i`` (the
        empirical L2 normalization) up to Nyström error.
        """
        proj = self.projections(x)
        scale = np.sqrt(self.s) / np.maximum(self.eigvals, EPS)
        bk = backend_of(proj)
        return proj * bk.asarray(scale[None, :], dtype=bk.dtype_of(proj))

    def rkhs_coefficients(self) -> Any:
        """Coefficient matrix ``C`` of shape ``(s, q)`` such that the
        RKHS-normalized eigenfunction is ``ê_i = sum_j C[j, i] k(x_rj, .)``,
        i.e. ``C[:, i] = e_i / sqrt(sigma_i)``."""
        scale = np.sqrt(np.maximum(self.eigvals, EPS))[None, :]
        bk = backend_of(self.eigvecs)
        return self.eigvecs / bk.asarray(
            scale, dtype=bk.dtype_of(self.eigvecs)
        )

    def truncated(self, q: int) -> "NystromExtension":
        """A view of this extension keeping only the top ``q`` pairs."""
        if not 1 <= q <= self.q:
            raise ConfigurationError(f"q must be in [1, {self.q}], got {q}")
        return NystromExtension(
            kernel=self.kernel,
            points=self.points,
            eigvals=self.eigvals[:q],
            eigvecs=self.eigvecs[:, :q],
            indices=self.indices,
        )


def nystrom_extension(
    kernel: Kernel,
    x: Any,
    subsample_size: int,
    q: int,
    *,
    seed: int | None = 0,
    method: str = "auto",
    indices: np.ndarray | None = None,
) -> NystromExtension:
    """Build a :class:`NystromExtension` from training data.

    Parameters
    ----------
    kernel:
        Kernel function.
    x:
        Training points, shape ``(n, d)``.
    subsample_size:
        ``s``, the fixed coordinate block size.  The paper chooses
        ``s = 2e3`` for ``n <= 1e5`` and ``s = 1.2e4`` beyond (Section 5);
        see :func:`repro.core.eigenpro2.default_subsample_size`.
    q:
        Number of eigenpairs to extract; must satisfy ``1 <= q < s`` (the
        smallest eigenvalues of ``K_s`` are unreliable, so ``q = s`` is
        rejected).
    seed:
        RNG seed for the subsample draw (ignored if ``indices`` given).
        Drawn indices come back sorted.
    method:
        Eigensolver selection, forwarded to
        :func:`repro.linalg.top_eigensystem`.  ``"auto"`` solves a float64
        ``K_s`` with ``s >= 1024`` in float32 and keeps the pairs only if
        a float64 Ritz pass certifies their residuals, else solves it in
        float64; ``"dense"`` always runs the exact solve in ``K_s``'s
        dtype.
    indices:
        Explicit subsample indices into ``x`` (deduplicated order kept).
    """
    bk = get_backend()
    x = bk.as_2d(bk.asarray(x))
    n = x.shape[0]
    s = int(subsample_size)
    if not 1 <= s <= n:
        raise ConfigurationError(f"subsample_size must be in [1, {n}], got {s}")
    q = int(q)
    if not 1 <= q < max(s, 2):
        raise ConfigurationError(f"q must be in [1, {s - 1}], got {q}")
    if indices is None:
        # Sorted: the subsample (and so K_s, its eigensystem and every
        # parameter selected from it) is the same for a seed whatever
        # order the draw returns, and EigenPro 2.0 holds these rows
        # first, in this order, as the leading columns of Phi.
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(n, size=s, replace=False))
    else:
        indices = np.asarray(indices, dtype=np.intp)
        if indices.shape != (s,):
            raise ConfigurationError(
                f"indices must have shape ({s},), got {indices.shape}"
            )
        if np.unique(indices).size != s:
            raise ConfigurationError("subsample indices must be unique")
    points = x[indices]
    k_s = kernel(points, points)
    eigvals, eigvecs = top_eigensystem(k_s, q, method=method, seed=seed)
    # Guard against tiny negative values from floating point round-off.
    eigvals = np.maximum(eigvals, 0.0)
    return NystromExtension(
        kernel=kernel,
        points=points,
        eigvals=eigvals,
        eigvecs=eigvecs,
        indices=indices,
    )
