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

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.backend import backend_of, get_backend, to_numpy
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
    _subsample_beta:
        ``(q,)`` table of ``beta(K_{P_i})`` over the subsample points
        (:func:`repro.core.qselection.beta_pq_table`), formed by
        :func:`nystrom_extension` from one ``K_s V`` product while it
        holds ``K_s``; ``None`` for pairs given directly.  Truncation
        keeps its prefix.
    """

    kernel: Kernel
    points: Any
    eigvals: np.ndarray
    eigvecs: Any
    indices: np.ndarray | None = None
    _subsample_beta: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

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
            _subsample_beta=(
                None if self._subsample_beta is None
                else self._subsample_beta[:q]
            ),
        )


def beta_table(
    proj: np.ndarray, diag: np.ndarray, eigvals: np.ndarray
) -> np.ndarray:
    """``beta(K_{P_q})`` for ``q = 1..Q`` from the raw projections
    ``proj = phi(x) V`` (``(n_x, Q)``) and the kernel diagonal ``diag``
    (``(n_x,)``) at the same points: the maximum over the points of

        k(x, x) - sum_{j<=q} a_j^2 / sigma_j + sigma_q sum_{j<=q} a_j^2 / sigma_j^2,

    clipped below at a small positive floor (the values are provably
    positive in exact arithmetic).  Entry ``q - 1`` depends only on the
    first ``q`` columns, so the table of a truncation is this prefix."""
    sig = np.maximum(eigvals, EPS)  # (Q,)
    proj_sq = proj**2
    cum1 = np.cumsum(proj_sq / sig[None, :], axis=1)  # (n_x, Q)
    cum2 = np.cumsum(proj_sq / (sig**2)[None, :], axis=1)
    per_point = diag[:, None] - cum1 + sig[None, :] * cum2
    return np.maximum(per_point.max(axis=0), EPS)


def nystrom_extension(
    kernel: Kernel,
    x: Any,
    subsample_size: int,
    q: int,
    *,
    seed: int | None = 0,
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
    indices:
        Explicit subsample indices into ``x`` (deduplicated order kept).

    The eigensystem of ``K_s`` comes from
    :func:`repro.linalg.top_eigensystem` (``"auto"``): a float64 ``K_s``
    with ``s >= 1024`` is solved in float32 and kept only if a float64
    Ritz pass certifies its residuals, else solved in float64.

    ``K_s`` is formed once.  After the eigensolve one GEMM gives the
    subsample projections ``K_s V``, from which the extension keeps only
    the ``(q,)`` table of ``beta(K_{P_i})`` over the subsample points.
    """
    ext, k_s = _subsample_pairs(
        kernel, x, subsample_size, q, seed=seed, indices=indices
    )
    # The subsample projections K_s V, from the real product: certified
    # Ritz pairs only satisfy K_s V ~ V diag(sigma) to their residual, and
    # K_s V is the product the training correction applies.
    proj = to_numpy(k_s @ ext.eigvecs)
    del k_s
    table = beta_table(proj, to_numpy(kernel.diag(ext.points)), ext.eigvals)
    table.setflags(write=False)  # shared by every truncation
    return replace(ext, _subsample_beta=table)


def _subsample_pairs(
    kernel: Kernel,
    x: Any,
    subsample_size: int,
    q: int,
    *,
    seed: int | None = 0,
    indices: np.ndarray | None = None,
) -> tuple[NystromExtension, Any]:
    """The extension :func:`nystrom_extension` builds, without its
    ``beta`` table (no ``K_s V`` product), and the ``K_s`` it solved.
    The original EigenPro reads only the pairs."""
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
    eigvals, eigvecs = top_eigensystem(k_s, q)
    # Guard against tiny negative values from floating point round-off.
    eigvals = np.maximum(eigvals, 0.0)
    return (
        NystromExtension(
            kernel=kernel,
            points=points,
            eigvals=eigvals,
            eigvecs=eigvecs,
            indices=indices,
        ),
        k_s,
    )
