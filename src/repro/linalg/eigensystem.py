"""Top-q eigensystem solver for symmetric PSD matrices.

Two routes, behind one entry point (:func:`top_eigensystem`):

- **Dense subset** (``method="dense"``, and ``"auto"`` below
  ``_FLOAT32_SIDE_MIN`` or for any matrix that is not a float64 NumPy
  array): exact.  On the NumPy backend this is LAPACK ``syevr`` via
  :func:`scipy.linalg.eigh` in the matrix's own dtype; the Torch backend
  solves the full eigensystem and slices (torch has no subset driver).
  ``method="dense"`` is the float64 reference.
- **Float32 subset + float64 Ritz pass** (``"auto"`` on a float64 NumPy
  matrix of side ``_FLOAT32_SIDE_MIN`` or more): ``syevr`` on a float32
  copy, about half the float64 time, then one Rayleigh–Ritz pass in
  float64 on the orthonormalised float32 vectors.  The pairs are
  returned only if every residual ``||A u_i - θ_i u_i||`` is at most
  ``_RITZ_RTOL · θ_q``; otherwise the dense float64 solve runs as well.
  Spectra that decay below float32 resolution within the top ``q`` fall
  back.

Every pair returned is therefore either an exact LAPACK pair or one
certified to ``_RITZ_RTOL · θ_q``: EigenPro 2.0 reads its step size and
preconditioner straight from these pairs.  Eigen*values* come back in
*descending* order as NumPy arrays (they feed the scalar
parameter-selection math) and eigen*vectors* as columns, native to the
active :class:`~repro.backend.ArrayBackend`.  A traced call records one
``eigensolve`` span with the route taken.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.linalg

from repro.backend import get_backend
from repro.exceptions import ConfigurationError
from repro.instrument import record_ops, span
from repro.linalg.stable import symmetrize

__all__ = ["top_eigensystem"]

#: From this matrix side up, ``method="auto"`` solves a float64 NumPy
#: matrix in float32 and certifies the pairs in float64.  Below it the
#: float64 solve is cheap, and callers pin eigenpairs to float64 accuracy.
_FLOAT32_SIDE_MIN = 1024

#: Residual certificate of the float32 route: every returned pair has
#: ``||A u - θ u|| <= _RITZ_RTOL · θ_q``, so an eigenvalue of ``A`` lies
#: within 1% of ``θ_q`` (the scale that sets the step size and the
#: preconditioner) of every returned value.  Away from clusters a Ritz
#: value's error is quadratic in its residual: certified pairs read
#: ~1e-11 relative error on the benchmark's kernel matrices.
_RITZ_RTOL = 1e-2


def _validate_square(a: Any) -> Any:
    a = get_backend().asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(
            f"expected a square matrix, got shape {tuple(a.shape)}"
        )
    return a


def top_eigensystem(
    a: Any,
    q: int,
    *,
    method: str = "auto",
) -> tuple[np.ndarray, Any]:
    """Top-``q`` eigenpairs of symmetric PSD ``a``, eigenvalues descending.

    Parameters
    ----------
    a:
        Symmetric matrix of shape ``(s, s)``.  Mild asymmetry from floating
        point accumulation is symmetrized away before the dense solve
        (fallback included), which may hand ``a`` to a full symmetric
        solver.  The float32 route casts ``a`` as it is: LAPACK reads one
        triangle, and the Ritz pass's quadratic form sees only the
        symmetric part.
    q:
        Number of eigenpairs, ``1 <= q <= s``.
    method:
        ``"auto"`` (default) or ``"dense"``.  ``"dense"`` is the exact
        subset solve in ``a``'s dtype; ``"auto"`` picks one of the two
        routes of the module docstring from the side, dtype and backend.

    Returns
    -------
    (eigvals, eigvecs):
        ``eigvals``: NumPy array of shape ``(q,)``, descending;
        ``eigvecs``: backend-native ``(s, q)`` with orthonormal columns,
        ``a @ v_i ≈ eigvals_i * v_i``.
    """
    a = _validate_square(a)
    s = a.shape[0]
    q = int(q)
    if not 1 <= q <= s:
        raise ConfigurationError(f"q must be in [1, {s}], got {q}")
    if method not in ("auto", "dense"):
        raise ConfigurationError(f"unknown eigensystem method {method!r}")
    # The span's route and certificate are known only after the solve;
    # a span reads its attributes when it closes.
    with span("eigensolve", s=s, q=q, route=method, certified=None) as sp:
        record_ops("eig", s * s * s)  # cubic dense-eigensolver cost model
        if (
            method == "auto"
            and s >= _FLOAT32_SIDE_MIN
            and isinstance(a, np.ndarray)
            and a.dtype == np.float64
        ):
            pairs = _float32_ritz(a, q)
            sp.attrs["certified"] = pairs is not None
            if pairs is not None:
                sp.attrs["route"] = "float32+ritz"
                return pairs
        bk = get_backend()
        sp.attrs["route"] = bk.dtype_of(a).name
        return bk.top_eigh(symmetrize(a), q)


def _float32_ritz(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Top-``q`` pairs of float64 ``a`` from a float32 subset solve and one
    float64 Rayleigh–Ritz pass, or ``None`` if a residual exceeds
    ``_RITZ_RTOL · θ_q``.

    ``a`` is not symmetrized first: LAPACK reads the lower triangle of
    the float32 copy, and the Ritz matrix ``Qᵀ A Q`` is symmetrized, so
    the pairs judged are those of ``(A + Aᵀ)/2`` up to ``A``'s last-ulp
    asymmetry.  Besides ``a`` and its float32 copy (freed once LAPACK is
    done), the pass holds two ``(s, q)`` float64 arrays: the basis ``Q``
    and ``AQ``, whose buffer receives the Ritz vectors.
    """
    s = a.shape[0]
    try:
        a32 = a.astype(np.float32)
        _, vecs32 = scipy.linalg.eigh(
            a32, subset_by_index=(s - q, s - 1), overwrite_a=True
        )
        del a32
        basis = vecs32.astype(np.float64)  # Fortran order, as LAPACK wrote it
        del vecs32
        # Cholesky QR in place: Q <- Q L^-T with L L^T = Q^T Q.
        chol = np.linalg.cholesky(basis.T @ basis)
        trsm = scipy.linalg.get_blas_funcs("trsm", (basis,))
        basis = trsm(1.0, chol, basis, side=1, lower=1, trans_a=1, overwrite_b=1)
    except np.linalg.LinAlgError:
        return None
    aq = a @ basis
    small = basis.T @ aq
    gram = aq.T @ aq
    theta, w = np.linalg.eigh((small + small.T) * 0.5)
    theta, w = theta[::-1].copy(), w[:, ::-1]
    # ||A Q w - θ Q w||^2 = wᵀ (AQ)ᵀ(AQ) w - θ^2 for orthonormal Q.
    resid_sq = np.einsum("ij,ij->j", w, gram @ w) - theta * theta
    bound = _RITZ_RTOL * theta[-1]
    if not (bound > 0 and np.all(resid_sq <= bound * bound)):
        return None
    return theta, np.matmul(basis, w, out=aq)

