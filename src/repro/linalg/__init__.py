"""Linear-algebra substrate: eigensystems and the Nyström extension.

EigenPro's preconditioner needs the top-q eigensystem of the kernel matrix.
Computing it on all ``n`` points is infeasible; the improved iteration
(paper Section 4) instead computes the eigensystem of an ``s x s``
*subsample* kernel matrix and lifts it to the RKHS with the Nyström
extension::

    lambda_i ≈ sigma_i / s
    e_i(.)   ≈ (1 / sqrt(sigma_i)) e_i^T phi(.)

where ``(sigma_i, e_i)`` are subsample eigenpairs and ``phi`` is the kernel
feature map against the subsample points.  This subpackage provides:

- :func:`top_eigensystem` — top-q eigenpairs of a dense symmetric matrix
  (LAPACK subset, exact or float32-solved and certified in float64);
- :class:`NystromExtension` — the lifted eigensystem with operator
  eigenvalue estimates and eigenfunction evaluation;
- stability helpers (:func:`symmetrize`, :func:`jitter_cholesky`).
"""

from repro.linalg.eigensystem import top_eigensystem
from repro.linalg.nystrom import NystromExtension, nystrom_extension
from repro.linalg.power import power_iteration
from repro.linalg.stable import jitter_cholesky, symmetrize

__all__ = [
    "top_eigensystem",
    "NystromExtension",
    "nystrom_extension",
    "power_iteration",
    "symmetrize",
    "jitter_cholesky",
]
