"""Step 2 of the main algorithm: choosing the EigenPro parameter ``q``.

The adaptive kernel ``k_G = k_{P_q}`` flattens the top-``q`` eigenvalues of
the kernel down to ``lambda_q``, raising the critical batch size to

    m*(k_{P_q}) = beta(K_{P_q}) / lambda_q(K).

Eq. 7 of the paper picks

    q = max { i : m*(k_{P_i}) <= m_max_G },

i.e. the deepest spectral modification whose critical batch size still fits
the device.  Both ingredients are estimated from the subsample eigensystem:
``lambda_q ≈ sigma_q / s`` and

    beta(K_{P_q}) ≈ max_x [ k(x,x) - sum_{j<=q} ((sigma_j - sigma_q)/sigma_j^2) (e_j^T phi(x))^2 ]

(the paper's Step-2 expression written in subsample quantities).  The
paper takes the ``x``-maximum over "a small evaluation sample" and notes
it is accurate; here it is taken over the subsample points themselves,
where the top-``q`` projection removes most of ``k(x, x)``, so the
estimate reads low at large ``q`` (ROADMAP, "Make the analytic step safe
where its estimates break").  The subsample table comes with the
extension (:func:`repro.linalg.nystrom.nystrom_extension` forms it from
one ``K_s V`` product while it holds ``K_s``), and Step 3's
``beta(K_G)`` is its entry at the ``q`` used.

Appendix B adds a practical twist: training converges faster when ``q`` is
*increased beyond* the Eq.-7 value (Remark 3.1 shows any ``p > q`` keeps
the same per-resource-time convergence as long as ``m = m_max`` and the
step size follows).  The paper uses "a simple heuristic based on the
eigenvalue and the size of the fixed coordinate block";
:func:`adjusted_q` implements it as: extend ``q`` until the spectrum has
decayed by ``decay_tol`` relative to ``sigma_1``, capped at a fraction of
``s`` (approximating eigenvectors close to the subsample rank is
unreliable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import to_numpy
from repro.config import EPS
from repro.exceptions import ConfigurationError
from repro.linalg.nystrom import NystromExtension, beta_table

__all__ = ["QSelection", "beta_pq_table", "m_star_pq_table", "select_q", "adjusted_q"]


@dataclass(frozen=True)
class QSelection:
    """Outcome of the Eq.-7 scan.

    Attributes
    ----------
    q:
        The selected EigenPro parameter (0 means the original kernel's
        ``m*`` already reaches ``m_max`` — no preconditioning needed).
    m_max:
        The device batch size the scan targeted.
    beta_table:
        ``beta(K_{P_i})`` for ``i = 1..Q`` (index ``i-1``).
    m_star_table:
        ``m*(k_{P_i})`` for ``i = 1..Q`` (index ``i-1``).
    hit_cap:
        True when even the deepest available modification (``i = Q``)
        still has ``m* <= m_max`` — more eigenpairs would help.
    """

    q: int
    m_max: int
    beta_table: np.ndarray
    m_star_table: np.ndarray
    hit_cap: bool


def beta_pq_table(
    extension: NystromExtension,
    eval_x: np.ndarray | None = None,
) -> np.ndarray:
    """``beta(K_{P_q})`` for every ``q = 1..Q`` in one vectorized sweep.

    Parameters
    ----------
    extension:
        Subsample eigensystem with ``Q`` pairs.
    eval_x:
        Points over which the diagonal maximum is taken; defaults to the
        subsample points themselves, whose table an extension from
        :func:`~repro.linalg.nystrom.nystrom_extension` already holds.

    Returns
    -------
    numpy.ndarray
        Shape ``(Q,)``; entry ``q-1`` is ``beta(K_{P_q})``.  Values are
        clipped below at a small positive floor (they are provably
        positive in exact arithmetic).
    """
    if eval_x is None and extension._subsample_beta is not None:
        return extension._subsample_beta
    pts = extension.points if eval_x is None else eval_x
    # Raw projections a_j(x) = e_j^T phi(x), shape (n_eval, Q).  The table
    # scan is scalar NumPy math, so pull results to the host.
    proj = to_numpy(extension.projections(pts))
    return beta_table(
        proj, to_numpy(extension.kernel.diag(pts)), extension.eigvals
    )


def m_star_pq_table(
    extension: NystromExtension,
    eval_x: np.ndarray | None = None,
    beta_table: np.ndarray | None = None,
) -> np.ndarray:
    """``m*(k_{P_q}) = beta(K_{P_q}) / lambda_q`` for ``q = 1..Q``.

    Entries where ``sigma_q`` has numerically vanished (beyond the
    effective rank of the subsample matrix) are set to ``inf``.
    """
    if beta_table is None:
        beta_table = beta_pq_table(extension, eval_x)
    lam = extension.operator_eigenvalues  # sigma_i / s
    out = np.full_like(beta_table, np.inf)
    usable = lam > EPS * max(float(lam[0]), EPS)
    out[usable] = beta_table[usable] / lam[usable]
    return out


def select_q(
    extension: NystromExtension,
    m_max: int,
    eval_x: np.ndarray | None = None,
) -> QSelection:
    """Apply Eq. 7: the largest ``q`` with ``m*(k_{P_q}) <= m_max``.

    ``m*(k_{P_q})`` is (essentially) increasing in ``q`` because
    ``lambda_q`` decreases while ``beta`` changes little, so the scan takes
    the last index satisfying the constraint.  Returns ``q = 0`` when the
    original kernel's critical batch size already exceeds ``m_max``.
    """
    if m_max < 1:
        raise ConfigurationError(f"m_max must be >= 1, got {m_max}")
    beta_table = beta_pq_table(extension, eval_x)
    m_star = m_star_pq_table(extension, eval_x, beta_table)
    ok = np.flatnonzero(m_star <= m_max)
    q = int(ok[-1] + 1) if ok.size else 0
    hit_cap = bool(ok.size == m_star.shape[0])
    return QSelection(
        q=q,
        m_max=int(m_max),
        beta_table=beta_table,
        m_star_table=m_star,
        hit_cap=hit_cap,
    )


def adjusted_q(
    extension: NystromExtension,
    q: int,
    *,
    decay_tol: float = 1e-3,
    cap_fraction: float = 0.5,
) -> int:
    """The Appendix-B heuristic: raise ``q`` for faster convergence.

    Extends ``q`` to cover every eigenvalue with
    ``sigma_i >= decay_tol * sigma_1`` — directions that still carry
    non-negligible spectral weight — while capping at
    ``cap_fraction * s`` (and at the number of available pairs), since
    eigenvectors near the subsample rank are poorly approximated
    (Remark 3.1's note on larger ``s``).

    Never returns less than the Eq.-7 value ``q``.
    """
    if q < 0:
        raise ConfigurationError(f"q must be >= 0, got {q}")
    if not 0 < decay_tol < 1:
        raise ConfigurationError(f"decay_tol must be in (0,1), got {decay_tol}")
    if not 0 < cap_fraction <= 1:
        raise ConfigurationError(
            f"cap_fraction must be in (0,1], got {cap_fraction}"
        )
    sig = extension.eigvals
    if sig.size == 0 or sig[0] <= EPS:
        return q
    significant = int(np.sum(sig >= decay_tol * sig[0]))
    cap = max(1, min(int(cap_fraction * extension.s), sig.shape[0]))
    return max(q, min(significant, cap))
