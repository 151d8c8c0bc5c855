"""Tests for the Nyström preconditioner — the heart of Algorithm 1.

The decisive checks are spectral: the explicit modified kernel ``k_G``
must (a) stay PSD, (b) have top operator eigenvalue ``lambda_q``, (c)
leave the bottom of the spectrum untouched, and (d) keep the same
interpolating solution as the original kernel.
"""

import numpy as np
import pytest

from repro.core.cost import exact_improved_overhead_ops
from repro.core.preconditioner import NystromPreconditioner
from repro.exceptions import ConfigurationError
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel
from repro.linalg import nystrom_extension, top_eigensystem


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((200, 6))
    kernel = GaussianKernel(bandwidth=2.0)
    # Exact subsample = all data, so spectral statements are exact.
    ext = nystrom_extension(kernel, x, 200, 30, indices=np.arange(200))
    return kernel, x, ext


class TestConstruction:
    def test_d_scale_formula(self, setup):
        _, _, ext = setup
        p = NystromPreconditioner(ext, 10)
        sig = ext.eigvals[:10]
        expected = (1 - sig[9] / sig) / sig
        np.testing.assert_allclose(p.d_scale, expected, rtol=1e-12)
        assert p.d_scale[-1] == pytest.approx(0.0, abs=1e-15)

    def test_lambda_top(self, setup):
        _, _, ext = setup
        p = NystromPreconditioner(ext, 10)
        assert p.lambda_top == pytest.approx(ext.eigvals[9] / 200)

    def test_memory_scalars(self, setup):
        _, _, ext = setup
        p = NystromPreconditioner(ext, 8)
        assert p.memory_scalars == 200 * 8 + 16

    def test_q_bounds(self, setup):
        _, _, ext = setup
        with pytest.raises(ConfigurationError):
            NystromPreconditioner(ext, 0)
        with pytest.raises(ConfigurationError):
            NystromPreconditioner(ext, 31)


class TestModifiedKernelSpectrum:
    def test_top_eigenvalue_flattened_to_lambda_q(self, setup):
        """lambda_1(K_G) = lambda_q(K) — the defining property."""
        kernel, x, ext = setup
        q = 12
        p = NystromPreconditioner(ext, q)
        kg = p.modified_kernel(x, x)
        vals_g, _ = top_eigensystem(kg, 1)
        vals_k, _ = top_eigensystem(kernel(x, x), q)
        assert vals_g[0] == pytest.approx(vals_k[q - 1], rel=1e-6)

    def test_psd(self, setup):
        _, x, ext = setup
        p = NystromPreconditioner(ext, 15)
        kg = p.modified_kernel(x, x)
        eigs = np.linalg.eigvalsh((kg + kg.T) / 2)
        assert eigs.min() > -1e-8 * eigs.max()

    def test_tail_spectrum_untouched(self, setup):
        """Top-q eigenvalues all flatten to lambda_q; eigenvalues beyond q
        are unchanged (Eq. 6)."""
        kernel, x, ext = setup
        q = 10
        p = NystromPreconditioner(ext, q)
        vals_k, _ = top_eigensystem(kernel(x, x), 20)
        vals_g = np.linalg.eigvalsh(p.modified_kernel(x, x))[::-1]
        np.testing.assert_allclose(
            vals_g[:q], np.full(q, vals_k[q - 1]), rtol=1e-6
        )
        np.testing.assert_allclose(vals_g[q:20], vals_k[q:20], rtol=1e-5)

    def test_q1_is_identity(self, setup):
        kernel, x, ext = setup
        p = NystromPreconditioner(ext, 1)
        np.testing.assert_allclose(
            p.modified_kernel(x[:50], x[:50]),
            kernel(x[:50], x[:50]),
            atol=1e-10,
        )

    def test_modified_diag_matches_matrix(self, setup):
        _, x, ext = setup
        p = NystromPreconditioner(ext, 9)
        np.testing.assert_allclose(
            p.modified_diag(x[:40]),
            np.diag(p.modified_kernel(x[:40], x[:40])),
            atol=1e-10,
        )

    def test_beta_kg_close_to_beta_k(self, setup):
        """The paper's empirical note: beta(K_G) ≈ beta(K)."""
        _, x, ext = setup
        p = NystromPreconditioner(ext, 12)
        beta_kg = p.beta_kg(x)
        assert 0.5 < beta_kg <= 1.0 + 1e-9

    def test_critical_batch_size_raised(self, setup):
        """m*(k_G) = beta(K_G)/lambda_q >> m*(k) — the whole point."""
        _, x, ext = setup
        q = 20
        p = NystromPreconditioner(ext, q)
        m_star_orig = 1.0 / ext.operator_eigenvalues[0]
        m_star_new = p.beta_kg(x) / p.lambda_top
        assert m_star_new > 5 * m_star_orig


class TestCorrection:
    def test_shapes(self, setup):
        _, x, ext = setup
        p = NystromPreconditioner(ext, 7)
        phi = np.random.default_rng(0).standard_normal((13, 200))
        g = np.random.default_rng(1).standard_normal((13, 3))
        out = p.correction(phi, g)
        assert out.shape == (200, 3)

    def test_matches_dense_formula(self, setup):
        self.test_matches_dense_across_label_counts(setup, 2)

    @pytest.mark.parametrize("l", [3, 12, 1], ids=["l<q", "l>q", "l=1"])
    def test_matches_dense_across_label_counts(self, setup, l):
        """The right-to-left chain equals the dense product to rounding,
        whether the label count is below, above or at one."""
        _, x, ext = setup
        q = 7
        p = NystromPreconditioner(ext, q)
        rng = np.random.default_rng(2)
        phi = rng.standard_normal((5, 200))
        g = rng.standard_normal((5, l))
        v = ext.eigvecs[:, :q]
        d = np.diag(p.d_scale)
        expected = v @ d @ v.T @ phi.T @ g
        out = p.correction(phi, g)
        assert out.shape == (200, l)
        err = np.linalg.norm(out - expected) / np.linalg.norm(expected)
        assert err <= 1e-12

    @pytest.mark.parametrize("m,l", [(13, 3), (4, 12), (9, 1)])
    def test_metered_ops_match_cost_model(self, setup, m, l):
        """The correction records exactly the executed chain's count,
        ``s*m*l + 2*s*q*l`` (Table 1's exact improved overhead)."""
        _, _, ext = setup
        p = NystromPreconditioner(ext, 7)
        rng = np.random.default_rng(3)
        with meter_scope() as meter:
            p.correction(rng.standard_normal((m, 200)), rng.standard_normal((m, l)))
        assert meter.total("precond") == exact_improved_overhead_ops(m, l, 200, 7)

    def test_zero_residual_zero_correction(self, setup):
        _, _, ext = setup
        p = NystromPreconditioner(ext, 5)
        phi = np.ones((4, 200))
        out = p.correction(phi, np.zeros((4, 2)))
        np.testing.assert_array_equal(out, 0.0)

    def test_shape_validation(self, setup):
        _, _, ext = setup
        p = NystromPreconditioner(ext, 5)
        with pytest.raises(ConfigurationError):
            p.correction(np.zeros((4, 199)), np.zeros((4, 1)))
        with pytest.raises(ConfigurationError):
            p.correction(np.zeros((4, 200)), np.zeros((3, 1)))


class TestPhiGather:
    """Drawn subsample indices are sorted, so the subsample a seed draws
    (and every parameter selected from it) does not depend on the order
    the draw returns; a trainer holds them first, in this order, as the
    leading columns of Phi."""

    def test_drawn_indices_sorted_same_points_as_rng_choice(self, setup):
        kernel, x, _ = setup
        for seed in (0, 7, 123):
            ext = nystrom_extension(kernel, x, 64, 5, seed=seed)
            drawn = np.random.default_rng(seed).choice(200, size=64, replace=False)
            assert np.all(np.diff(ext.indices) > 0)
            np.testing.assert_array_equal(ext.indices, np.sort(drawn))
            np.testing.assert_array_equal(ext.points, x[ext.indices])

    def test_explicit_indices_keep_caller_order(self, setup):
        kernel, x, _ = setup
        idx = np.random.default_rng(5).choice(200, size=40, replace=False)
        assert np.any(np.diff(idx) < 0)  # genuinely unsorted
        ext = nystrom_extension(kernel, x, 40, 5, indices=idx)
        np.testing.assert_array_equal(ext.indices, idx)
        np.testing.assert_array_equal(ext.points, x[idx])


class TestSolutionInvariance:
    """Remark 2.3: preconditioned gradient descent on ``P K alpha = P y``
    has the *same* unique solution ``K^{-1} y`` as the unpreconditioned
    problem — only faster.  The matrix preconditioner built from the exact
    eigensystem is ``P = I - sum_{i<=q} (1 - mu_q/mu_i) v_i v_i^T``.
    """

    @staticmethod
    def _p_matrix(k_mat, q):
        mu, v = top_eigensystem(k_mat, q)
        n = k_mat.shape[0]
        return np.eye(n) - (v * (1 - mu[q - 1] / mu)) @ v.T, mu

    def test_fixed_point_is_the_interpolant(self, setup):
        """PK is similar to a symmetric PD matrix, so gradient descent with
        gamma = 1/mu_q converges to the unique fixed point K^{-1} y: all
        eigenvalues of gamma*PK lie in (0, 1]."""
        kernel, x, _ = setup
        k_mat = kernel(x, x)
        q = 15
        p_mat, mu = self._p_matrix(k_mat, q)
        pk_eigs = np.linalg.eigvals(p_mat @ k_mat)
        assert np.abs(pk_eigs.imag).max() < 1e-8
        scaled = pk_eigs.real / mu[q - 1]
        assert scaled.max() < 1.0 + 1e-8  # stable
        assert scaled.min() > 0.0  # P invertible: same unique solution

    def test_converges_to_interpolant_on_reachable_target(self, setup):
        """For a target in the span of well-conditioned eigendirections,
        preconditioned GD reaches the exact interpolant's predictions."""
        kernel, x, _ = setup
        n = x.shape[0]
        k_mat = kernel(x, x)
        mu30, v30 = top_eigensystem(k_mat, 30)
        rng = np.random.default_rng(3)
        coef = v30 @ rng.standard_normal((30, 1))  # alpha* in top-30 span
        y = k_mat @ coef
        q = 15
        p_mat, mu = self._p_matrix(k_mat, q)
        gamma = 1.0 / mu[q - 1]
        alpha = np.zeros_like(y)
        for _ in range(800):
            alpha += gamma * (p_mat @ (y - k_mat @ alpha))
        test_pts = rng.standard_normal((30, 6))
        np.testing.assert_allclose(
            kernel(test_pts, x) @ alpha,
            kernel(test_pts, x) @ coef,
            atol=1e-6,
        )

    def test_preconditioning_accelerates(self, setup):
        """Same iteration count: the preconditioned residual is orders of
        magnitude smaller than plain gradient descent's — the Appendix-C
        mu_q/mu_1 iteration-ratio effect."""
        kernel, x, _ = setup
        k_mat = kernel(x, x)
        mu30, v30 = top_eigensystem(k_mat, 30)
        rng = np.random.default_rng(4)
        y = k_mat @ (v30 @ rng.standard_normal((30, 1)))
        q = 15
        p_mat, mu = self._p_matrix(k_mat, q)

        def run(step, precond, iters=60):
            a = np.zeros_like(y)
            for _ in range(iters):
                r = y - k_mat @ a
                a += step * (p_mat @ r if precond else r)
            return float(np.linalg.norm(k_mat @ a - y))

        plain = run(1.0 / mu[0], precond=False)
        fast = run(1.0 / mu[q - 1], precond=True)
        assert fast < plain / 10
