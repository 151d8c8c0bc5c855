"""Backend-parity suite: NumPy and Torch must agree on the whole substrate.

The pluggable backend layer (:mod:`repro.backend`) only earns its keep if
every backend computes the *same numbers* — the paper's algorithm is
deterministic given the seed, and all randomness (subsample draws, batch
shuffles, sketches, start vectors) is drawn with NumPy generators and
pushed to the backend.  These tests therefore assert elementwise closeness
between backends for each layer of the stack: pairwise distances, all five
kernels, the blocked matvec, the Nyström extension, and a short EigenPro2
fit — plus the backend-invariance of :class:`~repro.instrument.OpMeter`
counts that the Table-1 cost-model validation relies on.

When torch is not installed every cross-backend test *skips* (never
fails); the NumPy-only contract tests at the bottom still run.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro import EigenPro2
from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    backend_of,
    get_backend,
    resolve_backend,
    set_backend,
    to_numpy,
    use_backend,
)
from repro.config import get_precision, use_precision
from repro.exceptions import BackendUnavailableError, ConfigurationError
from repro.instrument import meter_scope
from repro.kernels import (
    CauchyKernel,
    GaussianKernel,
    LaplacianKernel,
    MaternKernel,
    PolynomialKernel,
    kernel_matvec,
)
from repro.kernels.pairwise import euclidean_distances, sq_euclidean_distances
from repro.linalg import nystrom_extension

HAS_TORCH = importlib.util.find_spec("torch") is not None

requires_torch = pytest.mark.skipif(
    not HAS_TORCH, reason="torch not installed — Torch backend unavailable"
)

ALL_KERNELS = [
    GaussianKernel(bandwidth=2.0),
    LaplacianKernel(bandwidth=2.0),
    CauchyKernel(bandwidth=2.0),
    MaternKernel(bandwidth=2.0, nu=1.5),
    PolynomialKernel(degree=2, gamma=0.1, coef0=1.0),
]
KERNEL_IDS = ["gaussian", "laplacian", "cauchy", "matern", "polynomial"]


@pytest.fixture(scope="module")
def xz():
    rng = np.random.default_rng(42)
    return rng.standard_normal((60, 7)), rng.standard_normal((35, 7))


def run_on(backend_name: str, fn):
    """Run ``fn`` under the named backend and return NumPy results."""
    with use_backend(backend_name):
        result = fn()
    if isinstance(result, tuple):
        return tuple(to_numpy(r) for r in result)
    return to_numpy(result)


# --------------------------------------------------------------------------
# Cross-backend parity (skipped without torch)
# --------------------------------------------------------------------------


@requires_torch
class TestPairwiseParity:
    def test_sq_euclidean(self, xz):
        x, z = xz
        ref = run_on("numpy", lambda: sq_euclidean_distances(x, z))
        got = run_on("torch", lambda: sq_euclidean_distances(x, z))
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_euclidean(self, xz):
        x, z = xz
        ref = run_on("numpy", lambda: euclidean_distances(x, z))
        got = run_on("torch", lambda: euclidean_distances(x, z))
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_precomputed_norms(self, xz):
        x, z = xz
        z_norms = np.einsum("ij,ij->i", z, z)
        ref = run_on("numpy", lambda: sq_euclidean_distances(x, z, z_sq_norms=z_norms))
        got = run_on("torch", lambda: sq_euclidean_distances(x, z, z_sq_norms=z_norms))
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


@requires_torch
class TestKernelParity:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=KERNEL_IDS)
    def test_cross_matrix(self, kernel, xz):
        x, z = xz
        ref = run_on("numpy", lambda: kernel(x, z))
        got = run_on("torch", lambda: kernel(x, z))
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=KERNEL_IDS)
    def test_diag(self, kernel, xz):
        x, _ = xz
        ref = run_on("numpy", lambda: kernel.diag(x))
        got = run_on("torch", lambda: kernel.diag(x))
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_float32_precision_scope(self, xz):
        x, z = xz
        kernel = GaussianKernel(bandwidth=2.0)

        def f32():
            with use_precision("float32"):
                return kernel(x, z)

        ref = run_on("numpy", f32)
        got = run_on("torch", f32)
        assert ref.dtype == np.float32 and got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)


@requires_torch
class TestOpsParity:
    def test_kernel_matvec(self, xz):
        x, z = xz
        rng = np.random.default_rng(0)
        w = rng.standard_normal((z.shape[0], 3))
        kernel = LaplacianKernel(bandwidth=2.0)
        ref = run_on(
            "numpy", lambda: kernel_matvec(kernel, x, z, w, max_scalars=200)
        )
        got = run_on(
            "torch", lambda: kernel_matvec(kernel, x, z, w, max_scalars=200)
        )
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_nystrom_extension(self, xz):
        x, _ = xz
        kernel = GaussianKernel(bandwidth=2.0)

        def build():
            ext = nystrom_extension(kernel, x, subsample_size=30, q=5, seed=0)
            return ext.eigvals, ext.eigenfunction_values(x)

        ref_vals, ref_funcs = run_on("numpy", build)
        got_vals, got_funcs = run_on("torch", build)
        np.testing.assert_allclose(got_vals, ref_vals, rtol=1e-8, atol=1e-10)
        # Eigenvectors are sign-ambiguous; compare magnitudes.
        np.testing.assert_allclose(
            np.abs(got_funcs), np.abs(ref_funcs), rtol=1e-6, atol=1e-8
        )


@requires_torch
class TestTrainingParity:
    def test_short_eigenpro2_fit(self, small_dataset):
        ds = small_dataset

        def fit():
            model = EigenPro2(
                LaplacianKernel(bandwidth=4.0), s=100, q=20, seed=0
            )
            model.fit(ds.x_train, ds.y_train, epochs=2)
            return model.predict(ds.x_test)

        ref = run_on("numpy", fit)
        got = run_on("torch", fit)
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-8)

    def test_op_counts_identical_for_one_epoch(self, small_dataset):
        """The archetype invariant: a metered EigenPro2 epoch reports the
        same op counts on every backend (cost model is shape-derived)."""
        ds = small_dataset
        counts = {}
        for name in available_backends():
            with use_backend(name), meter_scope() as meter:
                model = EigenPro2(
                    LaplacianKernel(bandwidth=4.0), s=100, q=20, seed=0
                )
                model.fit(ds.x_train, ds.y_train, epochs=1)
            counts[name] = meter.as_dict()
        assert counts["torch"] == counts["numpy"]


@pytest.fixture(scope="module")
def svm_problem():
    """A small, well-separated 2-class problem: large margins make the
    SMO pair selection and the Pegasos margin tests robust to sub-ulp
    backend differences, so whole trajectories match across backends."""
    gen = np.random.default_rng(5)
    x = np.concatenate(
        [
            gen.standard_normal((40, 4)) + 3.0,
            gen.standard_normal((40, 4)) - 3.0,
        ]
    )
    y = np.concatenate([np.ones(40, dtype=np.intp), np.zeros(40, dtype=np.intp)])
    return x, y


@requires_torch
class TestBaselineSolversParity:
    """SMO and Pegasos — the last NumPy-only baselines — now evaluate
    their kernels through the backend layer: the whole ``baselines/``
    package is backend-clean."""

    def test_smo_matches_numpy(self, svm_problem):
        from repro.baselines import SMOSVM

        x, y = svm_problem

        def fit():
            svm = SMOSVM(GaussianKernel(bandwidth=3.0), max_iter=2000)
            svm.fit(x, y)
            return svm

        with use_backend("numpy"):
            ref = fit()
        with use_backend("torch"):
            got = fit()
        # Identical trajectories, not just similar solutions.
        assert got.stats_.iterations == ref.stats_.iterations
        assert got.converged_ == ref.converged_
        np.testing.assert_allclose(
            got.dual_coef_, ref.dual_coef_, atol=1e-8, rtol=0
        )
        np.testing.assert_allclose(
            got.intercepts_, ref.intercepts_, atol=1e-8, rtol=0
        )
        d_ref = np.asarray(ref.decision_function(x))
        with use_backend("torch"):
            d_got = to_numpy(got.decision_function(x))
        np.testing.assert_allclose(d_got, d_ref, atol=1e-6, rtol=0)

    def test_pegasos_matches_numpy(self, svm_problem):
        from repro.baselines import PegasosSVM

        x, y = svm_problem

        def fit():
            svm = PegasosSVM(
                GaussianKernel(bandwidth=3.0), reg_lambda=1e-3,
                batch_size=16, seed=0,
            )
            svm.fit(x, y, epochs=3)
            return svm

        with use_backend("numpy"):
            ref = fit()
        with use_backend("torch"):
            got = fit()
        np.testing.assert_allclose(
            np.asarray(to_numpy(got.model_.weights)),
            np.asarray(ref.model_.weights),
            atol=1e-10,
            rtol=0,
        )
        assert got.classification_error(x, y) == ref.classification_error(x, y)

    def test_smo_op_counts_backend_invariant(self, svm_problem):
        from repro.baselines import SMOSVM

        x, y = svm_problem
        counts = {}
        for name in available_backends():
            with use_backend(name), meter_scope() as meter:
                SMOSVM(GaussianKernel(bandwidth=3.0), max_iter=500).fit(x, y)
            counts[name] = meter.as_dict()
        assert counts["torch"] == counts["numpy"]


class TestBaselineSolversInShardExecutors:
    """Backend-clean baselines run unchanged inside shard executors (each
    owning a private backend instance) — always-on NumPy coverage."""

    def test_smo_inside_shard_executor(self, svm_problem):
        from repro.baselines import SMOSVM
        from repro.shard import ShardGroup

        x, y = svm_problem
        ref = SMOSVM(GaussianKernel(bandwidth=3.0), max_iter=500).fit(x, y)
        with ShardGroup.build(x, g=2) as group:
            fitted = group.map(
                lambda worker: SMOSVM(
                    GaussianKernel(bandwidth=3.0), max_iter=500
                ).fit(x, y)
            )
        for svm in fitted:
            np.testing.assert_allclose(
                svm.dual_coef_, ref.dual_coef_, atol=1e-12, rtol=0
            )

    def test_pegasos_inside_shard_executor(self, svm_problem):
        from repro.baselines import PegasosSVM
        from repro.shard import ShardGroup

        x, y = svm_problem
        ref = PegasosSVM(
            GaussianKernel(bandwidth=3.0), reg_lambda=1e-3, batch_size=16,
            seed=0,
        ).fit(x, y, epochs=2)
        with ShardGroup.build(x, g=2) as group:
            fitted = group.map(
                lambda worker: PegasosSVM(
                    GaussianKernel(bandwidth=3.0), reg_lambda=1e-3,
                    batch_size=16, seed=0,
                ).fit(x, y, epochs=2)
            )
        for svm in fitted:
            np.testing.assert_allclose(
                np.asarray(svm.model_.weights),
                np.asarray(ref.model_.weights),
                atol=1e-12,
                rtol=0,
            )


# --------------------------------------------------------------------------
# Backend API contract (always runs, torch or not)
# --------------------------------------------------------------------------


class TestBackendRegistry:
    def test_default_is_numpy(self):
        assert get_backend().name == "numpy"

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_use_backend_scopes_and_restores(self):
        outer = get_backend()
        with use_backend("numpy") as bk:
            assert get_backend() is bk
        assert get_backend() is outer

    def test_set_backend_roundtrip(self):
        try:
            set_backend("numpy")
            assert get_backend().name == "numpy"
        finally:
            set_backend(None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("tpu")

    def test_numpy_backend_takes_no_device(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("numpy:cuda")

    def test_missing_torch_raises_cleanly(self):
        if HAS_TORCH:
            pytest.skip("torch installed — unavailability path not testable")
        with pytest.raises(BackendUnavailableError):
            resolve_backend("torch")

    def test_backend_of_numpy_array(self):
        assert backend_of(np.zeros(3)) is resolve_backend("numpy")

    def test_instance_spec_passthrough(self):
        bk = NumpyBackend()
        assert resolve_backend(bk) is bk


class TestNumpyBackendContract:
    """The ArrayBackend surface, pinned on the reference implementation."""

    def test_roundtrip(self):
        bk = resolve_backend("numpy")
        x = [[1.0, 2.0], [3.0, 4.0]]
        np.testing.assert_array_equal(bk.to_numpy(bk.asarray(x)), np.asarray(x))

    def test_top_eigh_descending(self):
        bk = resolve_backend("numpy")
        a = np.diag([1.0, 3.0, 2.0])
        vals, vecs = bk.top_eigh(a, 2)
        np.testing.assert_allclose(vals, [3.0, 2.0])
        assert vecs.shape == (3, 2)

    def test_cholesky_failure_unified(self):
        from repro.exceptions import BackendLinAlgError

        bk = resolve_backend("numpy")
        with pytest.raises(BackendLinAlgError):
            bk.cholesky(np.array([[1.0, 2.0], [2.0, -5.0]]))

    def test_empty_uses_active_precision(self):
        bk = resolve_backend("numpy")
        with use_precision("float32"):
            assert bk.empty((2, 2)).dtype == np.float32
        assert bk.empty((2, 2)).dtype == get_precision()


class TestPrecisionSwitch:
    def test_float32_inputs_not_promoted(self, xz):
        """The historical bug: float32 inputs silently upcast to float64."""
        x, z = xz
        d = sq_euclidean_distances(x.astype(np.float32), z.astype(np.float32))
        assert d.dtype == np.float32

    def test_float64_default_unchanged(self, xz):
        x, z = xz
        assert sq_euclidean_distances(x, z).dtype == np.float64

    def test_explicit_precision_overrides_inputs(self, xz):
        x, z = xz
        with use_precision("float32"):
            assert sq_euclidean_distances(x, z).dtype == np.float32
        with use_precision("float64"):
            d = sq_euclidean_distances(x.astype(np.float32), z.astype(np.float32))
        assert d.dtype == np.float64

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=KERNEL_IDS)
    def test_kernels_follow_input_dtype(self, kernel, xz):
        x, z = xz
        out32 = kernel(x.astype(np.float32), z.astype(np.float32))
        assert out32.dtype == np.float32
        out64 = kernel(x, z)
        assert out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, atol=1e-4)

    def test_float32_values_match_float64(self, xz):
        x, z = xz
        k = LaplacianKernel(bandwidth=2.0)
        ref = k(x, z)
        with use_precision("float32"):
            got = k(x, z)
        np.testing.assert_allclose(got, ref, atol=1e-4)


# --------------------------------------------------------------------------
# Precision tiers: float64 (bitwise) / float32 (documented bound)
# --------------------------------------------------------------------------


def _tier_fit(ds, precision=None):
    """One short EigenPro2 fit under the given precision tier; returns the
    fitted model and its NumPy test-set predictions."""

    def fit():
        model = EigenPro2(LaplacianKernel(bandwidth=4.0), s=100, q=20, seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=2)
        return model, np.asarray(to_numpy(model.predict(ds.x_test)))

    if precision is None:
        return fit()
    with use_precision(precision):
        return fit()


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


class TestPrecisionTierNumerics:
    """The tolerance-tier contract for ``use_precision``:

    - ``float64`` is the *reference* tier — an explicit float64 scope is
      bitwise identical to the ambient default;
    - ``float32`` runs every array at single precision and lands within a
      documented relative-error bound of the float64 trajectory.
    """

    #: Relative-error ceiling for the float32 tier against the float64
    #: trajectory of the same seeded fit.  fp32 kernel blocks give ~1e-6
    #: per-block error; two epochs of SGD amplify that, and 1e-2 is the
    #: documented (loose, stable) ceiling the tier must stay under.
    REDUCED_TIER_RTOL = 1e-2

    def test_float64_scope_is_bitwise_reference(self, small_dataset):
        _, ref = _tier_fit(small_dataset, None)
        _, got = _tier_fit(small_dataset, "float64")
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("tier", ["float32"])
    def test_reduced_tiers_track_float64(self, small_dataset, tier):
        _, ref = _tier_fit(small_dataset, None)
        _, got = _tier_fit(small_dataset, tier)
        assert np.all(np.isfinite(got))
        assert _rel_err(got, ref) < self.REDUCED_TIER_RTOL

    def test_float32_state_is_float32(self, small_dataset):
        model, _ = _tier_fit(small_dataset, "float32")
        assert np.asarray(to_numpy(model.model_.weights)).dtype == np.float32


# --------------------------------------------------------------------------
# Fused hot path: backend entry points vs the decomposed chain
# --------------------------------------------------------------------------


def _decomposed(kernel, x, z):
    """``kernel(x, z)`` formed by the base class's decomposed chain on
    the active backend, bypassing any fused override."""
    profile, scale = kernel.fused_spec
    return ArrayBackend.fused_kernel_block(
        get_backend(), x, z, profile=profile, scale=scale
    )


class _DecomposedNumpy(NumpyBackend):
    """NumPy with the base class's decomposed block former."""

    fused_kernel_block = ArrayBackend.fused_kernel_block


class TestFusedHotPathNumpy:
    """NumPy is the reference: its fused entry points *decompose* to the
    historical pooled-workspace chain, so fused and decomposed evaluation
    are bitwise identical and op counts never depend on the path."""

    def test_fused_specs_advertised(self):
        assert GaussianKernel(bandwidth=2.0).fused_spec == (
            "gaussian",
            -0.5 / 4.0,
        )
        assert LaplacianKernel(bandwidth=2.0).fused_spec == (
            "laplacian",
            -0.5,
        )
        assert CauchyKernel(bandwidth=2.0).fused_spec is None
        assert PolynomialKernel(degree=2, gamma=0.1, coef0=1.0).fused_spec is None

    @pytest.mark.parametrize(
        "kernel", ALL_KERNELS[:2], ids=KERNEL_IDS[:2]
    )
    def test_fusion_switch_is_bitwise_invisible(self, kernel, xz):
        x, z = xz
        np.testing.assert_array_equal(kernel(x, z), _decomposed(kernel, x, z))

    def test_fused_block_matches_kernel_call(self, xz):
        x, z = xz
        bk = get_backend()
        for kernel in (GaussianKernel(bandwidth=2.0), LaplacianKernel(bandwidth=2.0)):
            profile, scale = kernel.fused_spec
            block = bk.fused_kernel_block(x, z, profile=profile, scale=scale)
            np.testing.assert_array_equal(
                np.asarray(block), np.asarray(kernel(x, z))
            )

    def test_fused_matvec_decomposes_to_block_matmul(self, xz):
        x, z = xz
        rng = np.random.default_rng(1)
        w = rng.standard_normal((z.shape[0], 2))
        kernel = GaussianKernel(bandwidth=2.0)
        got = kernel_matvec(kernel, x, z, w)  # one block
        np.testing.assert_array_equal(
            np.asarray(got), np.asarray(kernel(x, z)) @ w
        )
        with use_backend(_DecomposedNumpy()):
            decomposed = kernel_matvec(kernel, x, z, w)
        np.testing.assert_array_equal(np.asarray(decomposed), np.asarray(got))

    def test_unknown_profile_rejected(self, xz):
        x, z = xz
        with pytest.raises(ConfigurationError):
            get_backend().fused_kernel_block(
                x, z, profile="cauchy", scale=-1.0
            )

    def test_fused_matvec_with_precomputed_norms(self, xz):
        x, z = xz
        rng = np.random.default_rng(2)
        w = rng.standard_normal((z.shape[0],))
        kernel = LaplacianKernel(bandwidth=2.0)
        ref = kernel_matvec(kernel, x, z, w, max_scalars=300)
        z_norms = np.einsum("ij,ij->i", z, z)
        got = kernel_matvec(
            kernel, x, z, w, max_scalars=300, z_sq_norms=z_norms
        )
        np.testing.assert_array_equal(np.asarray(got), np.asarray(ref))

    def test_op_counts_invariant_under_fusion_switch(self, xz):
        x, z = xz
        rng = np.random.default_rng(3)
        w = rng.standard_normal((z.shape[0], 2))
        kernel = GaussianKernel(bandwidth=2.0)
        with meter_scope() as fused_meter:
            kernel_matvec(kernel, x, z, w, max_scalars=300)
        with use_backend(_DecomposedNumpy()), meter_scope() as decomposed_meter:
            kernel_matvec(kernel, x, z, w, max_scalars=300)
        assert fused_meter.as_dict() == decomposed_meter.as_dict()


@requires_torch
class TestFusedHotPathTorch:
    """Torch's override (torch.compile with an eager fused fallback) must
    preserve the elementwise op order: fused float64 blocks stay bitwise
    identical to the decomposed chain *on the torch backend*, and parity
    with NumPy holds to the usual cross-backend tolerance."""

    @pytest.mark.parametrize(
        "kernel", ALL_KERNELS[:2], ids=KERNEL_IDS[:2]
    )
    def test_fused_bitwise_vs_unfused_on_torch(self, kernel, xz):
        x, z = xz

        def both():
            return kernel(x, z), _decomposed(kernel, x, z)

        fused, decomposed = run_on("torch", both)
        np.testing.assert_array_equal(fused, decomposed)

    @pytest.mark.parametrize(
        "kernel", ALL_KERNELS[:2], ids=KERNEL_IDS[:2]
    )
    def test_fused_cross_backend_parity(self, kernel, xz):
        x, z = xz
        ref = run_on("numpy", lambda: kernel(x, z))
        got = run_on("torch", lambda: kernel(x, z))
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_fused_float32_scope(self, xz):
        x, z = xz
        kernel = GaussianKernel(bandwidth=2.0)

        def float32_block():
            with use_precision("float32"):
                return kernel(x, z)

        ref = run_on("numpy", float32_block)
        got = run_on("torch", float32_block)
        assert ref.dtype == np.float32 and got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)
