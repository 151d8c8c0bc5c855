"""Tests for the plain-SGD and original-EigenPro baselines."""

import numpy as np
import pytest

from repro.baselines import EigenPro1, KernelSGD
from repro.core.cost import exact_original_overhead_ops
from repro.device import titan_xp
from repro.exceptions import ConfigurationError
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel


class TestKernelSGDSetup:
    def test_auto_batch_is_critical_size(self, medium_dataset):
        """Plain SGD's automatic batch size is m*(k) — tiny (paper: < 10
        for practical kernels)."""
        ds = medium_dataset
        t = KernelSGD(GaussianKernel(bandwidth=2.5), seed=0)
        t.fit(ds.x_train, ds.y_train, epochs=1)
        assert t.batch_size_ == round(t.m_star_)
        assert t.batch_size_ < 30

    def test_exposes_spectral_estimates(self, medium_dataset):
        ds = medium_dataset
        t = KernelSGD(GaussianKernel(bandwidth=2.5), seed=0)
        t.fit(ds.x_train, ds.y_train, epochs=1)
        assert t.beta_ == 1.0
        assert t.lambda1_ > 0
        assert t.m_star_ == pytest.approx(t.beta_ / t.lambda1_)

    def test_converges_to_interpolation(self, small_xy):
        x, y = small_xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        t.fit(x, y, epochs=500, stop_train_mse=5e-5)
        assert t.mse(x, y) < 1e-4

    def test_large_batch_wastes_epochs(self, medium_dataset):
        """Beyond m*, increasing batch size does NOT reduce the number of
        epochs needed — the saturation phenomenon of Ma et al. 2017.
        With the same epoch budget, m >> m* leaves higher training loss
        per epoch count than m = m* (here: fewer, not-better updates)."""
        ds = medium_dataset
        kernel = GaussianKernel(bandwidth=2.5)
        at_mstar = KernelSGD(kernel, seed=0).fit(
            ds.x_train, ds.y_train, epochs=3
        )
        huge = KernelSGD(kernel, batch_size=400, seed=0).fit(
            ds.x_train, ds.y_train, epochs=3
        )
        assert at_mstar.mse(ds.x_train, ds.y_train) < huge.mse(
            ds.x_train, ds.y_train
        )


class TestEigenPro1:
    def test_converges(self, medium_dataset):
        ds = medium_dataset
        t = EigenPro1(GaussianKernel(bandwidth=2.5), q=60, seed=0)
        t.fit(ds.x_train, ds.y_train, epochs=8)
        assert t.mse(ds.x_train, ds.y_train) < 0.01

    def test_eigvec_representation_is_n_by_q(self, medium_dataset):
        """The defining (bad) property: the eigenvector representation is
        dense over all n points (Table 1's n*q memory)."""
        ds = medium_dataset
        t = EigenPro1(GaussianKernel(bandwidth=2.5), q=40, seed=0)
        t.fit(ds.x_train, ds.y_train, epochs=1)
        assert t.eigvecs_full_.shape == (ds.n_train, 40)

    def test_overhead_ops_scale_with_n(self, medium_dataset):
        ds = medium_dataset
        q = 30
        t = EigenPro1(
            GaussianKernel(bandwidth=2.5), q=q, batch_size=50, seed=0
        )
        with meter_scope() as meter:
            t.fit(ds.x_train, ds.y_train, epochs=1, max_iterations=1)
        expected = exact_original_overhead_ops(ds.n_train, 50, ds.l, q)
        assert meter.total("precond") == expected

    def test_device_memory_includes_nq(self, medium_dataset):
        ds = medium_dataset
        dev = titan_xp()
        t = EigenPro1(
            GaussianKernel(bandwidth=2.5), q=30, device=dev, batch_size=50,
            seed=0,
        )
        t.fit(ds.x_train, ds.y_train, epochs=1)
        n, d, l = ds.n_train, ds.d, ds.l
        assert dev.memory.peak == pytest.approx(n * (d + l + 50) + n * 30)

    def test_q_validation(self):
        with pytest.raises(ConfigurationError):
            EigenPro1(GaussianKernel(bandwidth=1.0), q=1)

    def test_setup_builds_no_beta_table(self, medium_dataset, monkeypatch):
        """EigenPro 1.0 reads the subsample pairs only: its setup runs
        no ``K_s V`` product and no ``beta`` table, and its eigenvectors
        are those of the full extension's pairs."""
        import repro.linalg.nystrom as nystrom

        ds = medium_dataset
        kernel = GaussianKernel(bandwidth=2.5)
        ext = nystrom.nystrom_extension(kernel, ds.x_train, 200, 40, seed=0)
        e_vals = ext.eigenfunction_values(ds.x_train)

        def no_table(*args, **kwargs):
            raise AssertionError("EigenPro1 built a beta table")

        monkeypatch.setattr(nystrom, "beta_table", no_table)
        t = EigenPro1(kernel, q=40, s=200, seed=0)
        t._setup(ds.x_train, ds.y_train)
        np.testing.assert_array_equal(
            t.eigvecs_full_, e_vals / np.linalg.norm(e_vals, axis=0)
        )
        assert t.lambda_q_ == float(ext.operator_eigenvalues[-1])

    def test_faster_convergence_than_sgd_per_iteration(self, medium_dataset):
        """At the same batch size and iteration count, preconditioning
        must win (it's the same machinery as EigenPro 2.0)."""
        ds = medium_dataset
        kernel = GaussianKernel(bandwidth=2.5)
        m = 100
        ep1 = EigenPro1(kernel, q=60, batch_size=m, seed=0).fit(
            ds.x_train, ds.y_train, epochs=4
        )
        from repro.baselines import KernelSGD

        sgd = KernelSGD(kernel, batch_size=m, seed=0).fit(
            ds.x_train, ds.y_train, epochs=4
        )
        assert ep1.mse(ds.x_train, ds.y_train) < sgd.mse(
            ds.x_train, ds.y_train
        )

    def test_simulated_time_exceeds_eigenpro2(self, medium_dataset):
        """Per-iteration device time: original EigenPro charges the
        n-scaled overhead, the improved version the s-scaled one.  With
        identical batch size and epochs the original must cost more.

        On a Titan Xp this tiny problem is entirely latency-bound (every
        iteration fits in C_G — itself a faithful prediction of the
        model), so the comparison uses a small throughput-bound device
        where operation counts translate into time.
        """
        from repro.core.eigenpro2 import EigenPro2
        from repro.device import DeviceSpec, SimulatedDevice

        def tiny_device():
            return SimulatedDevice(
                DeviceSpec(
                    name="tiny", parallel_capacity=1e4, throughput=1e8,
                    memory_scalars=1e9,
                )
            )

        ds = medium_dataset
        kernel = GaussianKernel(bandwidth=2.5)
        dev1, dev2 = tiny_device(), tiny_device()
        EigenPro1(
            kernel, q=60, batch_size=100, device=dev1, seed=0
        ).fit(ds.x_train, ds.y_train, epochs=2)
        EigenPro2(
            kernel, q=60, s=200, batch_size=100, device=dev2, seed=0
        ).fit(ds.x_train, ds.y_train, epochs=2)
        assert dev1.elapsed > dev2.elapsed
