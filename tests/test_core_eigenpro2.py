"""Tests for the EigenPro 2.0 trainer and its automatic parameter selection."""

import math

import numpy as np
import pytest

from repro.core.eigenpro2 import (
    EigenPro2,
    default_q_max,
    default_subsample_size,
    select_parameters,
)
from repro.core.stepsize import analytic_step_size
from repro.device import DeviceSpec, SimulatedDevice, titan_xp
from repro.exceptions import ConfigurationError
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.kernels.base import Kernel
from repro.observe import Tracer, trace_scope


class TestDefaults:
    def test_subsample_rule_matches_paper(self):
        """Section 5: s = 2e3 for n <= 1e5, s = 1.2e4 beyond."""
        assert default_subsample_size(50_000) == 2000
        assert default_subsample_size(100_000) == 2000
        assert default_subsample_size(100_001) == 12_000
        assert default_subsample_size(500) == 500  # capped at n

    def test_q_max_bounds(self):
        assert default_q_max(2000) == 300
        assert default_q_max(100) == 99
        with pytest.raises(ConfigurationError):
            default_subsample_size(0)
        with pytest.raises(ConfigurationError):
            default_q_max(0)


class TestSelectParameters:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(17)
        return rng.standard_normal((400, 10))

    def test_autoparams_complete(self, data):
        params, precond, ext = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=3, device=titan_xp(), seed=0
        )
        assert params.n == 400 and params.d == 10 and params.l == 3
        assert params.q_adjusted >= params.q
        assert params.m_max >= 1
        assert params.eta > 0
        assert params.beta_k == 1.0
        assert params.m_star_kg > params.m_star_k
        assert params.acceleration > 1

    def test_batch_size_is_m_max(self, data):
        params, _, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=titan_xp(), seed=0
        )
        assert params.batch_size == min(params.m_max, 400)

    def test_small_device_small_batch(self, data):
        """A weaker device must get a smaller m_max and shallower q."""
        weak = SimulatedDevice(
            DeviceSpec(
                name="weak", parallel_capacity=1e5, throughput=1e9,
                memory_scalars=1e9,
            )
        )
        strong = titan_xp()
        p_weak, _, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=weak, seed=0
        )
        p_strong, _, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=strong, seed=0
        )
        assert p_weak.m_max <= p_strong.m_max
        assert p_weak.q <= p_strong.q

    def test_q_override(self, data):
        params, precond, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=titan_xp(),
            q=7, seed=0,
        )
        assert params.q_adjusted == 7
        assert precond is not None and precond.q == 7

    def test_q_zero_disables_preconditioning(self, data):
        params, precond, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=titan_xp(),
            q=0, seed=0,
        )
        assert precond is None
        assert params.lambda_q == params.lambda_1

    def test_eta_about_half_m_relationship(self, data):
        """At the adaptive operating point eta ≈ m/2 for normalized
        kernels (Table 4's pattern), modulo the m <= n clamp and the
        adjusted-q overshoot which only increases eta."""
        params, _, _ = select_parameters(
            GaussianKernel(bandwidth=2.0), data, l=2, device=titan_xp(), seed=0
        )
        assert params.eta >= 0.4 * params.batch_size

    def test_invalid_l(self, data):
        with pytest.raises(ConfigurationError):
            select_parameters(
                GaussianKernel(bandwidth=2.0), data, l=0, device=titan_xp()
            )


def _traced_select(x, s, **kwargs):
    """``select_parameters`` under a meter and a tracer: its result, the
    op counts, and the route of its one ``eigensolve`` span."""
    tracer = Tracer()
    with meter_scope() as meter, trace_scope(tracer):
        out = select_parameters(
            GaussianKernel(bandwidth=4.0), x, l=3, device=titan_xp(), s=s,
            seed=0, **kwargs,
        )
    (ev,) = [e for e in tracer.events if e.name == "eigensolve"]
    return out, meter.as_dict(), ev.attrs["route"]


class TestOnePassSetup:
    """Setup forms the subsample kernel ``K_s`` once: the eigensystem,
    the Eq.-7 table and Step 3's ``beta(K_G)`` all read it."""

    @pytest.mark.parametrize(
        "n, s, route", [(1100, 1024, "float32+ritz"), (300, 120, "float64")]
    )
    def test_kernel_evaluated_once(self, monkeypatch, n, s, route):
        d = 32
        x = np.random.default_rng(5).standard_normal((n, d))
        calls = []
        real_call = Kernel.__call__

        def spy(self, x, z=None, *args, **kwargs):
            calls.append((x.shape[0], x.shape[0] if z is None else z.shape[0]))
            return real_call(self, x, z, *args, **kwargs)

        monkeypatch.setattr(Kernel, "__call__", spy)
        _, ops, got_route = _traced_select(x, s, q_max=100)
        assert got_route == route
        assert ops["kernel_eval"] == s * s * d
        assert calls == [(s, s)]

    @pytest.mark.parametrize("route", ["float32+ritz", "float64"])
    @pytest.mark.parametrize("explicit_q", [False, True])
    def test_beta_kg_is_the_table_entry(self, route, explicit_q):
        """``params.beta_kg`` (the Eq.-7 table's entry at the ``q`` used)
        equals the two-pass ``modified_diag`` maximum over the subsample,
        and so does the step size built from it."""
        n, s, q_max = {
            "float32+ritz": (1100, 1024, 40),
            "float64": (300, 120, 20),
        }[route]
        q = 2 * q_max if explicit_q else None
        x = np.random.default_rng(9).standard_normal((n, 32))
        (params, precond, _), _, got_route = _traced_select(
            x, s, q=q, q_max=q_max
        )
        assert got_route == route
        assert precond is not None
        if explicit_q:
            assert params.q_adjusted == q > q_max
        reference = precond.beta_kg()  # modified_diag over the subsample
        np.testing.assert_allclose(params.beta_kg, reference, rtol=1e-12)
        eta = analytic_step_size(
            params.batch_size, reference, precond.lambda_top
        )
        np.testing.assert_allclose(params.eta, eta, rtol=1e-12)


class TestEigenPro2Training:
    def test_fits_and_interpolates(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=10)
        assert model.mse(ds.x_train, ds.y_train) < 0.01
        err = model.classification_error(ds.x_test, ds.labels_test)
        assert err < 0.5

    def test_less_device_time_to_target_than_sgd(self, medium_dataset):
        """The paper's core claim (Figure 2): simulated device time to a
        train-MSE target is far smaller for EigenPro 2.0 than for plain
        SGD at SGD's own optimal batch size — each EigenPro 2.0 iteration
        costs the same device time as a tiny SGD iteration (both below
        the parallel capacity) but makes ~m_max/m* times the progress."""
        from repro.baselines import KernelSGD
        from repro.device import titan_xp

        ds = medium_dataset
        kernel = GaussianKernel(bandwidth=2.5)
        target = 1e-3
        dev2 = titan_xp()
        ep2 = EigenPro2(kernel, device=dev2, seed=0)
        ep2.fit(ds.x_train, ds.y_train, epochs=100, stop_train_mse=target)
        dev1 = titan_xp()
        sgd = KernelSGD(kernel, device=dev1, seed=0)
        sgd.fit(ds.x_train, ds.y_train, epochs=100, stop_train_mse=target)
        assert ep2.history_.final.train_mse < target
        assert sgd.history_.final.train_mse < target
        assert dev2.elapsed < dev1.elapsed / 3

    def test_params_exposed(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(LaplacianKernel(bandwidth=5.0), seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=1)
        assert model.params_ is not None
        row = model.params_.as_row()
        assert row["kernel"] == "laplacian"
        assert "q (adjusted q)" in row

    def test_prepare_without_training(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), seed=0)
        params = model.prepare(ds.x_train, l=ds.l)
        assert model.model_ is None  # nothing trained
        assert params.batch_size >= 1

    def test_device_memory_includes_preconditioner(self, medium_dataset):
        ds = medium_dataset
        dev = titan_xp()
        model = EigenPro2(GaussianKernel(bandwidth=2.5), device=dev, seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=1)
        n, d, l = ds.n_train, ds.d, ds.l
        m = model.batch_size_
        expected = n * (d + l + m) + model.preconditioner_.memory_scalars
        assert dev.memory.peak == pytest.approx(expected)

    def test_correction_ops_recorded(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), seed=0)
        with meter_scope() as meter:
            model.fit(ds.x_train, ds.y_train, epochs=1)
        assert meter.total("precond") > 0
        assert meter.total("kernel_eval") > 0

    def test_explicit_batch_and_step(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(
            GaussianKernel(bandwidth=2.5), batch_size=50, step_size=10.0,
            seed=0,
        )
        model.fit(ds.x_train, ds.y_train, epochs=1)
        assert model.batch_size_ == 50
        assert model.step_size_ == 10.0

    def test_stable_at_analytic_step_size(self, medium_dataset):
        """Full damping (1.0) must not diverge: train MSE stays finite and
        decreases."""
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), damping=1.0, seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=5)
        series = model.history_.series("train_mse")
        assert all(np.isfinite(series))
        assert series[-1] < series[0]

    def test_multilabel_shapes(self, medium_dataset):
        ds = medium_dataset
        model = EigenPro2(GaussianKernel(bandwidth=2.5), seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=1)
        pred = model.predict(ds.x_test)
        assert pred.shape == (ds.n_test, ds.l)
        labels = model.predict_labels(ds.x_test)
        assert labels.shape == (ds.n_test,)
