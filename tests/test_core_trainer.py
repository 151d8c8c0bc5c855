"""Tests for the shared mini-batch training loop."""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.backend import get_backend
from repro.baselines import EigenPro1, KernelSGD
from repro.config import use_precision
from repro.core.eigenpro2 import EigenPro2
from repro.core.trainer import BaseKernelTrainer, _KeptBlock
from repro.device import titan_xp
from repro.exceptions import ConfigurationError, NotFittedError
from repro.instrument import OpMeter, Tracer, meter_scope, trace_scope
from repro.kernels import GaussianKernel, LaplacianKernel, PolynomialKernel
from repro.kernels.ops import center_sq_norms


@pytest.fixture()
def xy(small_xy):
    return small_xy


class TestBaseValidation:
    def test_base_requires_explicit_params(self, xy):
        x, y = xy
        t = BaseKernelTrainer(GaussianKernel(bandwidth=2.0))
        with pytest.raises(ConfigurationError, match="explicit batch_size"):
            t.fit(x, y)

    def test_base_with_explicit_params_trains(self, xy):
        x, y = xy
        t = BaseKernelTrainer(
            GaussianKernel(bandwidth=2.0), batch_size=8, step_size=4.0, seed=0
        )
        t.fit(x, y, epochs=3)
        assert t.mse(x, y) < np.mean(y**2)  # better than predicting zero

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"step_size": 0.0},
            {"monitor_size": 0},
            {"damping": 0.0},
            {"damping": 1.5},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            BaseKernelTrainer(GaussianKernel(bandwidth=1.0), **kwargs)

    def test_epoch_validation(self, xy):
        x, y = xy
        t = BaseKernelTrainer(
            GaussianKernel(bandwidth=1.0), batch_size=4, step_size=1.0
        )
        with pytest.raises(ConfigurationError):
            t.fit(x, y, epochs=0)

    def test_row_mismatch_rejected(self, xy):
        x, y = xy
        t = BaseKernelTrainer(
            GaussianKernel(bandwidth=1.0), batch_size=4, step_size=1.0
        )
        with pytest.raises(ConfigurationError):
            t.fit(x, y[:-5])

    def test_predict_before_fit_raises(self, xy):
        x, _ = xy
        t = BaseKernelTrainer(
            GaussianKernel(bandwidth=1.0), batch_size=4, step_size=1.0
        )
        with pytest.raises(NotFittedError):
            t.predict(x)


class TestHistory:
    def test_one_record_per_epoch(self, xy):
        x, y = xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        t.fit(x, y, epochs=4)
        assert len(t.history_) == 4
        assert [r.epoch for r in t.history_.records] == [1, 2, 3, 4]

    def test_train_mse_decreases_overall(self, xy):
        x, y = xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        t.fit(x, y, epochs=8)
        series = t.history_.series("train_mse")
        assert series[-1] < series[0]

    def test_val_error_recorded(self, small_dataset):
        ds = small_dataset
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        t.fit(
            ds.x_train, ds.y_train, epochs=2,
            x_val=ds.x_test, y_val=ds.labels_test,
        )
        assert all(r.val_error is not None for r in t.history_.records)

    def test_wall_time_monotone(self, xy):
        x, y = xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        t.fit(x, y, epochs=3)
        times = t.history_.series("wall_time")
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_final_accessor(self, xy):
        x, y = xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        t.fit(x, y, epochs=2)
        assert t.history_.final.epoch == 2


class TestStopping:
    def test_stop_train_mse(self, xy):
        x, y = xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), batch_size=8, seed=0)
        t.fit(x, y, epochs=200, stop_train_mse=1e-3)
        assert t.history_.final.train_mse < 1e-3
        assert len(t.history_) < 200

    def test_max_iterations(self, xy):
        x, y = xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), batch_size=4, seed=0)
        t.fit(x, y, epochs=100, max_iterations=7)
        assert t.history_.final.iterations == 7

    def test_val_patience_stops(self, small_dataset):
        ds = small_dataset
        t = KernelSGD(GaussianKernel(bandwidth=2.0), batch_size=16, seed=0)
        t.fit(
            ds.x_train, ds.y_train, epochs=100,
            x_val=ds.x_test, y_val=ds.labels_test, val_patience=2,
        )
        assert len(t.history_) < 100


class TestDeviceIntegration:
    def test_device_time_accumulates(self, xy):
        x, y = xy
        dev = titan_xp()
        t = KernelSGD(GaussianKernel(bandwidth=2.0), device=dev, seed=0)
        t.fit(x, y, epochs=2)
        assert dev.elapsed > 0
        assert t.history_.final.device_time == pytest.approx(dev.elapsed)

    def test_memory_freed_after_fit(self, xy):
        x, y = xy
        dev = titan_xp()
        t = KernelSGD(GaussianKernel(bandwidth=2.0), device=dev, seed=0)
        t.fit(x, y, epochs=1)
        assert dev.memory.used == 0
        assert dev.memory.peak > 0

    def test_memory_peak_matches_paper_model(self, xy):
        """Peak device memory is the paper's (d + l + m) * n."""
        x, y = xy
        n, d = x.shape
        l = 1
        dev = titan_xp()
        t = KernelSGD(
            GaussianKernel(bandwidth=2.0), device=dev, batch_size=10, seed=0
        )
        t.fit(x, y, epochs=1)
        assert dev.memory.peak == pytest.approx(n * (d + l + 10))

    def test_batch_clamped_to_n(self, xy):
        x, y = xy
        t = KernelSGD(
            GaussianKernel(bandwidth=2.0), batch_size=10**6, seed=0
        )
        t.fit(x, y, epochs=1)
        assert t.batch_size_ == x.shape[0]


class TestKeepBestVal:
    def test_restores_best_validation_weights(self, small_dataset):
        """With keep_best_val the final model's validation error equals
        the best epoch's, even if later epochs regressed."""
        ds = small_dataset
        t = KernelSGD(GaussianKernel(bandwidth=2.0), batch_size=16, seed=0)
        t.fit(
            ds.x_train, ds.y_train, epochs=12,
            x_val=ds.x_test, y_val=ds.labels_test, keep_best_val=True,
        )
        best_recorded = min(t.history_.series("val_error"))
        final = t.classification_error(ds.x_test, ds.labels_test)
        assert final == pytest.approx(best_recorded, abs=1e-12)

    def test_without_flag_final_weights_kept(self, small_dataset):
        ds = small_dataset
        t = KernelSGD(GaussianKernel(bandwidth=2.0), batch_size=16, seed=0)
        t.fit(
            ds.x_train, ds.y_train, epochs=5,
            x_val=ds.x_test, y_val=ds.labels_test, keep_best_val=False,
        )
        final = t.classification_error(ds.x_test, ds.labels_test)
        assert final == pytest.approx(
            t.history_.final.val_error, abs=1e-12
        )

    def test_no_validation_set_flag_harmless(self, small_xy):
        x, y = small_xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), batch_size=8, seed=0)
        t.fit(x, y, epochs=2, keep_best_val=True)
        assert t.history_.final.val_error is None


class TestDeterminism:
    def test_same_seed_same_model(self, xy):
        x, y = xy
        a = KernelSGD(GaussianKernel(bandwidth=2.0), seed=5).fit(x, y, epochs=2)
        b = KernelSGD(GaussianKernel(bandwidth=2.0), seed=5).fit(x, y, epochs=2)
        np.testing.assert_array_equal(a.model_.weights, b.model_.weights)

    def test_different_seed_different_path(self, xy):
        x, y = xy
        a = KernelSGD(
            GaussianKernel(bandwidth=2.0), batch_size=4, seed=1
        ).fit(x, y, epochs=1)
        b = KernelSGD(
            GaussianKernel(bandwidth=2.0), batch_size=4, seed=2
        ).fit(x, y, epochs=1)
        assert not np.allclose(a.model_.weights, b.model_.weights)

    def test_1d_targets_accepted(self, xy):
        x, y = xy
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        t.fit(x, y[:, 0], epochs=1)
        assert t.model_.weights.shape == (x.shape[0], 1)


class _Recording(BaseKernelTrainer):
    """Explicit-parameter trainer that records each epoch's batch
    schedule and the blocks its steps consume."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule = []
        self.blocks = []  # weak references: the trainer owns the blocks
        self.reused = []  # per step: the very block of the first step?

    def _run_epoch(self, x, y, blocks, gamma):
        self.schedule.append(np.concatenate(blocks))
        super()._run_epoch(x, y, blocks, gamma)

    def _apply_correction(self, kb, idx, g, gamma):
        if self.blocks:
            self.reused.append(kb is self.blocks[0]())
        self.blocks.append(weakref.ref(kb))


class _FailsInEpochTwo(_Recording):
    def _apply_correction(self, kb, idx, g, gamma):
        super()._apply_correction(kb, idx, g, gamma)
        if self._epoch == 2:
            raise RuntimeError("correction failed")


def _kept_entries(n, lead=None):
    """Entries of ``K(X, X)`` the kept block forms: ``sum (n - o_j) w_j``
    over its lower block columns, a first one ``lead`` wide (default
    ``ceil(n / 8)``), the rest ``ceil(n / 8)`` but the last."""
    step = -(-n // 8)
    offsets = [0, *range(min(lead or step, n), n, step)]
    widths = np.diff(offsets + [n])
    return int(sum((n - o) * w for o, w in zip(offsets, widths)))


def _full_batch_trainer(name, n, **kwargs):
    # The subsample is all n points: with s < n the analytic step at
    # m = n diverges on this data, and a diverging fit would make the
    # comparisons below vacuous.
    kernel = GaussianKernel(bandwidth=2.5)
    common = dict(batch_size=n, seed=0, monitor_size=100, **kwargs)
    if name == "eigenpro2":
        return EigenPro2(kernel, s=n, damping=0.9, **common)
    if name == "sgd":
        return KernelSGD(kernel, **common)
    return EigenPro1(kernel, q=20, s=n, **common)


class _Fault(RuntimeError):
    """A test-only fault the replaying trainer below recovers from."""


class _FaultsOnce(EigenPro2):
    """EigenPro 2.0 whose step ``step`` (1-based) of epoch ``epoch``
    raises :class:`_Fault` once, after it updated the weights, and whose
    fault handler accepts it."""

    def __init__(self, *args, epoch, step, **kwargs):
        super().__init__(*args, **kwargs)
        self.fault_at = (epoch, step)
        self.steps_run = []  # per step run, its epoch
        self.faults = []

    def _iterate(self, x, y, idx, gamma):
        super()._iterate(x, y, idx, gamma)
        self.steps_run.append(self._epoch)
        epoch, step = self.fault_at
        if self._epoch == epoch and self.steps_run.count(epoch) == step:
            self.fault_at = (None, None)
            raise _Fault(f"epoch {epoch}, step {step}")

    def _recover_or_reraise(self, exc, x):
        if not isinstance(exc, _Fault):
            raise exc
        self.faults.append(str(exc))


class TestEpochReplay:
    """A fault the handler accepts restores the epoch's anchor and
    replays the epoch: the fit ends bitwise where a failure-free one
    does, below full batch (held order, pooled blocks) and at it (the
    kept block, with the carried prediction recomputed)."""

    @pytest.mark.parametrize("full_batch", [False, True])
    def test_replayed_fit_is_bitwise_the_failure_free_fit(
        self, small_dataset, full_batch
    ):
        ds = small_dataset
        x, y = ds.x_train, ds.y_train
        n = x.shape[0]
        kernel = GaussianKernel(bandwidth=2.5)
        opts = (
            dict(s=n, batch_size=n, damping=0.9)
            if full_batch
            else dict(s=60, batch_size=32, damping=0.9)
        )
        opts.update(seed=0, monitor_size=100)
        step = 1 if full_batch else 3
        ref = EigenPro2(kernel, **opts).fit(x, y, epochs=3)
        t = _FaultsOnce(kernel, epoch=2, step=step, **opts)
        t.fit(x, y, epochs=3)
        assert t.faults == [f"epoch 2, step {step}"]
        per_epoch = 1 if full_batch else -(-n // 32)
        assert t.steps_run.count(2) == per_epoch + step
        assert (t._order is None) == full_batch
        np.testing.assert_array_equal(t.model_.weights, ref.model_.weights)
        np.testing.assert_array_equal(
            t.history_.series("train_mse"), ref.history_.series("train_mse")
        )

    def test_replay_records_restore_and_replay_spans(self, xy):
        x, y = xy
        t = _FaultsOnce(
            GaussianKernel(bandwidth=2.0), epoch=1, step=2, s=20,
            batch_size=16, seed=0,
        )
        tracer = Tracer()
        with trace_scope(tracer):
            t.fit(x, y, epochs=2)
        counts = tracer.counts()
        assert counts["checkpoint"] == 2
        assert counts["recovery/restore"] == counts["recovery/replay"] == 1
        (replay,) = [e for e in tracer.events if e.name == "recovery/replay"]
        assert replay.attrs == {"epoch": 1, "steps": 4}


class TestFullBatchRegime:
    """At ``m >= n`` a fit forms ``K(X, X)`` once, in the identity row
    order, contracts it once a step, and reads every epoch's monitor from
    that product; below full batch nothing changes."""

    #: Agreement of the monitor read from the carried product with
    #: ``KernelModel.mse`` per precision tier: the two differ only in the
    #: order of their sums.
    TIER_RTOL = {"float64": 1e-10, "float32": 1e-4}

    def _explicit(self, m, cls=_Recording):
        return cls(
            GaussianKernel(bandwidth=2.0), batch_size=m, step_size=1.0,
            seed=3, monitor_size=40,
        )

    def test_one_block_per_fit(self, xy):
        x, y = xy
        (n, d), l = x.shape, y.shape[1]
        t = self._explicit(n)
        with meter_scope() as meter:
            t.fit(x, y, epochs=3)
        # One (n, n) block, formed as its lower block columns, and one
        # product with it a step; the monitor reads that product and adds
        # no GEMM.
        assert meter.total("kernel_eval") == _kept_entries(n) * d
        assert meter.total("gemm") == 3 * n * n * l
        assert t.reused == [True, True]

    def test_one_gemm_span_per_step_none_in_the_monitor(self, xy):
        x, y = xy
        n = x.shape[0]
        gemm_at = []  # perf_counter() at each recorded GEMM

        class _TimedMeter(OpMeter):
            def record(self, category, ops):
                if category == "gemm":
                    gemm_at.append(time.perf_counter())
                super().record(category, ops)

        tracer = Tracer()
        with trace_scope(tracer), meter_scope(_TimedMeter()):
            self._explicit(n).fit(x, y, epochs=3)

        def intervals(name):
            return [
                (ev.start_s, ev.start_s + ev.duration_s)
                for ev in tracer.events
                if ev.name == name
            ]

        assert tracer.counts()["epoch"] == len(intervals("gemm")) == 3
        assert len(gemm_at) == 3
        for t in gemm_at:
            assert any(a <= t <= b for a, b in intervals("gemm"))
            assert not any(a <= t <= b for a, b in intervals("monitor"))

    def test_full_batch_sgd_is_the_written_out_loop(self, xy):
        """``f = K alpha`` from ``alpha = 0``, ``alpha -= gamma (f - y)``
        per epoch, the monitor reading ``K alpha`` after each update; the
        polynomial block has negative entries, so a signed-zero start
        would show."""
        x, y = xy
        n = x.shape[0]
        kernel = PolynomialKernel(degree=3)
        kb = kernel(x, x)
        assert (kb < 0).any()
        gamma = 1.0 / np.linalg.eigvalsh(kb)[-1]
        alpha = np.zeros_like(y)
        mse = []
        for _ in range(3):
            alpha -= gamma * (kb @ alpha - y)
            mse.append(np.mean((kb @ alpha - y) ** 2))
        t = KernelSGD(
            kernel, batch_size=n, step_size=gamma * n, seed=0, monitor_size=n
        ).fit(x, y, epochs=3)
        assert t.batch_size_ == n
        got = np.asarray(t.model_.weights)
        assert np.max(np.abs(got - alpha)) <= 1e-12 * np.max(np.abs(alpha))
        np.testing.assert_allclose(
            t.history_.series("train_mse"), mse, rtol=1e-12
        )

    def test_one_block_per_fit_plus_setup(self, small_dataset):
        ds = small_dataset
        (n, d), l = ds.x_train.shape, ds.y_train.shape[1]
        with meter_scope() as setup:
            _full_batch_trainer("eigenpro2", n).prepare(ds.x_train, l)
        with meter_scope() as meter:
            t = _full_batch_trainer("eigenpro2", n)
            t.fit(ds.x_train, ds.y_train, epochs=3)
        assert t.batch_size_ == n
        assert meter.total("kernel_eval") == (
            setup.total("kernel_eval") + _kept_entries(n, lead=n) * d
        )

    #: Agreement of the kept product with the dense ``K(X, X) @ w`` per
    #: precision tier: they differ only in the order of their sums.
    PRODUCT_RTOL = {"float64": 1e-13, "float32": 1e-4}

    @pytest.mark.parametrize("tier", ["float64", "float32"])
    @pytest.mark.parametrize("lead", [1, 20, 60, 150], ids=lambda w: f"lead{w}")
    @pytest.mark.parametrize(
        "kernel",
        [
            GaussianKernel(bandwidth=2.0),
            LaplacianKernel(bandwidth=3.0),
            PolynomialKernel(degree=3),
        ],
        ids=["gaussian", "laplacian", "polynomial"],
    )
    def test_kept_product_is_the_dense_product(self, kernel, lead, tier):
        """First widths of 1, below ``n / 8`` (19 at ``n = 150``), above
        it and ``n``."""
        n = 150
        rng = np.random.default_rng(11)
        x, w = rng.standard_normal((n, 4)), rng.standard_normal((n, 3))
        with use_precision(tier):
            bk = get_backend()
            x, w = bk.asarray(x), bk.asarray(w)
            with meter_scope() as meter:
                kept = _KeptBlock(kernel, x, center_sq_norms(kernel, x, bk), lead)
            got = kept.matmul(w)
            want = kernel(x, x) @ w
        assert kept.shape == (n, n)
        assert kept.columns[0].shape == (n, min(lead, n))
        assert all(c.flags.c_contiguous for c in kept.columns)
        assert meter.total("kernel_eval") == _kept_entries(n, lead) * 4
        assert got.dtype == want.dtype
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= self.PRODUCT_RTOL[tier]

    @pytest.mark.parametrize("name", ["eigenpro2", "eigenpro1"])
    def test_full_batch_fit_is_the_dense_loop(self, small_dataset, name):
        """Each epoch of a full-batch fit, written out on the dense
        ``K(X, X)`` in the caller's order: ``g = K alpha - y``,
        ``alpha -= gamma g``, then the trainer's correction (plain SGD:
        :meth:`test_full_batch_sgd_is_the_written_out_loop`).  EigenPro
        2.0 runs ``s < n`` with an explicit step that is stable on this
        data."""
        ds = small_dataset
        x, y = ds.x_train, ds.y_train
        n = x.shape[0]
        kernel = GaussianKernel(bandwidth=2.5)
        kb = kernel(x, x)
        gamma = 0.5 / np.linalg.eigvalsh(kb)[-1]
        common = dict(batch_size=n, step_size=gamma * n, seed=0, monitor_size=n)
        if name == "eigenpro2":
            t = EigenPro2(kernel, s=60, q=15, **common)
        else:
            t = EigenPro1(kernel, q=20, s=n, **common)
        t.fit(x, y, epochs=3)
        assert t.batch_size_ == n
        alpha = np.zeros_like(y)
        for _ in range(3):
            g = kb @ alpha - y
            alpha -= gamma * g
            if name == "eigenpro2":
                sub = t.preconditioner_.indices
                alpha[sub] += gamma * t.preconditioner_.correction(kb[:, sub], g)
            else:
                v = t.eigvecs_full_
                alpha += gamma * (v @ (t._d_scale[:, None] * (v.T @ (kb @ g))))
        got = np.asarray(t.model_.weights)
        assert np.max(np.abs(got - alpha)) <= 1e-12 * np.max(np.abs(alpha))
        assert t.history_.final.train_mse < t.history_[0].train_mse

    def test_mini_batch_counts_unchanged(self, xy):
        x, y = xy
        (n, d), l = x.shape, y.shape[1]
        t = self._explicit(16)
        with meter_scope() as meter:
            t.fit(x, y, epochs=3)
        # Every epoch forms its blocks and the monitor evaluates its rows.
        assert meter.total("kernel_eval") == 3 * (n * n * d + 40 * n * d)
        assert meter.total("gemm") == 3 * (n * n * l + 40 * n * l)
        assert not any(t.reused)

    @pytest.mark.parametrize("tier", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["eigenpro2", "sgd", "eigenpro1"])
    def test_monitor_matches_model_mse(self, small_dataset, name, tier):
        ds = small_dataset
        x, y = ds.x_train, ds.y_train
        n = x.shape[0]
        rows = np.random.default_rng(0).choice(n, size=100, replace=False)
        with use_precision(tier):
            t = _full_batch_trainer(name, n).fit(x, y, epochs=2)
            want = t.model_.mse(x[rows], y[rows])
        got = t.history_.final.train_mse
        assert t.batch_size_ == n
        assert got < t.history_[0].train_mse < 1.0
        assert got == pytest.approx(want, rel=self.TIER_RTOL[tier])

    @pytest.mark.parametrize("keep_best_val", [False, True])
    def test_validation_predicts_leave_kept_block_intact(
        self, small_dataset, keep_best_val
    ):
        """The validation predicts between epochs use the pooled
        workspace; a kept block living there would be overwritten and
        every later epoch would step on the wrong matrix."""
        ds = small_dataset
        x, y = ds.x_train, ds.y_train
        n = x.shape[0]
        plain = _full_batch_trainer("eigenpro2", n).fit(x, y, epochs=4)
        val = _full_batch_trainer("eigenpro2", n).fit(
            x, y, epochs=4, x_val=ds.x_test, y_val=ds.labels_test,
            keep_best_val=keep_best_val,
        )
        np.testing.assert_array_equal(
            val.history_.series("train_mse"),
            plain.history_.series("train_mse"),
        )
        # keep_best_val restores the best epoch; a full-batch fit does
        # not depend on the RNG, so that is the plain fit of that length.
        best = (
            int(np.argmin(val.history_.series("val_error"))) + 1
            if keep_best_val
            else 4
        )
        ref = _full_batch_trainer("eigenpro2", n).fit(x, y, epochs=best)
        np.testing.assert_array_equal(val.model_.weights, ref.model_.weights)

    def test_kept_block_released_after_fit(self, xy):
        x, y = xy
        t = self._explicit(x.shape[0])
        t.fit(x, y, epochs=2)
        gc.collect()
        assert t.blocks[0]() is None

    def test_kept_block_released_when_a_step_raises(self, xy):
        x, y = xy
        t = self._explicit(x.shape[0], cls=_FailsInEpochTwo)
        with pytest.raises(RuntimeError, match="correction failed"):
            t.fit(x, y, epochs=3)
        assert len(t.blocks) == 2
        gc.collect()
        assert t.blocks[0]() is None

    def test_mini_batch_schedule_is_the_permutation_stream(self, xy):
        x, y = xy
        n = x.shape[0]
        t = self._explicit(16)
        t.fit(x, y, epochs=2)
        rng = np.random.default_rng(3)
        rng.choice(n, size=40, replace=False)  # the monitor rows
        assert len(t.schedule) == 2
        for got in t.schedule:
            np.testing.assert_array_equal(got, rng.permutation(n))

    def test_full_batch_schedule_is_the_identity(self, xy):
        x, y = xy
        n = x.shape[0]
        t = self._explicit(n)
        t.fit(x, y, epochs=2)
        assert len(t.schedule) == 2
        for got in t.schedule:
            np.testing.assert_array_equal(got, np.arange(n))
