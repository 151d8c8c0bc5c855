"""Parity suite for the executable multi-shard engine (:mod:`repro.shard`).

The engine earns its keep only if sharding is *invisible* to the numbers:
for ``g in {1, 2, 4}`` the sharded primitives must match the
single-backend results (within 1e-6 in float64 — in practice they agree
to ~1e-14, differing only in partial-sum order), aggregated compute op
counts must equal the unsharded counts exactly (communication is metered
separately under ``"allreduce"``), and the sharded EigenPro 2.0 trainer
must track the unsharded trainer iteration for iteration.

Set ``REPRO_SHARD_G`` to restrict the shard counts exercised (the CI
shard job runs one value per matrix entry).
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

from repro.baselines.ridge import solve_ridge
from repro.core.eigenpro2 import EigenPro2
from repro.device.presets import titan_xp
from repro.exceptions import ConfigurationError, ShardError
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel, LaplacianKernel, PolynomialKernel
from repro.kernels.ops import kernel_matvec
from repro.shard import (
    ShardGroup,
    ShardPlan,
    ShardedEigenPro2,
    allreduce_sum,
    sharded_kernel_matvec,
    sharded_predict,
    transport_available,
)

_ENV_G = os.environ.get("REPRO_SHARD_G")
G_VALUES = [int(_ENV_G)] if _ENV_G else [1, 2, 4]

shard_counts = pytest.mark.parametrize("g", G_VALUES)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((203, 6))
    weights = rng.standard_normal((203, 3))
    x = rng.standard_normal((57, 6))
    return centers, weights, x


class TestShardPlan:
    def test_sizes_partition_n(self):
        plan = ShardPlan.contiguous(10, 3)
        assert plan.sizes == (4, 3, 3)
        assert sum(plan.sizes) == plan.n == 10
        assert plan.bounds == (0, 4, 7, 10)

    def test_balanced(self):
        for n, g in [(100, 7), (16, 16), (5, 2)]:
            sizes = ShardPlan.contiguous(n, g).sizes
            assert max(sizes) - min(sizes) <= 1

    def test_slices_cover_rows(self):
        plan = ShardPlan.contiguous(23, 4)
        rows = np.concatenate([np.arange(23)[s] for s in plan.slices])
        np.testing.assert_array_equal(rows, np.arange(23))

    def test_shard_of(self):
        plan = ShardPlan.contiguous(10, 3)
        assert [plan.shard_of(i) for i in (0, 3, 4, 6, 7, 9)] == [
            0, 0, 1, 1, 2, 2,
        ]

    def test_localize_roundtrip(self):
        plan = ShardPlan.contiguous(50, 4)
        idx = np.array([3, 49, 12, 0, 30, 31, 13])
        recovered = np.empty_like(idx)
        for s, (positions, local) in enumerate(plan.localize(idx)):
            recovered[positions] = local + plan.bounds[s]
        np.testing.assert_array_equal(recovered, idx)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(5, 6)
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(5, 0)
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(0, 1)
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(10, 3).shard_of(10)
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(10, 3).localize(np.array([11]))


class TestShardedOps:
    @shard_counts
    def test_matvec_matches_single_backend(self, problem, g):
        centers, weights, x = problem
        kernel = LaplacianKernel(bandwidth=2.0)
        ref = kernel_matvec(kernel, x, centers, weights)
        with ShardGroup.build(centers, weights, g=g, kernel=kernel) as group:
            got = sharded_kernel_matvec(kernel, x, group)
        np.testing.assert_allclose(got, ref, atol=1e-6, rtol=0)

    @shard_counts
    def test_predict_matches_single_backend(self, problem, g):
        centers, weights, x = problem
        kernel = GaussianKernel(bandwidth=2.0)
        ref = kernel_matvec(kernel, x, centers, weights)
        with ShardGroup.build(centers, weights, g=g, kernel=kernel) as group:
            got = sharded_predict(group, x)
        np.testing.assert_allclose(got, ref, atol=1e-6, rtol=0)

    @shard_counts
    def test_vector_weights(self, problem, g):
        centers, weights, x = problem
        kernel = GaussianKernel(bandwidth=2.0)
        ref = kernel_matvec(kernel, x, centers, weights[:, 0])
        with ShardGroup.build(centers, weights[:, 0], g=g) as group:
            got = sharded_kernel_matvec(kernel, x, group)
        assert got.shape == (x.shape[0],)
        np.testing.assert_allclose(got, ref, atol=1e-6, rtol=0)

    @shard_counts
    def test_non_radial_kernel(self, problem, g):
        """Kernels that ignore z_sq_norms shard identically."""
        centers, weights, x = problem
        kernel = PolynomialKernel(degree=2, gamma=0.1, coef0=1.0)
        ref = kernel_matvec(kernel, x, centers, weights)
        with ShardGroup.build(centers, weights, g=g, kernel=kernel) as group:
            got = sharded_kernel_matvec(kernel, x, group)
        np.testing.assert_allclose(got, ref, atol=1e-6, rtol=0)

    @shard_counts
    def test_aggregated_op_counts_equal_unsharded(self, problem, g):
        centers, weights, x = problem
        kernel = GaussianKernel(bandwidth=2.0)
        with meter_scope() as ref_meter:
            kernel_matvec(kernel, x, centers, weights)
        with ShardGroup.build(centers, weights, g=g, kernel=kernel) as group:
            with meter_scope() as meter:
                sharded_kernel_matvec(kernel, x, group)
            per_shard = group.op_counts()
        for category in ("kernel_eval", "gemm"):
            assert (
                meter.counts[category].ops == ref_meter.counts[category].ops
            ), category
            # The relayed caller totals come from the shard meters.
            assert per_shard[category] == ref_meter.counts[category].ops
        # Communication is metered separately and vanishes at g=1.
        allreduce = meter.counts["allreduce"].ops if "allreduce" in meter.counts else 0
        if g == 1:
            assert allreduce == 0
        else:
            assert allreduce == (g - 1) * x.shape[0] * weights.shape[1]

    @shard_counts
    def test_memory_accounting_aggregates(self, problem, g):
        centers, weights, x = problem
        kernel = GaussianKernel(bandwidth=2.0)
        with ShardGroup.build(centers, weights, g=g, kernel=kernel) as group:
            report = group.memory_report()
            n, d = centers.shape
            assert report["resident_total"] == n * d + weights.size
            assert len(report["resident_per_shard"]) == g
            sharded_kernel_matvec(kernel, x, group)
            report = group.memory_report()
            # Each shard's streamed block scratch is bounded by its own
            # (n_x, n_i) block; summed, that is at most the unsharded block.
            assert 0 < report["workspace_peak_total"] <= x.shape[0] * n

    @shard_counts
    def test_precision_scope_propagates_to_shards(self, problem, g):
        """An ambient explicit precision is thread-local; executors must
        re-establish the caller's scope so the sharded result has the
        same working dtype as the unsharded one."""
        from repro.config import use_precision

        centers, weights, x = problem
        kernel = GaussianKernel(bandwidth=2.0)
        with use_precision("float32"):
            ref = kernel_matvec(kernel, x, centers, weights)
            with ShardGroup.build(
                centers, weights, g=g, kernel=kernel
            ) as group:
                got = sharded_kernel_matvec(kernel, x, group)
        assert np.asarray(got).dtype == np.float32
        np.testing.assert_allclose(got, ref, atol=1e-4, rtol=0)

    def test_numpy_shards_adopt_views(self, problem):
        centers, weights, _ = problem
        weights = weights.copy()
        with ShardGroup.build(centers, weights, g=2) as group:
            assert all(ex.weights_is_view for ex in group.executors)
            group.executors[0].weights[0, 0] = 123.0
            assert weights[0, 0] == 123.0

    def test_gather_set_weights_roundtrip(self, problem):
        centers, weights, _ = problem
        with ShardGroup.build(centers, weights, g=3) as group:
            np.testing.assert_array_equal(group.gather_weights(), weights)
            new = weights * 2.0
            group.set_weights(new)
            np.testing.assert_array_equal(group.gather_weights(), new)

    def test_allreduce_sum(self):
        parts = [np.full((4, 2), float(i)) for i in range(3)]
        np.testing.assert_array_equal(allreduce_sum(parts), np.full((4, 2), 3.0))
        with pytest.raises(ConfigurationError):
            allreduce_sum([])

    def test_predict_without_kernel_rejected(self, problem):
        centers, weights, x = problem
        with ShardGroup.build(centers, weights, g=2) as group:
            with pytest.raises(ConfigurationError):
                sharded_predict(group, x)


class TestShardedEigenPro2:
    def _fit_pair(self, dataset, g, epochs=2, transport="thread", **overrides):
        kwargs = dict(s=80, batch_size=32, seed=0, damping=0.9)
        kwargs.update(overrides)
        ref = EigenPro2(
            GaussianKernel(bandwidth=2.5), device=titan_xp(), **kwargs
        )
        ref.fit(dataset.x_train, dataset.y_train, epochs=epochs)
        sharded = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=g,
            device=titan_xp(),
            transport=transport,
            **kwargs,
        )
        sharded.fit(dataset.x_train, dataset.y_train, epochs=epochs)
        return ref, sharded

    @shard_counts
    def test_matches_unsharded_trainer(self, small_dataset, g):
        ref, sharded = self._fit_pair(small_dataset, g)
        try:
            scale = max(float(np.abs(ref._alpha).max()), 1.0)
            np.testing.assert_allclose(
                sharded._alpha, ref._alpha, atol=1e-6 * scale, rtol=0
            )
            np.testing.assert_allclose(
                sharded.history_.series("train_mse"),
                ref.history_.series("train_mse"),
                rtol=1e-6,
            )
            # Selection (Steps 1-3) is identical: same device, same seed.
            assert sharded.params_.q_adjusted == ref.params_.q_adjusted
            assert sharded.step_size_ == ref.step_size_
        finally:
            sharded.close()

    @pytest.mark.parametrize(
        "transport",
        [
            "thread",
            pytest.param(
                "process",
                marks=pytest.mark.skipif(
                    not transport_available("process"),
                    reason="platform lacks fork-safe shared memory",
                ),
            ),
        ],
    )
    def test_matches_unsharded_trainer_at_full_batch(
        self, small_dataset, transport
    ):
        """At m >= n the unsharded trainer keeps K(X, X) for the fit and
        reads its monitor from it; the sharded one forms its per-shard
        blocks every step.  Both run the identity row order.  With
        s = n the subsample spans both shards, so each runs the
        correction on its own rows."""
        n = small_dataset.x_train.shape[0]
        # s = n: with s < n the analytic step at m = n diverges here.
        ref, sharded = self._fit_pair(
            small_dataset, 2, epochs=3, transport=transport,
            batch_size=10 * n, s=n,
        )
        try:
            assert sharded.transport == transport
            assert sharded._owners == 2
            assert sharded.batch_size_ == ref.batch_size_ == n
            train_mse = ref.history_.series("train_mse")
            assert train_mse[-1] < train_mse[0] < 1.0
            scale = max(float(np.abs(ref._alpha).max()), 1.0)
            np.testing.assert_allclose(
                sharded._alpha, ref._alpha, atol=1e-6 * scale, rtol=0
            )
            np.testing.assert_allclose(
                sharded.history_.series("train_mse"),
                ref.history_.series("train_mse"),
                rtol=1e-6,
            )
            assert sharded.params_.q_adjusted == ref.params_.q_adjusted
            assert sharded.step_size_ == ref.step_size_
        finally:
            sharded.close()

    @pytest.mark.parametrize("g", [2, 4])
    def test_copying_shards_match_view_shards(self, small_dataset, g):
        """Shards whose backend copies the weights (as device backends
        do) get the caller's rows mirrored, and the subsample's holders
        update their copies, which the caller reads back: weights and
        history are bitwise those of zero-copy-view shards.  At g = 4
        the subsample (s = 80) spans two shards."""
        from repro.backend import NumpyBackend
        from repro.config import use_precision

        class _Copying(NumpyBackend):
            def asarray(self, x, dtype=None):
                return np.array(
                    x, dtype=None if dtype is None else self._dtype(dtype)
                )

        fits = []
        for backends in (None, [_Copying() for _ in range(g)]):
            trainer = ShardedEigenPro2(
                GaussianKernel(bandwidth=2.5), n_shards=g,
                shard_backends=backends, device=titan_xp(), s=80,
                batch_size=32, seed=0, damping=0.9, checkpoint_every=3,
            )
            try:
                with use_precision("mixed"):
                    trainer.fit(
                        small_dataset.x_train, small_dataset.y_train, epochs=2
                    )
                fits.append((
                    trainer.shard_group_.needs_mirror,
                    np.array(trainer._alpha),
                    trainer.history_.series("train_mse"),
                ))
            finally:
                trainer.close()
        (views, a_view, h_view), (copies, a_copy, h_copy) = fits
        assert not views and copies
        np.testing.assert_array_equal(a_copy, a_view)
        assert h_copy == h_view

    @shard_counts
    def test_sharded_predict_matches_model(self, small_dataset, g):
        ref, sharded = self._fit_pair(small_dataset, g, epochs=1)
        try:
            got = sharded.predict_sharded(small_dataset.x_test)
            want = ref.predict(small_dataset.x_test)
            scale = max(float(np.abs(want).max()), 1.0)
            np.testing.assert_allclose(got, want, atol=1e-6 * scale, rtol=0)
        finally:
            sharded.close()

    @shard_counts
    def test_op_counts_match_unsharded(self, small_dataset, g):
        kwargs = dict(s=60, batch_size=40, seed=0)
        with meter_scope() as ref_meter:
            EigenPro2(
                GaussianKernel(bandwidth=2.5), device=titan_xp(), **kwargs
            ).fit(small_dataset.x_train, small_dataset.y_train, epochs=1)
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=g,
            device=titan_xp(),
            **kwargs,
        )
        try:
            with meter_scope() as meter:
                trainer.fit(
                    small_dataset.x_train, small_dataset.y_train, epochs=1
                )
            for category in ("kernel_eval", "gemm", "precond"):
                assert (
                    meter.counts[category].ops
                    == ref_meter.counts[category].ops
                ), category
        finally:
            trainer.close()

    def test_default_device_is_cluster_aggregate(self):
        trainer = ShardedEigenPro2(GaussianKernel(bandwidth=2.0), n_shards=4)
        assert "x4" in trainer.device.name
        single = ShardedEigenPro2(GaussianKernel(bandwidth=2.0), n_shards=1)
        assert "x1" in single.device.name

    def test_backend_sequence_fixes_shard_count(self):
        from repro.backend import NumpyBackend

        backends = [NumpyBackend() for _ in range(4)]
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.0), shard_backends=backends
        )
        # The modelled cluster must match the cluster that executes.
        assert trainer.n_shards == 4
        assert "x4" in trainer.device.name
        with pytest.raises(ConfigurationError):
            ShardedEigenPro2(
                GaussianKernel(bandwidth=2.0),
                n_shards=2,
                shard_backends=backends,
            )

    def test_refit_rebuilds_group(self, small_dataset):
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=2,
            device=titan_xp(),
            s=40,
            batch_size=16,
            seed=0,
        )
        try:
            trainer.fit(small_dataset.x_train, small_dataset.y_train, epochs=1)
            first = trainer.shard_group_
            # Refit on a smaller set: the old group is replaced and closed.
            trainer.fit(
                small_dataset.x_train[:100],
                small_dataset.y_train[:100],
                epochs=1,
            )
            assert trainer.shard_group_ is not first
            assert trainer.shard_group_.plan.n == 100
            with pytest.raises(ShardError):
                first.executors[0].submit(lambda ex: None)
        finally:
            trainer.close()

    def test_shard_count_clamped_to_n(self, small_dataset):
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=G_VALUES[-1],
            device=titan_xp(),
            s=40,
            batch_size=16,
            seed=0,
        )
        try:
            x = small_dataset.x_train[: max(G_VALUES[-1] // 2, 2)]
            y = small_dataset.y_train[: max(G_VALUES[-1] // 2, 2)]
            trainer.fit(x, y, epochs=1)
            assert trainer.shard_group_.g <= x.shape[0]
        finally:
            trainer.close()

    @shard_counts
    def test_workspace_holds_one_block(self, small_dataset, g):
        """FIFO worker order runs each step's contraction before the
        next step's prefetched formation, so a shard's pooled scratch
        never exceeds one (m, n_i) block."""
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=g,
            device=titan_xp(),
            s=80,
            batch_size=32,
            seed=0,
            damping=0.9,
        )
        try:
            trainer.fit(small_dataset.x_train, small_dataset.y_train, epochs=1)
            m = trainer.batch_size_
            for ex in trainer.shard_group_.executors:
                assert 0 < ex.workspace_peak <= m * ex.n_centers
        finally:
            trainer.close()


class TestRidgeOnBackendLayer:
    """The ridge baseline now dispatches through the backend layer, so it
    can run on any backend instance — including inside a shard executor."""

    def test_numpy_results_unchanged(self, small_xy):
        x, y = small_xy
        model = solve_ridge(GaussianKernel(bandwidth=2.0), x, y, 1e-8)
        assert model.mse(x, y) < 1e-6

    def test_runs_inside_a_shard_executor(self, small_xy):
        x, y = small_xy
        ref = solve_ridge(GaussianKernel(bandwidth=2.0), x, y, 1e-6)
        with ShardGroup.build(x, y, g=2) as group:
            models = group.map(
                lambda ex: solve_ridge(
                    GaussianKernel(bandwidth=2.0), x, y, 1e-6
                )
            )
        for model in models:
            np.testing.assert_allclose(
                model.weights, ref.weights, atol=1e-8
            )

    @pytest.mark.skipif(
        importlib.util.find_spec("torch") is None,
        reason="torch not installed — Torch backend unavailable",
    )
    def test_matches_under_torch(self, small_xy):
        from repro.backend import use_backend

        x, y = small_xy
        ref = solve_ridge(GaussianKernel(bandwidth=2.0), x, y, 1e-6)
        with use_backend("torch"):
            got = solve_ridge(GaussianKernel(bandwidth=2.0), x, y, 1e-6)
        np.testing.assert_allclose(
            np.asarray(got.weights), ref.weights, atol=1e-8
        )
