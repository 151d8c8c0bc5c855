"""The subsample-first center layout of an EigenPro 2.0 fit.

Inside a fit with a preconditioner the centers and ``alpha`` are held
subsample first, so ``Phi^T`` is the view ``kb[:, :s]`` of the step's
kernel block and steps 4–5 update ``alpha[:s]``.  Everything a caller
sees stays in the caller's row order: ``model_``, the checkpoints and
the batch stream.  These cases pin both halves: the view (no copy, no
``(m, s)`` allocation) and the caller-order contract, against a
reference loop written out here in the caller's order.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import use_precision
from repro.core.eigenpro2 import EigenPro2
from repro.kernels import GaussianKernel
from repro.shard import ShardedEigenPro2, transport_available

KERNEL = GaussianKernel(bandwidth=2.5)

needs_process = pytest.mark.skipif(
    not transport_available("process"),
    reason="platform lacks fork-safe shared memory",
)


def _problem(n=240, d=8, l=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = np.tanh(x @ rng.standard_normal((d, l)) / np.sqrt(d))
    return x, y


def _reference_fit(trainer, x, y, epochs):
    """Algorithm 1 in the caller's row order, with the trainer's selected
    parameters and its RNG stream: ``Phi`` is the gather ``kb[:, sub]``
    and the correction lands on ``alpha[sub]``."""
    n = x.shape[0]
    precond = trainer.preconditioner_
    m, sub = trainer.batch_size_, precond.indices
    gamma = trainer.step_size_ / m
    alpha = np.zeros((n, y.shape[1]))
    rng = np.random.default_rng(trainer.seed)
    if n > trainer.monitor_size:
        rng.choice(n, size=trainer.monitor_size, replace=False)
    for _ in range(epochs):
        perm = np.arange(n) if m == n else rng.permutation(n)
        for start in range(0, n, m):
            idx = perm[start : start + m]
            kb = KERNEL(x[idx], x)
            g = kb @ alpha - y[idx]
            alpha[idx] -= gamma * g
            alpha[sub] += gamma * precond.correction(kb[:, sub], g)
    return alpha


def _assert_matches_reference(trainer, x, y, epochs):
    ref = _reference_fit(trainer, x, y, epochs)
    got = np.asarray(trainer.model_.weights)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert trainer._order is not None  # the fit did hold its own order


class _PhiSpy(EigenPro2):
    """Records, per correction, whether ``phi`` is a view of the block
    the step just contracted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shared = []
        self._block = None

    def _contract(self, kb):
        self._block = kb
        return super()._contract(kb)

    def _correct(self, phi, g, gamma):
        self.shared.append(np.shares_memory(phi, self._block))
        super()._correct(phi, g, gamma)


class TestPhiIsAView:
    @pytest.mark.parametrize("tier", ["float64", "float32", "mixed"])
    @pytest.mark.parametrize("m", [40, 240], ids=["mini-batch", "full-batch"])
    def test_phi_shares_the_step_block(self, m, tier):
        x, y = _problem()
        t = _PhiSpy(KERNEL, s=60, q=15, batch_size=m, seed=0, damping=0.9)
        with use_precision(tier):
            t.fit(x, y, epochs=2)
        assert t.shared and all(t.shared)

    def test_full_batch_peak_is_the_kept_block(self):
        """No ``(n, s)`` Phi copy on top of the kept ``K(X, X)``: the
        traced peak of a full-batch fit stays within half a Phi copy of
        the block itself."""
        n, s = 1500, 500
        x, y = _problem(n=n)
        t = EigenPro2(
            KERNEL, s=s, q=100, batch_size=n, seed=0, monitor_size=20,
            damping=0.9,
        )
        tracemalloc.start()
        try:
            t.fit(x, y, epochs=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.batch_size_ == n
        assert peak - n * n * 8 < n * s * 8 // 2


class TestCallerOrder:
    @pytest.mark.parametrize("m", [40, 240], ids=["mini-batch", "full-batch"])
    def test_serial_fit_matches_caller_order_reference(self, m):
        x, y = _problem()
        t = EigenPro2(KERNEL, s=60, q=15, batch_size=m, seed=0, damping=0.9)
        t.fit(x, y, epochs=2)
        np.testing.assert_array_equal(t.model_.centers, x)
        assert t.model_.weights is t._alpha
        _assert_matches_reference(t, x, y, epochs=2)

    @pytest.mark.parametrize(
        "transport", ["thread", pytest.param("process", marks=needs_process)]
    )
    def test_sharded_fit_matches_caller_order_reference(self, transport):
        x, y = _problem()
        t = ShardedEigenPro2(
            KERNEL, n_shards=2, transport=transport, s=60, q=15,
            batch_size=40, seed=0, damping=0.9, checkpoint_every=1,
        )
        try:
            t.fit(x, y, epochs=2)
            np.testing.assert_array_equal(t.model_.centers, x)
            _assert_matches_reference(t, x, y, epochs=2)
            # The last checkpoint follows the last step: the fit's
            # weights, in the caller's order.
            last = t.last_checkpoint_
            assert (last.epoch, last.batch_cursor) == (2, len(range(0, 240, 40)))
            np.testing.assert_array_equal(last.weights, t.model_.weights)
            # Predictions through the group (held order) agree with
            # the caller-order model.
            want = np.asarray(t.predict(x[:50]))
            np.testing.assert_allclose(
                t.predict_sharded(x[:50]), want, rtol=0,
                atol=1e-10 * float(np.abs(want).max()),
            )
        finally:
            t.close()

    def test_identity_order_moves_nothing(self):
        """``s = n`` and ``q = 0`` hold the caller's order."""
        x, y = _problem(n=120)
        for kwargs in (dict(s=120), dict(s=60, q=0)):
            t = EigenPro2(KERNEL, batch_size=40, seed=0, **kwargs)
            t.fit(x, y, epochs=1)
            assert t._order is None


class TestRecoveryRestoresTheCompensation:
    def test_kahan_compensation_rolls_back_with_the_weights(self, monkeypatch):
        """A recovered mixed-precision fit replays from the checkpoint's
        weights *and* the correction's Kahan compensation of that
        moment, not the one the rolled-back steps left behind."""
        from repro.exceptions import ShardError
        from repro.shard import trainer as shard_trainer

        original = shard_trainer._form_block_task
        calls = {"n": 0}

        def fails_once(worker, xb, xb_sq_norms):
            if worker.shard_id == 1:
                calls["n"] += 1
                if calls["n"] == 6:
                    raise ShardError("injected shard failure")
            return original(worker, xb, xb_sq_norms)

        seen = []
        recover = ShardedEigenPro2._recover_or_reraise

        def spy(self, exc, x):
            before = self._corr_comp.copy()
            cursor = recover(self, exc, x)
            saved = self.last_checkpoint_.correction_comp
            # The replay goes on updating the compensation in place; the
            # checkpoint must keep its own copy.
            assert self._corr_comp is not saved
            seen.append((before, self._corr_comp.copy(), saved))
            return cursor

        monkeypatch.setattr(shard_trainer, "_form_block_task", fails_once)
        monkeypatch.setattr(ShardedEigenPro2, "_recover_or_reraise", spy)
        x, y = _problem()
        t = ShardedEigenPro2(
            KERNEL, n_shards=2, transport="thread", s=60, q=15,
            batch_size=40, seed=0, damping=0.9, checkpoint_every=4,
        )
        try:
            with use_precision("mixed"):
                t.fit(x, y, epochs=1)
            assert len(t.recovery_log_) == 1
        finally:
            t.close()
        ((before, after, saved),) = seen
        assert saved is not None and saved.shape == (60, y.shape[1])
        np.testing.assert_array_equal(after, saved)
        assert not np.array_equal(before, saved)
