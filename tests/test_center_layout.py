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
from repro.shard import ProcessTransport, ShardedEigenPro2

KERNEL = GaussianKernel(bandwidth=2.5)

needs_process = pytest.mark.skipif(
    not ProcessTransport.is_available(),
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
    the step formed (a full-batch step corrects before it contracts)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shared = []
        self._block = None

    def _form_block(self, x, idx):
        self._block = super()._form_block(x, idx)
        return self._block

    def _correct(self, phi, g, gamma):
        # The kept full-batch block holds Phi^T as its first column.
        block = self._block
        if block is self._kept_block:
            block = block.columns[0]
        self.shared.append(np.shares_memory(phi, block))
        super()._correct(phi, g, gamma)


class TestPhiIsAView:
    @pytest.mark.parametrize("tier", ["float64", "float32"])
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
        the dense block, and the kept lower block columns keep it under
        0.7 of the dense block."""
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
        assert peak < 0.7 * n * n * 8


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
            batch_size=40, seed=0, damping=0.9,
        )
        one = ShardedEigenPro2(
            KERNEL, n_shards=2, transport=transport, s=60, q=15,
            batch_size=40, seed=0, damping=0.9,
        )
        try:
            t.fit(x, y, epochs=2)
            np.testing.assert_array_equal(t.model_.centers, x)
            _assert_matches_reference(t, x, y, epochs=2)
            # The epoch-2 anchor holds the weights after epoch 1: a
            # 1-epoch fit's, in the caller's order.
            one.fit(x, y, epochs=1)
            last = t.last_checkpoint_
            assert last.epoch == 2
            np.testing.assert_array_equal(last.weights, one.model_.weights)
            # Predictions through the group (held order) agree with
            # the caller-order model.
            want = np.asarray(t.predict(x[:50]))
            np.testing.assert_allclose(
                t.predict_sharded(x[:50]), want, rtol=0,
                atol=1e-10 * float(np.abs(want).max()),
            )
        finally:
            t.close()
            one.close()

    @needs_process
    def test_keep_best_val_resyncs_the_shards(self):
        """``keep_best_val`` restores an earlier epoch's weights after
        the last step; the process shards' copies follow, in the held
        order."""
        x, y = _problem(n=360)
        t = ShardedEigenPro2(
            KERNEL, n_shards=2, transport="process", s=60, q=15,
            batch_size=40, seed=0, damping=0.9,
        )
        try:
            t.fit(
                x[:240], y[:240], epochs=4, x_val=x[240:], y_val=y[240:],
                keep_best_val=True,
            )
            val = t.history_.series("val_error")
            assert int(np.argmin(val)) + 1 < len(val)
            np.testing.assert_array_equal(
                t.shard_group_.gather_weights(),
                np.asarray(t.model_.weights)[t._order],
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
