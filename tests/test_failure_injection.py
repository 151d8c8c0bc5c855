"""Failure-injection tests: the system must fail loudly and precisely.

A production library's error paths are part of its contract: device
out-of-memory must point at the offending allocation, bad inputs must be
rejected before they poison the optimizer state, solver caps must leave
honest diagnostics rather than silent wrong answers — and a shard worker
process dying mid-epoch must surface as a clean
:class:`~repro.exceptions.ShardError` (no hang, no leaked shared-memory
segments), never as a wedged training loop.
"""

import math
import os
import threading
import time

import numpy as np
import pytest

from repro.baselines import Falkon, KernelSGD, SMOSVM
from repro.core.eigenpro2 import EigenPro2
from repro.device import DeviceSpec, SimulatedDevice
from repro.exceptions import ConfigurationError, DeviceMemoryError, ShardError
from repro.kernels import GaussianKernel
from repro.shard import transport_available


def tiny_memory_device(scalars: float) -> SimulatedDevice:
    return SimulatedDevice(
        DeviceSpec(
            name="tiny-mem",
            parallel_capacity=1e12,
            throughput=1e12,
            memory_scalars=scalars,
        )
    )


class TestDeviceOOM:
    def test_oversized_batch_raises_oom(self, small_dataset):
        """A batch the device cannot hold must raise DeviceMemoryError —
        the simulated CUDA OOM."""
        ds = small_dataset
        n, d, l = ds.n_train, ds.d, ds.l
        # Memory fits the data and weights, but not the kernel block for
        # a batch of 200.
        dev = tiny_memory_device(n * (d + l) + n * 100)
        t = KernelSGD(
            GaussianKernel(bandwidth=2.0),
            device=dev, batch_size=200, step_size=1.0, seed=0,
        )
        with pytest.raises(DeviceMemoryError, match="kernel_block"):
            t.fit(ds.x_train, ds.y_train, epochs=1)

    def test_oom_leaves_no_leaked_allocations(self, small_dataset):
        ds = small_dataset
        n, d, l = ds.n_train, ds.d, ds.l
        dev = tiny_memory_device(n * (d + l) + n * 100)
        t = KernelSGD(
            GaussianKernel(bandwidth=2.0),
            device=dev, batch_size=200, step_size=1.0, seed=0,
        )
        with pytest.raises(DeviceMemoryError):
            t.fit(ds.x_train, ds.y_train, epochs=1)
        assert dev.memory.used == 0  # everything rolled back

    def test_auto_selection_respects_memory(self, small_dataset):
        """EigenPro 2.0's Step 1 must *choose* a batch that fits — a
        memory-constrained device gets a smaller batch than n, trains
        without OOM, and never exceeds capacity."""
        ds = small_dataset
        n, d, l = ds.n_train, ds.d, ds.l
        # Budget ≈ training state + preconditioner (s*q with s=n, q<=239)
        # + room for a batch of ~130.
        dev = tiny_memory_device(
            float(n * (d + l + 120) + n * 239 + 3000)
        )
        model = EigenPro2(GaussianKernel(bandwidth=2.0), device=dev, seed=0)
        model.fit(ds.x_train, ds.y_train, epochs=1)
        assert model.batch_size_ < n  # memory bound the choice
        assert dev.memory.peak <= dev.memory.capacity


class TestBadInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_x_rejected(self, small_xy, bad):
        x, y = small_xy
        x = x.copy()
        x[3, 2] = bad
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        with pytest.raises(ConfigurationError, match="non-finite"):
            t.fit(x, y)

    def test_nonfinite_y_rejected(self, small_xy):
        x, y = small_xy
        y = y.copy()
        y[5] = np.nan
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        with pytest.raises(ConfigurationError, match="non-finite"):
            t.fit(x, y)

    def test_empty_dataset_rejected(self):
        t = KernelSGD(GaussianKernel(bandwidth=2.0), seed=0)
        with pytest.raises(Exception):
            t.fit(np.zeros((0, 4)), np.zeros((0, 1)))


class TestSolverCapsAreHonest:
    def test_smo_reports_unconverged(self, small_dataset):
        ds = small_dataset
        svm = SMOSVM(GaussianKernel(bandwidth=2.0), max_iter=3)
        svm.fit(ds.x_train, ds.labels_train)
        assert svm.converged_ is not None
        assert not all(svm.converged_)  # 3 iterations cannot finish

    def test_falkon_iteration_cap_recorded(self, small_xy):
        x, y = small_xy
        f = Falkon(
            GaussianKernel(bandwidth=2.0), n_centers=40,
            reg_lambda=1e-12, max_iters=2, tol=1e-14, seed=0,
        )
        f.fit(x, y)
        assert f.n_iters_ == 2  # hit the cap, visibly

    def test_trainer_divergence_is_observable(self, small_xy):
        """A absurd step size diverges; the history must show it rather
        than hide it (train MSE grows, stays finite reporting)."""
        x, y = small_xy
        t = KernelSGD(
            GaussianKernel(bandwidth=2.0),
            batch_size=8, step_size=1e4, seed=0,
        )
        t.fit(x, y, epochs=3)
        series = t.history_.series("train_mse")
        assert series[-1] > series[0]


def _noop_task(worker):
    return worker.shard_id


def _exit_abruptly_task(worker):
    # Simulates a worker crash (OOM-killed, segfault): the process
    # vanishes mid-task without replying.
    os._exit(3)


def _raise_task(worker):
    raise ValueError("worker-side failure")


_KILL_COUNTER = {"n": 0}

# Bound at import time: forked children inherit the monkeypatched trainer
# module, so the wrapper below must call the *original* form task, not
# whatever the module attribute points at after the patch.
from repro.shard.trainer import _form_block_task as _ORIGINAL_FORM_TASK  # noqa: E402


def _form_block_then_die_task(worker, xb, xb_sq_norms):
    # Module-level (hence picklable) wrapper around the trainer's form
    # task that crashes shard 1's worker after a couple of iterations —
    # a mid-epoch worker death.  The counter is per-process: each forked
    # child counts its own form calls.
    _KILL_COUNTER["n"] += 1
    if _KILL_COUNTER["n"] > 2 and worker.shard_id == 1:
        os._exit(5)
    return _ORIGINAL_FORM_TASK(worker, xb, xb_sq_norms)


# Kill-*once* injection for the elastic-recovery tests.  The dying worker
# drops a flag file first (path passed through the environment, which
# forked children inherit), so the rebuilt group's workers — fresh forks
# whose per-process counters restart at zero — see the flag and serve
# normally instead of re-killing themselves every retry.
_KILL_FLAG_ENV = "REPRO_TEST_RECOVERY_KILL_FLAG"
_KILL_SHARD_ENV = "REPRO_TEST_RECOVERY_KILL_SHARD"


def _form_block_kill_once_task(worker, xb, xb_sq_norms):
    _KILL_COUNTER["n"] += 1
    flag = os.environ.get(_KILL_FLAG_ENV)
    target = int(os.environ.get(_KILL_SHARD_ENV, "-1"))
    if (
        flag
        and worker.shard_id == target
        and _KILL_COUNTER["n"] > 2
        and not os.path.exists(flag)
    ):
        with open(flag, "w") as fh:
            fh.write(str(worker.shard_id))
        os._exit(7)
    return _ORIGINAL_FORM_TASK(worker, xb, xb_sq_norms)


_OWNER_KILL_COUNTER = {"n": 0}


def _form_block_kill_owner_task(worker, xb, xb_sq_norms):
    # Kill-once, like the helper above, but of shard 0 — the shard that
    # holds the subsample's weight rows and runs the correction — at its
    # fourth form task: with a checkpoint every two steps, step 3's
    # block, while step 2's correction is still pending on it.
    _OWNER_KILL_COUNTER["n"] += 1
    flag = os.environ.get(_KILL_FLAG_ENV)
    if (
        flag
        and worker.shard_id == 0
        and _OWNER_KILL_COUNTER["n"] == 4
        and not os.path.exists(flag)
    ):
        with open(flag, "w") as fh:
            fh.write("0")
        os._exit(7)
    return _ORIGINAL_FORM_TASK(worker, xb, xb_sq_norms)


def _recovery_problem(n=240, d=8, l=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    proj = rng.standard_normal((d, l))
    y = np.tanh(x @ proj / np.sqrt(d))
    return x, y


def _recovery_trainer(g, transport, **kw):
    from repro.shard import ShardedEigenPro2

    kw.setdefault("checkpoint_every", 2)
    return ShardedEigenPro2(
        GaussianKernel(bandwidth=2.0),
        n_shards=g,
        transport=transport,
        s=48,
        batch_size=32,
        seed=0,
        damping=0.5,
        **kw,
    )


def _rank_kill_watcher(trainer, killed, timeout_s=60.0):
    """Parent-side injector for transports whose workers re-import the
    real modules (spawn): poll until the first checkpoint of the fit
    exists, then SIGKILL the last shard's worker process."""

    def run():
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline and not killed.is_set():
            group = trainer.shard_group_
            if (
                group is not None
                and trainer.last_checkpoint_ is not None
                and not trainer.recovery_log_
            ):
                try:
                    proc = group.executors[-1].process
                    if proc.is_alive():
                        proc.kill()
                        killed.set()
                        return
                except (AttributeError, IndexError):
                    return  # group torn down under us; the fit is ending
            time.sleep(0.002)

    thread = threading.Thread(
        target=run, name="repro-test-rank-killer", daemon=True
    )
    thread.start()
    return thread


def _leaked_segment_names(group):
    return [shm.name for shm in group._segments]


def _assert_segments_unlinked(names):
    from multiprocessing import shared_memory

    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


needs_process = pytest.mark.skipif(
    not transport_available("process"),
    reason="platform lacks fork-safe shared memory",
)


@needs_process
class TestProcessTransportFailure:
    """Killing a process-transport worker mid-epoch must raise a clean
    ShardError — no hang, no leaked shared-memory segments — and worker-
    side exceptions must cross the transport intact."""

    def _group(self, g=2):
        from repro.shard import ShardGroup

        rng = np.random.default_rng(0)
        centers = rng.standard_normal((64, 4))
        weights = rng.standard_normal((64, 2))
        return ShardGroup.build(
            centers, weights, g=g, transport="process",
            kernel=GaussianKernel(bandwidth=2.0),
        )

    def test_killed_worker_raises_shard_error(self):
        group = self._group()
        names = _leaked_segment_names(group)
        try:
            assert group.map(_noop_task) == [0, 1]
            group.executors[1].process.kill()
            with pytest.raises(ShardError, match="shard 1.*died"):
                group.map(_noop_task)
            # Subsequent submissions fail fast, not by timeout.
            with pytest.raises(ShardError, match="unavailable"):
                group.submit(1, _noop_task).result()
            # The surviving shard still works.
            assert group.submit(0, _noop_task).result() == 0
        finally:
            group.close()
        _assert_segments_unlinked(names)

    def test_worker_dying_mid_task_raises(self):
        group = self._group()
        names = _leaked_segment_names(group)
        try:
            with pytest.raises(ShardError, match="died"):
                group.map(_exit_abruptly_task)
        finally:
            group.close()
        _assert_segments_unlinked(names)

    def test_alive_probe_reports_dead_worker(self):
        """The liveness probe must *report* a dead worker — without
        raising, and without waiting for the next task to trip over
        it."""
        group = self._group()
        try:
            assert group.alive() == [True, True]
            assert group.dead_shards() == []
            group.executors[1].process.kill()
            deadline = time.monotonic() + 10.0
            while group.alive()[1] and time.monotonic() < deadline:
                time.sleep(0.01)  # SIGKILL delivery is asynchronous
            assert group.alive() == [True, False]
            assert group.dead_shards() == [1]
            # Probing latched the death: submissions now fail fast.
            with pytest.raises(ShardError, match="unavailable"):
                group.submit(1, _noop_task).result()
        finally:
            group.close()

    def test_worker_exception_crosses_transport(self):
        with self._group() as group:
            with pytest.raises(ValueError, match="worker-side failure"):
                group.map(_raise_task)
            # The failure was the task's, not the transport's: the
            # workers survive and keep serving.
            assert group.map(_noop_task) == [0, 1]

    def test_close_is_idempotent_and_unlinks(self):
        group = self._group()
        names = _leaked_segment_names(group)
        group.close()
        group.close()
        _assert_segments_unlinked(names)
        with pytest.raises(ShardError, match="closed"):
            group.submit(0, _noop_task)

    def test_rejected_config_leaves_no_segments(self):
        """A configuration rejected at construction (weights rows not
        matching the plan) must not leave an orphaned shared-memory
        segment behind."""
        import glob

        from repro.shard.plan import ShardPlan
        from repro.shard.transport.process import ProcessTransport

        rng = np.random.default_rng(3)
        before = set(glob.glob("/dev/shm/psm_*"))
        with pytest.raises(ConfigurationError, match="rows"):
            ProcessTransport(
                ShardPlan.contiguous(10, 2),
                rng.standard_normal((10, 3)),
                rng.standard_normal((7, 2)),
            )
        assert set(glob.glob("/dev/shm/psm_*")) == before

    def test_trainer_survives_worker_death(self, small_dataset):
        """A worker killed after training: the next sharded operation
        raises ShardError, close() completes, segments are unlinked."""
        from repro.shard import ShardedEigenPro2

        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=2,
            transport="process",
            s=60,
            batch_size=32,
            seed=0,
        )
        try:
            trainer.fit(small_dataset.x_train, small_dataset.y_train, epochs=1)
            names = _leaked_segment_names(trainer.shard_group_)
            trainer.shard_group_.executors[0].process.kill()
            with pytest.raises(ShardError):
                trainer.predict_sharded(small_dataset.x_test)
        finally:
            trainer.close()
        _assert_segments_unlinked(names)

    def test_fit_failure_propagates_original_error(self, small_dataset):
        """With the elastic-recovery budget zeroed, a worker death
        mid-fit surfaces the ShardError (not a masking secondary failure
        from the cleanup path) and carries the last checkpoint for
        out-of-band resumption."""
        from repro.shard import ShardedEigenPro2
        from repro.shard import trainer as shard_trainer

        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=2,
            transport="process",
            s=60,
            batch_size=32,
            seed=0,
            max_recoveries=0,
        )
        original_form = shard_trainer._form_block_task
        shard_trainer._form_block_task = _form_block_then_die_task
        try:
            with pytest.raises(ShardError, match="died") as excinfo:
                trainer.fit(
                    small_dataset.x_train, small_dataset.y_train, epochs=2
                )
            names = _leaked_segment_names(trainer.shard_group_)
        finally:
            shard_trainer._form_block_task = original_form
            trainer.close()
        _assert_segments_unlinked(names)
        # The epoch-anchor checkpoint existed before the failure, so the
        # exhausted-budget path must attach it to the propagating error.
        ckpt = excinfo.value.checkpoint
        assert ckpt is not None
        assert ckpt.g == 2 and ckpt.transport == "process"
        assert ckpt.weights.shape == trainer._alpha.shape


@needs_process
class TestProcessElasticRecovery:
    """A worker killed mid-fit must not end the fit: the trainer shrinks
    to ``g - 1`` shards, restores the last checkpoint and resumes, and
    the recovered weights match a failure-free run of the same workload
    within the documented 1e-6-of-scale bound (replay is exact; only the
    collective's association order over the shrunken plan differs)."""

    @pytest.mark.parametrize("g", [2, 4])
    def test_killed_worker_recovers_mid_fit(self, g, tmp_path, monkeypatch):
        from repro.shard import trainer as shard_trainer

        x, y = _recovery_problem()
        # Failure-free reference on the same transport and workload.
        ref = _recovery_trainer(g, "process")
        try:
            ref.fit(x, y, epochs=2)
            assert ref.recovery_log_ == []
            ref_w = np.array(ref._alpha)
        finally:
            ref.close()

        flag = tmp_path / "killed.flag"
        monkeypatch.setenv(_KILL_FLAG_ENV, str(flag))
        monkeypatch.setenv(_KILL_SHARD_ENV, str(g - 1))
        monkeypatch.setattr(
            shard_trainer, "_form_block_task", _form_block_kill_once_task
        )
        trainer = _recovery_trainer(g, "process")
        try:
            trainer.fit(x, y, epochs=2)
            assert flag.exists()  # the kill actually fired
            assert len(trainer.recovery_log_) == 1
            event = trainer.recovery_log_[0]
            assert event.old_g == g and event.new_g == g - 1
            assert event.dead_shards == (g - 1,)
            assert event.replayed_steps >= 0
            assert event.recovery_s >= 0.0
            assert "died" in event.error
            assert trainer.shard_group_.g == g - 1
            recovered_w = np.array(trainer._alpha)
        finally:
            trainer.close()

        scale = float(np.max(np.abs(ref_w)))
        assert np.max(np.abs(recovered_w - ref_w)) <= 1e-6 * scale

    @pytest.mark.parametrize("tier", ["float64", "mixed"])
    def test_killed_owner_recovers_with_pending_correction(
        self, tier, tmp_path, monkeypatch
    ):
        """Killing the shard that runs the correction loses the
        correction it had pending.  The checkpoint recovery resumes from
        already holds every correction before its cursor (its weights
        match the serial trainer's after as many steps, and under mixed
        precision it carries the Kahan compensation), so the recovered
        fit matches a failure-free one."""
        from repro.config import use_precision
        from repro.shard import ShardedEigenPro2
        from repro.shard import trainer as shard_trainer

        x, y = _recovery_problem()
        checkpoints = {}
        take = ShardedEigenPro2._take_checkpoint

        def keep(self, cursor):
            ckpt = take(self, cursor)
            checkpoints.setdefault((ckpt.epoch, ckpt.batch_cursor), ckpt)
            return ckpt

        monkeypatch.setattr(ShardedEigenPro2, "_take_checkpoint", keep)
        with use_precision(tier):
            ref = _recovery_trainer(2, "process")
            try:
                ref.fit(x, y, epochs=2)
                ref_w = np.array(ref._alpha)
            finally:
                ref.close()

            restored = []
            recover = ShardedEigenPro2._recover_or_reraise

            def spy(self, exc, x):
                restored.append(self.last_checkpoint_)
                return recover(self, exc, x)

            monkeypatch.setattr(ShardedEigenPro2, "_recover_or_reraise", spy)
            monkeypatch.setenv(_KILL_FLAG_ENV, str(tmp_path / "killed.flag"))
            monkeypatch.setattr(
                shard_trainer, "_form_block_task", _form_block_kill_owner_task
            )
            _OWNER_KILL_COUNTER["n"] = 0  # forked workers start from here
            trainer = _recovery_trainer(2, "process")
            try:
                trainer.fit(x, y, epochs=2)
                (event,) = trainer.recovery_log_
                assert event.dead_shards == (0,) and event.new_g == 1
                recovered_w = np.array(trainer._alpha)
            finally:
                trainer.close()

            (ckpt,) = restored
            assert (ckpt.epoch, ckpt.batch_cursor) == (1, 2)
            assert event.resumed_step == 2
            serial = EigenPro2(
                GaussianKernel(bandwidth=2.0), s=48, batch_size=32, seed=0,
                damping=0.5,
            )
            serial.fit(x, y, epochs=1, max_iterations=ckpt.batch_cursor)
        want = np.asarray(serial.model_.weights)
        scale = float(np.max(np.abs(want)))
        # Without step 1's correction the checkpoint is off by ~0.7 of
        # scale; mixed precision's float32 blocks allow ~1e-6.
        tol = 1e-10 if tier == "float64" else 1e-4
        assert np.max(np.abs(ckpt.weights - want)) <= tol * scale
        # Bitwise the failure-free fit's checkpoint at the same cursor.
        twin = checkpoints[(1, 2)]
        assert twin is not ckpt
        np.testing.assert_array_equal(ckpt.weights, twin.weights)
        if tier == "mixed":
            assert ckpt.correction_comp.shape == (48, y.shape[1])
            np.testing.assert_array_equal(
                ckpt.correction_comp, twin.correction_comp
            )
        else:
            assert ckpt.correction_comp is None
        # The replay contracts over one shard instead of two: float64
        # keeps the class's 1e-6 bound, float32 blocks read ~3e-6.
        tol = 1e-6 if tier == "float64" else 1e-5
        scale = float(np.max(np.abs(ref_w)))
        assert np.max(np.abs(recovered_w - ref_w)) <= tol * scale

    def test_checkpoint_persists_to_disk_and_roundtrips(self, tmp_path):
        from repro.shard.recovery import ShardCheckpoint

        x, y = _recovery_problem()
        trainer = _recovery_trainer(2, "process", checkpoint_dir=tmp_path)
        try:
            trainer.fit(x, y, epochs=1)
            last = trainer.last_checkpoint_
            assert last is not None
            path = tmp_path / "checkpoint.pkl"
            assert path.exists()
            loaded = ShardCheckpoint.load(path)
            np.testing.assert_array_equal(loaded.weights, last.weights)
            assert loaded.epoch == last.epoch
            assert loaded.batch_cursor == last.batch_cursor
            assert loaded.g == 2
            assert loaded.transport == "process"
            assert loaded.rng_state == last.rng_state
            assert loaded.op_counts == last.op_counts
        finally:
            trainer.close()

    def test_min_shards_floor_reraises_with_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """With ``min_shards`` equal to the current group size there is
        nothing to shrink to: the original error propagates, checkpoint
        attached, after zero recoveries."""
        from repro.shard import trainer as shard_trainer

        x, y = _recovery_problem()
        monkeypatch.setenv(_KILL_FLAG_ENV, str(tmp_path / "killed.flag"))
        monkeypatch.setenv(_KILL_SHARD_ENV, "1")
        monkeypatch.setattr(
            shard_trainer, "_form_block_task", _form_block_kill_once_task
        )
        trainer = _recovery_trainer(2, "process", min_shards=2)
        try:
            with pytest.raises(ShardError, match="died") as excinfo:
                trainer.fit(x, y, epochs=2)
            assert trainer.recovery_log_ == []
            assert excinfo.value.checkpoint is not None
        finally:
            trainer.close()


needs_torchdist = pytest.mark.skipif(
    not transport_available("torchdist"),
    reason="torch is not installed (transport 'torchdist' unavailable)",
)


@needs_torchdist
class TestTorchDistTransportFailure:
    """Killing a torchdist rank must raise a clean ShardError — no hang
    even when the surviving rank sits in a collective whose peer died —
    and close() must always tear the process group down: children joined
    or terminated, shared segments unlinked, rendezvous directory
    removed."""

    def _group(self, g=2, **options):
        from repro.shard import ShardGroup

        rng = np.random.default_rng(0)
        centers = rng.standard_normal((64, 4))
        weights = rng.standard_normal((64, 2))
        return ShardGroup.build(
            centers, weights, g=g, transport="torchdist",
            kernel=GaussianKernel(bandwidth=2.0), **options,
        )

    def _assert_torn_down(self, group, names):
        _assert_segments_unlinked(names)
        assert group._init_dir is None
        for ex in group.executors:
            assert not ex.process.is_alive()

    def test_killed_rank_raises_shard_error(self):
        group = self._group()
        names = _leaked_segment_names(group)
        init_dir = group._init_dir
        try:
            assert group.map(_noop_task) == [0, 1]
            group.executors[1].process.kill()
            with pytest.raises(ShardError, match="shard 1.*died"):
                group.map(_noop_task)
            with pytest.raises(ShardError, match="unavailable"):
                group.submit(1, _noop_task).result()
            # The surviving rank still serves non-collective tasks.
            assert group.submit(0, _noop_task).result() == 0
        finally:
            group.close()
        self._assert_torn_down(group, names)
        assert not os.path.exists(init_dir)

    def test_collective_with_dead_peer_raises(self):
        """An all-reduce whose peer rank died must error out (gloo
        detects the broken connection or hits the group timeout), never
        hang the caller."""
        group = self._group(timeout_s=20.0)
        names = _leaked_segment_names(group)
        try:
            group.executors[1].process.kill()
            rows = np.ones((4, 2))
            with pytest.raises(ShardError):
                group.allreduce([rows, rows])
        finally:
            group.close()
        self._assert_torn_down(group, names)

    def test_worker_exception_crosses_transport(self):
        with self._group() as group:
            with pytest.raises(ValueError, match="worker-side failure"):
                group.map(_raise_task)
            # The failure was the task's: the ranks and their process
            # group survive and keep serving (including collectives).
            assert group.map(_noop_task) == [0, 1]
            rows = np.full((3, 2), 2.0)
            out = np.asarray(group.allreduce([rows, rows]))
            np.testing.assert_array_equal(out, 4.0 * rows)

    def test_close_is_idempotent_and_cleans_up(self):
        group = self._group()
        names = _leaked_segment_names(group)
        init_dir = group._init_dir
        group.close()
        group.close()
        self._assert_torn_down(group, names)
        assert not os.path.exists(init_dir)
        with pytest.raises(ConfigurationError, match="closed"):
            group.submit(0, _noop_task)

    def test_trainer_survives_rank_death(self, small_dataset):
        from repro.shard import ShardedEigenPro2

        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.5),
            n_shards=2,
            transport="torchdist",
            s=60,
            batch_size=32,
            seed=0,
        )
        try:
            trainer.fit(small_dataset.x_train, small_dataset.y_train, epochs=1)
            names = _leaked_segment_names(trainer.shard_group_)
            trainer.shard_group_.executors[0].process.kill()
            with pytest.raises(ShardError):
                trainer.predict_sharded(small_dataset.x_test)
        finally:
            trainer.close()
        _assert_segments_unlinked(names)


@needs_torchdist
class TestTorchDistElasticRecovery:
    """Elastic recovery with real ``torch.distributed`` ranks.  The
    injector is a parent-side watcher thread (spawned workers re-import
    the real modules, so the fork-inherited task patch the process-
    transport tests use cannot run there): it polls for the fit's first
    checkpoint, then SIGKILLs the last rank's worker process.  The group
    timeout bounds any collective the survivors are blocked in, so the
    failure surfaces as a ShardError and recovery proceeds — never a
    hang."""

    OPTIONS = {"timeout_s": 20.0}

    @pytest.mark.parametrize("g", [2, 4])
    def test_killed_rank_recovers_mid_fit(self, g):
        x, y = _recovery_problem()
        ref = _recovery_trainer(
            g, "torchdist", transport_options=dict(self.OPTIONS)
        )
        try:
            ref.fit(x, y, epochs=2)
            assert ref.recovery_log_ == []
            ref_w = np.array(ref._alpha)
        finally:
            ref.close()

        trainer = _recovery_trainer(
            g, "torchdist", transport_options=dict(self.OPTIONS)
        )
        killed = threading.Event()
        try:
            watcher = _rank_kill_watcher(trainer, killed)
            trainer.fit(x, y, epochs=2)
            watcher.join(timeout=60.0)
            assert killed.is_set()  # the injection actually fired
            assert len(trainer.recovery_log_) == 1
            event = trainer.recovery_log_[0]
            assert event.old_g == g and event.new_g == g - 1
            assert event.replayed_steps >= 0
            assert trainer.shard_group_.g == g - 1
            recovered_w = np.array(trainer._alpha)
        finally:
            trainer.close()

        scale = float(np.max(np.abs(ref_w)))
        assert np.max(np.abs(recovered_w - ref_w)) <= 1e-6 * scale

    def test_dead_peer_group_errors_then_rebuilds(self):
        """g=3: a collective whose peer rank died must surface as a
        ShardError on the survivors (gloo broken-connection detection or
        the group timeout — no hang), after which a fresh group over the
        surviving shard count serves collectives again: the manual
        analogue of the trainer's elastic shrink."""
        from repro.shard import ShardGroup

        rng = np.random.default_rng(0)
        centers = rng.standard_normal((96, 4))
        weights = rng.standard_normal((96, 2))
        kernel = GaussianKernel(bandwidth=2.0)
        rows = np.ones((4, 2))
        group = ShardGroup.build(
            centers, weights, g=3, transport="torchdist",
            kernel=kernel, **self.OPTIONS,
        )
        try:
            group.executors[-1].process.kill()
            with pytest.raises(ShardError):
                group.allreduce([rows, rows, rows])
            assert 2 in group.dead_shards()
        finally:
            group.close()
        rebuilt = ShardGroup.build(
            centers, weights, g=2, transport="torchdist",
            kernel=kernel, **self.OPTIONS,
        )
        try:
            out = np.asarray(rebuilt.allreduce([rows, rows]))
            np.testing.assert_array_equal(out, 2.0 * rows)
        finally:
            rebuilt.close()


class TestDegenerateGeometry:
    def test_duplicate_points_train_fine(self):
        """Exact duplicates make K singular; iterative training must not
        care (no inversion involved)."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        x = np.vstack([x, x[:10]])
        y = np.sin(x[:, :1])
        model = EigenPro2(GaussianKernel(bandwidth=1.5), s=50, seed=0)
        model.fit(x, y, epochs=20)
        assert np.isfinite(model.mse(x, y))

    def test_single_feature(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 1))
        y = np.cos(x)
        model = EigenPro2(GaussianKernel(bandwidth=1.0), seed=0)
        model.fit(x, y, epochs=30)
        assert model.mse(x, y) < 0.1

    def test_constant_labels(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        y = np.ones((50, 1))
        model = EigenPro2(GaussianKernel(bandwidth=2.0), seed=0)
        model.fit(x, y, epochs=30)
        assert model.mse(x, y) < 0.05
