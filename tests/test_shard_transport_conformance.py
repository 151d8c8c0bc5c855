"""Cross-transport conformance suite for the shard transport layer.

One parameterized suite pins both transports (thread and process) to
the same contract:

- **bitwise parity across transports**: for a fixed shard plan, weights,
  histories and sharded-op results are *bit-identical* between the
  thread and the process transport — both run the same task functions
  on the same shard slices, and a transport moves bytes, it never
  re-computes;
- **parity with the unsharded trainer**: exact (bitwise) at ``g = 1``;
  for ``g > 1`` within 1e-6 of scale (the per-shard partial sums
  necessarily associate the floating-point reduction differently than
  one full GEMM);
- **exact aggregate op counts** vs the unsharded trainer for every
  compute category, with communication metered separately under
  ``"allreduce"`` (zero at ``g = 1``);
- **one weight-row rule**: the caller writes shard weight rows in place
  on every transport that does not hold views — visible to the workers,
  no task, no barrier — pinned by exact per-worker task counts of the
  trainer's step (a prefetched form task plus a contract task per
  iteration), and ``set_weights`` keeps every shard's shape and dtype;
- seeded runs are reproducible per transport.

``REPRO_SHARD_G`` restricts the shard counts (single value or comma
list, e.g. ``REPRO_SHARD_G=2`` or ``REPRO_SHARD_G=1,2,4``);
``REPRO_SHARD_TRANSPORT`` restricts the transports — both are how the
CI matrix splits the suite.  Process cases on a host without fork-safe
shared memory *skip with a reason* rather than disappearing.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import use_precision
from repro.core.eigenpro2 import EigenPro2
from repro.device.presets import titan_xp
from repro.exceptions import ConfigurationError
from repro.instrument import meter_scope, record_ops
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.observe import Tracer, span, trace_scope
from repro.shard import (
    ProcessTransport,
    ShardGroup,
    ShardedEigenPro2,
    ThreadTransport,
    resolve_transport,
    sharded_kernel_matvec,
    sharded_predict,
)
from repro.shard.transport.thread import ShardExecutor
from shard_helpers import CopyingBackend

_ENV_G = os.environ.get("REPRO_SHARD_G")
G_VALUES = (
    [int(g) for g in _ENV_G.split(",")] if _ENV_G else [1, 2, 4]
)
_ENV_T = os.environ.get("REPRO_SHARD_TRANSPORT")
ALL_TRANSPORTS = ("thread", "process")
TRANSPORTS = (
    [t for t in ALL_TRANSPORTS if t in _ENV_T.split(",")]
    if _ENV_T
    else ALL_TRANSPORTS
)


def _transport_param(t: str) -> object:
    return pytest.param(
        t,
        marks=pytest.mark.skipif(
            t == "process" and not ProcessTransport.is_available(),
            reason=f"transport {t!r} is not available on this host",
        ),
    )


shard_counts = pytest.mark.parametrize("g", G_VALUES)
transports = pytest.mark.parametrize(
    "transport", [_transport_param(t) for t in TRANSPORTS]
)
#: The thread transport is the bitwise reference; these are the
#: transports compared against it.
nonthread_transports = pytest.mark.parametrize(
    "transport", [_transport_param(t) for t in TRANSPORTS if t != "thread"]
)

needs_process = pytest.mark.skipif(
    not ProcessTransport.is_available(),
    reason="platform lacks fork-safe shared memory",
)


def _layout_params(layouts):
    return [
        pytest.param(
            t, copying, id=f"{t}-{'copies' if copying else 'views'}",
            marks=_transport_param(t).marks,
        )
        for t, copying in layouts
        if t in TRANSPORTS
    ]


#: Where shard weight rows can live: views of the caller's array (NumPy
#: thread shards), copies (thread shards on a copying backend, as device
#: backends are) and shared-memory segments (process shards).
weight_layouts = pytest.mark.parametrize(
    "transport, copying",
    _layout_params([("thread", False), ("thread", True), ("process", False)]),
)
#: The layouts whose rows the caller's updates must be mirrored into.
mirrored_layouts = pytest.mark.parametrize(
    "transport, copying",
    _layout_params([("thread", True), ("process", False)]),
)


def _layout_backends(copying, g):
    return [CopyingBackend() for _ in range(g)] if copying else None


def _count_tasks(monkeypatch):
    """Count, per shard id, the tasks given to thread executors from now
    on (process executors count their own round trips in ``rpc_count``)."""
    counts: dict[int, int] = {}
    for name in ("submit", "submit_metered"):
        submit = getattr(ShardExecutor, name)

        def counted(ex, *args, _submit=submit, **kwargs):
            counts[ex.shard_id] = counts.get(ex.shard_id, 0) + 1
            return _submit(ex, *args, **kwargs)

        monkeypatch.setattr(ShardExecutor, name, counted)
    return counts


def _tasks_run(group, counts):
    """Tasks each shard of ``group`` was given (see :func:`_count_tasks`)."""
    if group.name == "process":
        return [ex.rpc_count for ex in group.executors]
    return [counts.get(i, 0) for i in range(group.g)]


KW = dict(s=80, batch_size=32, seed=0, damping=0.9)
BANDWIDTH = 2.5


# Module-level task (picklable) used by the mirror write-through test.
def _read_weight_rows_task(worker, local_idx):
    return np.asarray(worker.weights[local_idx]).copy()


# Module-level task (picklable) used by the wire-contract test.
def _wire_task(worker, n):
    with span("wire", n=n):
        record_ops("gemm", n)
    return 2 * n


# Module-level task (picklable) used by the shared-state test.
def _state_summary_task(worker):
    v = worker.state["v"]
    return float(v.sum()), v.shape, worker.state["k"]


# Module-level task (picklable) used by the map_allreduce return test:
# shard i contributes an (m, l) partial filled with i + 1.
def _filled_partial_task(worker, m, l):
    return np.full((m, l), float(worker.shard_id + 1))


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(13)
    centers = rng.standard_normal((211, 6))
    weights = rng.standard_normal((211, 3))
    x = rng.standard_normal((48, 6))
    return centers, weights, x


def _fit_sharded(ds, transport, g, epochs=2):
    trainer = ShardedEigenPro2(
        GaussianKernel(bandwidth=BANDWIDTH),
        n_shards=g,
        transport=transport,
        device=titan_xp(),
        **KW,
    )
    try:
        with meter_scope() as meter:
            trainer.fit(ds.x_train, ds.y_train, epochs=epochs)
        alpha = np.asarray(trainer._alpha).copy()
        history = trainer.history_.series("train_mse")
        params = trainer.params_
        step = trainer.step_size_
    finally:
        trainer.close()
    return alpha, history, meter.as_dict(), params, step


@pytest.fixture(scope="module")
def unsharded(small_dataset):
    with meter_scope() as meter:
        ref = EigenPro2(
            GaussianKernel(bandwidth=BANDWIDTH), device=titan_xp(), **KW
        )
        ref.fit(small_dataset.x_train, small_dataset.y_train, epochs=2)
    return ref, meter.as_dict()


class TestTrainerConformance:
    @shard_counts
    @nonthread_transports
    def test_transports_bitwise_identical(self, small_dataset, g, transport):
        """The tentpole invariant: every transport produces weights,
        histories and op counts bit-identical to the thread transport's."""
        a_thread, h_thread, m_thread, p_thread, s_thread = _fit_sharded(
            small_dataset, "thread", g
        )
        a_other, h_other, m_other, p_other, s_other = _fit_sharded(
            small_dataset, transport, g
        )
        np.testing.assert_array_equal(a_other, a_thread)
        assert h_other == h_thread
        assert m_other == m_thread
        assert p_other == p_thread and s_other == s_thread

    @shard_counts
    @transports
    def test_matches_unsharded_trainer(self, small_dataset, unsharded, g, transport):
        ref, _ = unsharded
        alpha, history, _, params, step = _fit_sharded(
            small_dataset, transport, g
        )
        ref_alpha = np.asarray(ref._alpha)
        if g == 1:
            # One shard runs the very same arithmetic: exact.
            np.testing.assert_array_equal(alpha, ref_alpha)
        else:
            scale = max(float(np.abs(ref_alpha).max()), 1.0)
            np.testing.assert_allclose(
                alpha, ref_alpha, atol=1e-6 * scale, rtol=0
            )
        np.testing.assert_allclose(
            history, ref.history_.series("train_mse"), rtol=1e-6
        )
        # Selection (Steps 1-3) is identical: same device, same seed.
        assert params.q_adjusted == ref.params_.q_adjusted
        assert step == ref.step_size_

    @shard_counts
    @transports
    def test_aggregate_op_counts_exact(self, small_dataset, unsharded, g, transport):
        _, ref_counts = unsharded
        _, _, counts, _, _ = _fit_sharded(small_dataset, transport, g)
        for category, ops in ref_counts.items():
            assert counts.get(category) == ops, category
        # Communication is metered separately and vanishes at g=1.
        extra = set(counts) - set(ref_counts)
        assert extra <= {"allreduce"}
        if g == 1:
            assert counts.get("allreduce", 0) == 0
        else:
            assert counts.get("allreduce", 0) > 0

    @transports
    def test_seeded_runs_reproducible(self, small_dataset, transport):
        a1, h1, m1, _, _ = _fit_sharded(small_dataset, transport, 2, epochs=1)
        a2, h2, m2, _, _ = _fit_sharded(small_dataset, transport, 2, epochs=1)
        np.testing.assert_array_equal(a1, a2)
        assert h1 == h2 and m1 == m2


class TestShardedOpsConformance:
    @shard_counts
    @nonthread_transports
    def test_matvec_bitwise_across_transports(self, problem, g, transport):
        centers, weights, x = problem
        kernel = LaplacianKernel(bandwidth=2.0)
        results = {}
        for name in ("thread", transport):
            with ShardGroup.build(
                centers, weights, g=g, kernel=kernel, transport=name
            ) as group:
                results[name] = np.asarray(
                    sharded_kernel_matvec(kernel, x, group)
                )
        np.testing.assert_array_equal(results[transport], results["thread"])

    @shard_counts
    @transports
    def test_predict_and_meter(self, problem, g, transport):
        from repro.kernels.ops import kernel_matvec

        centers, weights, x = problem
        kernel = GaussianKernel(bandwidth=2.0)
        with meter_scope() as ref_meter:
            ref = kernel_matvec(kernel, x, centers, weights)
        with ShardGroup.build(
            centers, weights, g=g, kernel=kernel, transport=transport
        ) as group:
            with meter_scope() as meter:
                got = sharded_predict(group, x)
            per_shard = group.op_counts()
            reduced = group.map_allreduce(
                _filled_partial_task, x.shape[0], weights.shape[1]
            )
        np.testing.assert_allclose(got, ref, atol=1e-6, rtol=0)
        # map_allreduce returns the reduced (m, l) array alone.
        assert not isinstance(reduced, tuple)
        np.testing.assert_array_equal(
            np.asarray(reduced),
            np.full((x.shape[0], weights.shape[1]), g * (g + 1) / 2),
        )
        for category in ("kernel_eval", "gemm"):
            assert meter.counts[category].ops == ref_meter.counts[category].ops
            assert per_shard[category] == ref_meter.counts[category].ops
        allreduce = meter.as_dict().get("allreduce", 0)
        if g == 1:
            assert allreduce == 0
        else:
            assert allreduce == (g - 1) * x.shape[0] * weights.shape[1]


class TestMirrorBack:
    """The one weight-row rule: the caller writes shard rows in place,
    visible to the workers, riding no task channel, on every transport."""

    @mirrored_layouts
    def test_write_through_without_task(
        self, problem, transport, copying, monkeypatch
    ):
        centers, weights, _ = problem
        counts = _count_tasks(monkeypatch)
        with ShardGroup.build(
            centers, weights, g=2, transport=transport,
            backends=_layout_backends(copying, 2),
        ) as group:
            assert group.needs_mirror
            before = _tasks_run(group, counts)
            idx = np.array([0, 5, centers.shape[0] - 1])
            rows = np.full((3, weights.shape[1]), 42.0)
            assert group.mirror_rows(idx, rows) is None
            # No task was queued for the mirror...
            assert _tasks_run(group, counts) == before
            # ...yet a task queued afterwards reads the new rows.
            parts = group.plan.localize(idx)
            for shard_id, (positions, local) in enumerate(parts):
                if not positions.size:
                    continue
                seen = group.submit(
                    shard_id, _read_weight_rows_task, local
                ).result()
                np.testing.assert_array_equal(seen, rows[positions])

    @mirrored_layouts
    def test_trainer_never_queues_mirror_tasks(
        self, small_dataset, transport, copying, monkeypatch
    ):
        """End to end: a fit whose shards copy their weights performs no
        per-update mirror task — each worker runs exactly the
        form/contract (+ state setup and settle) tasks."""
        counts = _count_tasks(monkeypatch)
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=BANDWIDTH),
            n_shards=2,
            shard_backends=_layout_backends(copying, 2),
            transport=transport,
            device=titan_xp(),
            **KW,
        )
        try:
            trainer.fit(small_dataset.x_train, small_dataset.y_train, epochs=1)
            assert trainer.shard_group_.needs_mirror
            iterations = trainer.history_.final.iterations
            # Tasks per worker: one batched state setup, form + contract
            # per iteration (2 each), one settle.
            expected = 1 + 2 * iterations + 1
            assert _tasks_run(trainer.shard_group_, counts) == [expected] * 2
        finally:
            trainer.close()


class TestSetWeights:
    """``set_weights`` is one in-place write on every transport: a shape
    other than the held weights' raises ``ConfigurationError`` and every
    shard keeps its dtype and shape."""

    @weight_layouts
    def test_rejects_wrong_shape_and_keeps_dtype(self, transport, copying):
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((10, 4))
        weights = rng.standard_normal((10, 2))
        with ShardGroup.build(
            centers, weights, g=2, transport=transport,
            backends=_layout_backends(copying, 2),
        ) as group:
            with pytest.raises(ConfigurationError, match="shape"):
                group.set_weights(np.ones((10, 3)))
            new = rng.standard_normal((10, 2)).astype(np.float32)
            group.set_weights(new)
            for ex in group.executors:
                assert ex.weights.shape == (5, 2)
                assert ex.weights.dtype == np.float64
            np.testing.assert_array_equal(
                group.gather_weights(), new.astype(np.float64)
            )


class _RecordingConn:
    """Parent end of a worker pipe that keeps every message it carries."""

    def __init__(self, conn):
        self.conn = conn
        self.sent: list = []
        self.received: list = []

    def send(self, msg):
        self.sent.append(msg)
        self.conn.send(msg)

    def recv(self):
        reply = self.conn.recv()
        self.received.append(reply)
        return reply

    def __getattr__(self, name):
        return getattr(self.conn, name)


class TestProcessWireContract:
    """The parent-worker pipe format of the process-based transports:
    an untraced task is sent as ``(fn, args, kwargs, precision, False)``
    and answered with ``("ok", result, delta, stats)``; a traced task
    differs only in the flag and in the span list its reply carries."""

    @nonthread_transports
    def test_task_and_reply_tuples(self, problem, transport):
        centers, weights, _ = problem
        with ShardGroup.build(
            centers, weights, g=1, transport=transport
        ) as group:
            ex = group.executors[0]
            ex._conn = wire = _RecordingConn(ex._conn)
            try:
                plain = ex.submit_metered(_wire_task, 3).result()
                with trace_scope(Tracer()):
                    traced = ex.submit_metered(_wire_task, 3).result()
            finally:
                ex._conn = wire.conn
        assert wire.sent == [
            (_wire_task, (3,), {}, None, False),
            (_wire_task, (3,), {}, None, True),
        ]
        untraced_reply, traced_reply = wire.received
        kind, result, delta, (counts, peak) = untraced_reply
        assert (kind, result, delta) == ("ok", 6, {"gemm": 3})
        assert counts == {"gemm": 3} and int(peak) >= 0
        assert len(traced_reply) == 5
        assert traced_reply[:3] == untraced_reply[:3]
        (payload,) = traced_reply[3]
        assert payload["name"] == "wire"
        assert payload["attrs"] == {"n": 3, "shard": 0}
        counts, peak = traced_reply[4]
        assert counts == {"gemm": 6} and int(peak) >= 0
        assert plain == (6, {"gemm": 3})
        assert traced == (6, {"gemm": 3}, traced_reply[3])


class _WireTapTrainer(ShardedEigenPro2):
    """Records every message on its workers' pipes after the per-fit
    setup task."""

    def _build_group(self, x, g):
        super()._build_group(x, g)
        for ex in self.shard_group_.executors:
            ex._conn = _RecordingConn(ex._conn)


class TestProcessWireTraffic:
    """What a process-based fit moves per step: the EigenPro correction
    runs on the shard holding the subsample, so no reply carries ``Phi``
    (``m * s`` scalars); a step's replies are the ``(m, l)`` partials,
    and the settle replies carry nothing."""

    @nonthread_transports
    def test_replies_carry_no_phi(self, transport):
        import pickle

        from repro.shard.trainer import _form_block_task

        n, m, s, l, g = 800, 100, 200, 2, 2
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, 6))
        y = np.tanh(x @ rng.standard_normal((6, l)))
        trainer = _WireTapTrainer(
            GaussianKernel(bandwidth=BANDWIDTH), n_shards=g,
            transport=transport, s=s, q=40, batch_size=m, seed=0,
            damping=0.9,
        )
        try:
            trainer.fit(x, y, epochs=2)
            iterations = trainer.history_.final.iterations
            wires = [ex._conn for ex in trainer.shard_group_.executors]
            plan = trainer.shard_group_.plan
        finally:
            trainer.close()
        assert plan.bounds[1] >= s  # shard 0 holds the whole subsample
        reply_bytes = 0
        for wire in wires:
            tasks = [msg for msg in wire.sent if msg is not None]
            assert len(tasks) == len(wire.received)  # None: the shutdown
            for task, reply in zip(tasks, wire.received):
                if task[0] is _form_block_task:
                    assert reply[1] is None  # ("ok", result, delta, stats)
                reply_bytes += len(pickle.dumps(reply))
        per_step = reply_bytes / iterations
        assert per_step <= 8 * (m + s) * l * g
        assert per_step < 8 * m * s / 10


    @needs_process
    def test_state_arrays_ride_shared_memory(self, problem):
        """``scatter_state_items`` on the process transport sends array
        values as shared-memory segment names, not payloads; the worker
        reads them as arrays, and ``close()`` unlinks the segments."""
        import pickle
        from multiprocessing import shared_memory

        centers, weights, _ = problem
        big = np.arange(50_000, dtype=np.float64).reshape(500, 100)
        with ShardGroup.build(
            centers, weights, g=2, transport="process"
        ) as group:
            wires = []
            for ex in group.executors:
                ex._conn = _RecordingConn(ex._conn)
                wires.append(ex._conn)
            group.scatter_state_items(
                [{"v": big[:250], "k": 3}, {"v": big[250:], "k": 4}]
            )
            got = group.map(_state_summary_task)
            names = [shm.name for shm in group._segments]
        assert got == [
            (float(big[:250].sum()), (250, 100), 3),
            (float(big[250:].sum()), (250, 100), 4),
        ]
        for wire in wires:
            assert len(pickle.dumps(wire.sent[0])) < big.nbytes // 100
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


_SPAWN_FIT = """
import json
import numpy as np
from repro.kernels import GaussianKernel
from repro.shard import ShardedEigenPro2

rng = np.random.default_rng(0)
x = rng.standard_normal((300, 4))
y = np.tanh(x[:, :2])
trainer = ShardedEigenPro2(
    GaussianKernel(bandwidth=2.0), n_shards=2, transport="process",
    transport_options={"start_method": "spawn"}, s=100, seed=0,
)
trainer.fit(x, y, epochs=1)
names = list(trainer.shard_group_._segment_names)
trainer.close()
print(json.dumps(names))
"""


class TestSpawnSegments:
    """Spawned workers share the parent's resource tracker, so the
    parent's unlink at ``close()`` is each segment's one unregister."""

    @needs_process
    def test_spawn_fit_closes_without_tracker_errors(self):
        import json
        import subprocess
        import sys
        from multiprocessing import shared_memory

        # A fresh interpreter starts its own resource tracker, which
        # inherits the stderr pipe: the pipe reaches EOF only once the
        # tracker has handled every unregister and exited.
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _SPAWN_FIT], env=env, timeout=300,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        names = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(names) > 2  # centers, weights and the pushed state
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestTransportSelection:
    def test_unknown_transport_rejected(self, problem):
        centers, weights, _ = problem
        with pytest.raises(
            ConfigurationError, match="transports: thread, process$"
        ):
            ShardGroup.build(centers, weights, g=2, transport="nccl")

    @needs_process
    def test_process_rejects_device_backends(self, problem):
        centers, weights, _ = problem
        with pytest.raises(ConfigurationError):
            ShardGroup.build(
                centers, weights, g=2, backends="torch:cpu",
                transport="process",
            )

    def test_available_transports_lists_thread(self):
        assert resolve_transport("thread") is ThreadTransport
        assert resolve_transport("process") is ProcessTransport

    @pytest.mark.parametrize("name", ["torchdist", "gloo", "nccl"])
    def test_removed_transport_names_fail_loudly(self, problem, name):
        """Every entry point that takes a transport name rejects the
        removed ones, naming exactly the two transports that exist."""
        from repro.core.model import KernelModel
        from repro.serve import ModelServer

        centers, weights, _ = problem
        kernel = GaussianKernel(bandwidth=BANDWIDTH)
        model = KernelModel(kernel=kernel, centers=centers, weights=weights)
        message = f"unknown shard transport '{name}'; transports: thread, process"
        attempts = [
            lambda: ShardGroup.build(centers, weights, g=2, transport=name),
            lambda: ShardedEigenPro2(kernel, transport=name),
            lambda: ModelServer(model, transport=name),
        ]
        for attempt in attempts:
            with pytest.raises(ConfigurationError) as err:
                attempt()
            assert str(err.value) == message

    def test_trainer_rejects_bad_name_with_explicit_link(self):
        """A typo'd name fails at construction even when the caller
        names the link model, so no fit ever starts with it."""
        from repro.device.cluster import transport_interconnect

        with pytest.raises(ConfigurationError, match="'proces'"):
            ShardedEigenPro2(
                GaussianKernel(bandwidth=BANDWIDTH),
                transport="proces",
                interconnect=transport_interconnect("process"),
            )
        with pytest.raises(ConfigurationError, match="'proces'"):
            ShardedEigenPro2(
                GaussianKernel(bandwidth=BANDWIDTH),
                transport="proces",
                device=titan_xp(),
            )


class TestAllreduceDtypePromotion:
    """allreduce_sum must accumulate at the *joint* dtype of its
    partials: summing in-place into the first partial's dtype would
    silently downcast any higher-precision partial appearing later in
    shard order."""

    def test_mixed_dtype_partials_keep_float64(self):
        from repro.shard import allreduce_sum

        f32 = np.full((3, 2), 0.1, dtype=np.float32)
        f64 = np.full((3, 2), 1e-12, dtype=np.float64)
        out = np.asarray(allreduce_sum([f32, f64]))
        assert out.dtype == np.float64
        # Bitwise parity with the float64 reference sum: the 1e-12 term
        # would vanish entirely under a float32 accumulator.
        np.testing.assert_array_equal(out, f32.astype(np.float64) + f64)

    def test_promotion_is_order_independent(self):
        from repro.shard import allreduce_sum

        rng = np.random.default_rng(7)
        f32 = rng.standard_normal((4, 3)).astype(np.float32)
        f64 = rng.standard_normal((4, 3))
        a = np.asarray(allreduce_sum([f32, f64]))
        b = np.asarray(allreduce_sum([f64, f32]))
        assert a.dtype == b.dtype == np.float64
        np.testing.assert_allclose(a, b, rtol=0, atol=0)

    def test_same_dtype_unchanged(self):
        from repro.shard import allreduce_sum

        parts = [np.ones((2, 2), dtype=np.float32) for _ in range(3)]
        out = np.asarray(allreduce_sum(parts))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, 3.0 * parts[0])


class TestFloat32Conformance:
    """``use_precision("float32")`` across the sharded stack: shards form
    kernel blocks and GEMMs at float32, the collective sums float32
    partials, and the weights stay float32 end to end."""

    @pytest.mark.parametrize("g", [1, 2])
    @transports
    def test_float32_fit_matches_unsharded(self, small_dataset, g, transport):
        with use_precision("float32"):
            ref = EigenPro2(
                GaussianKernel(bandwidth=BANDWIDTH), device=titan_xp(), **KW
            )
            ref.fit(small_dataset.x_train, small_dataset.y_train, epochs=2)
            alpha, history, counts, params, step = _fit_sharded(
                small_dataset, transport, g
            )
        ref_alpha = np.asarray(ref._alpha)
        assert ref_alpha.dtype == np.float32
        assert alpha.dtype == np.float32
        assert params.q_adjusted == ref.params_.q_adjusted
        assert step == ref.step_size_
        if g == 1:
            # One shard runs the very same arithmetic: exact.
            np.testing.assert_array_equal(alpha, ref_alpha)
            np.testing.assert_array_equal(
                history, ref.history_.series("train_mse")
            )
        else:
            # Resharding reassociates the float32 partial sums.
            scale = max(float(np.abs(ref_alpha).max()), 1.0)
            np.testing.assert_allclose(
                alpha, ref_alpha, atol=1e-3 * scale, rtol=0
            )
            np.testing.assert_allclose(
                history, ref.history_.series("train_mse"), rtol=1e-3
            )

    @transports
    def test_float32_op_counts_are_shape_derived(
        self, small_dataset, unsharded, transport
    ):
        """Op counts never depend on the precision tier: the float32
        sharded fit reports the same compute categories as the float64
        unsharded reference (communication metered separately)."""
        _, ref_counts = unsharded
        with use_precision("float32"):
            _, _, counts, _, _ = _fit_sharded(small_dataset, transport, 2)
        for category, ops in ref_counts.items():
            assert counts.get(category) == ops, category
        assert set(counts) - set(ref_counts) <= {"allreduce"}


class TestPendingMapPartialFailure:
    """PendingMap.result() must drain *every* future even when some
    fail: op-count deltas from the shards that completed are relayed
    (once) before the first error is raised, and repeated calls re-raise
    that error instead of re-consuming half-drained futures."""

    @staticmethod
    def _mixed_futures():
        from concurrent.futures import Future

        f0, f1, f2 = Future(), Future(), Future()
        f0.set_result(("r0", {"gemm": 5}))
        f1.set_exception(ValueError("shard 1 task failed"))
        f2.set_result(("r2", {"gemm": 7, "kernel_eval": 11}))
        return [f0, f1, f2]

    def test_relays_completed_deltas_before_raising(self):
        from repro.instrument import OpMeter
        from repro.shard import PendingMap

        pending = PendingMap(self._mixed_futures())
        meter = OpMeter()
        with meter_scope(meter):
            with pytest.raises(ValueError, match="shard 1"):
                pending.result()
        assert meter.total("gemm") == 12
        assert meter.total("kernel_eval") == 11

    def test_repeat_result_reraises_without_double_relay(self):
        from repro.instrument import OpMeter
        from repro.shard import PendingMap

        pending = PendingMap(self._mixed_futures())
        meter = OpMeter()
        with meter_scope(meter):
            with pytest.raises(ValueError, match="shard 1"):
                pending.result()
            with pytest.raises(ValueError, match="shard 1"):
                pending.result()
        assert meter.total("gemm") == 12  # relayed exactly once

    def test_first_error_in_shard_order_wins(self):
        from concurrent.futures import Future
        from repro.shard import PendingMap

        futures = [Future() for _ in range(3)]
        futures[0].set_result(("r0", {}))
        futures[1].set_exception(ValueError("first failure"))
        futures[2].set_exception(RuntimeError("second failure"))
        with pytest.raises(ValueError, match="first failure"):
            PendingMap(futures).result()

    def test_success_path_is_single_shot(self):
        from concurrent.futures import Future
        from repro.instrument import OpMeter
        from repro.shard import PendingMap

        futures = [Future() for _ in range(2)]
        futures[0].set_result(("a", {"gemm": 2}))
        futures[1].set_result(("b", {"gemm": 3}))
        pending = PendingMap(futures)
        meter = OpMeter()
        with meter_scope(meter):
            assert pending.result() == ["a", "b"]
            assert pending.result() == ["a", "b"]
        assert meter.total("gemm") == 5  # relayed exactly once


class TestLifecycleUnderServing:
    """The serving layer's lifecycle contract, pinned per transport:
    ``close()`` is idempotent, and *any* submission after close raises a
    clean :class:`~repro.exceptions.ShardError` — never a hang, an
    ``AttributeError`` from a dropped pool, or a write into an unlinked
    shared-memory segment."""

    @transports
    def test_double_close_is_noop(self, problem, transport):
        centers, weights, _ = problem
        group = ShardGroup.build(
            centers, weights, g=2,
            kernel=GaussianKernel(bandwidth=2.0), transport=transport,
        )
        assert not group.closed
        group.close()
        assert group.closed
        group.close()  # must not raise, hang, or double-release
        assert group.closed

    @transports
    def test_context_manager_closes(self, problem, transport):
        centers, weights, x = problem
        kernel = GaussianKernel(bandwidth=2.0)
        with ShardGroup.build(
            centers, weights, g=2, kernel=kernel, transport=transport
        ) as group:
            sharded_predict(group, x[:4])
            assert not group.closed
        assert group.closed

    @transports
    def test_submit_after_close_raises_shard_error(self, problem, transport):
        from repro.exceptions import ShardError

        centers, weights, x = problem
        kernel = GaussianKernel(bandwidth=2.0)
        group = ShardGroup.build(
            centers, weights, g=2, kernel=kernel, transport=transport
        )
        group.close()
        with pytest.raises(ShardError, match="closed"):
            sharded_predict(group, x[:4])
        with pytest.raises(ShardError, match="closed"):
            group.map_async(_read_weight_rows_task, np.array([0]))

    @transports
    def test_weight_access_after_close_raises_shard_error(
        self, problem, transport
    ):
        from repro.exceptions import ShardError

        centers, weights, _ = problem
        group = ShardGroup.build(
            centers, weights, g=2,
            kernel=GaussianKernel(bandwidth=2.0), transport=transport,
        )
        group.close()
        with pytest.raises(ShardError, match="closed"):
            group.gather_weights()


class TestZeroRowBatches:
    """b = 0 shape contract: an empty dispatcher tick (or any empty
    evaluation batch) yields a well-formed ``(0, l)`` result on every
    transport, bitwise-consistent with the unsharded path."""

    @shard_counts
    @transports
    def test_sharded_predict_zero_rows(self, problem, g, transport):
        from repro.kernels.ops import kernel_matvec

        centers, weights, _ = problem
        kernel = GaussianKernel(bandwidth=2.0)
        x0 = np.empty((0, centers.shape[1]))
        ref = np.asarray(kernel_matvec(kernel, x0, centers, weights))
        with ShardGroup.build(
            centers, weights, g=g, kernel=kernel, transport=transport
        ) as group:
            got = np.asarray(sharded_predict(group, x0))
            mv = np.asarray(sharded_kernel_matvec(kernel, x0, group))
        assert got.shape == (0, weights.shape[1])
        assert mv.shape == (0, weights.shape[1])
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)

    @shard_counts
    @transports
    def test_zero_rows_1d_weights(self, problem, g, transport):
        centers, _, _ = problem
        weights_1d = np.linspace(-1.0, 1.0, centers.shape[0])
        kernel = GaussianKernel(bandwidth=2.0)
        x0 = np.empty((0, centers.shape[1]))
        with ShardGroup.build(
            centers, weights_1d, g=g, kernel=kernel, transport=transport
        ) as group:
            got = np.asarray(sharded_predict(group, x0))
        assert got.shape == (0,)
