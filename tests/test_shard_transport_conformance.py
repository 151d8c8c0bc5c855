"""Cross-transport conformance suite for the shard transport layer.

One parameterized suite pins every *registered* transport (thread,
process, torchdist — anything filed via
:func:`repro.shard.transport.register_transport` joins the list
automatically at collection) to the same contract:

- **bitwise parity across transports**: for a fixed shard plan, weights,
  histories and sharded-op results are *bit-identical* between the
  thread transport and every other transport — every transport runs the
  same task functions on the same shard slices, and a transport moves
  bytes, it never re-computes.  Transports whose collective runs on an
  external fabric (torchdist's ``dist.all_reduce``) declare via
  ``exact_collective_max_g`` the shard count up to which the fabric's
  reduction is provably bit-identical to the host-side shard-order sum
  (2 — IEEE addition of one operand pair is commutative); bitwise cases
  beyond that bound skip with a reason;
- **parity with the unsharded trainer**: exact (bitwise) at ``g = 1``;
  for ``g > 1`` within 1e-6 of scale (the per-shard partial sums
  necessarily associate the floating-point reduction differently than
  one full GEMM);
- **exact aggregate op counts** vs the unsharded trainer for every
  compute category, with communication metered separately under
  ``"allreduce"`` (zero at ``g = 1``);
- **asynchronous mirror-back**: the process-architecture row mirror is a
  direct shared-memory write — visible to the workers, no task, no
  barrier — pinned by exact per-worker RPC counts of the trainer's
  step (a prefetched form task plus a contract task per iteration);
- **real collective**: the torchdist transport's all-reduce rides one
  task per rank through ``dist.all_reduce`` and meters the same
  shape-derived ``(g - 1) * payload`` charge as the host-side sum;
- seeded runs are reproducible per transport.

``REPRO_SHARD_G`` restricts the shard counts (single value or comma
list, e.g. ``REPRO_SHARD_G=2`` or ``REPRO_SHARD_G=1,2,4``);
``REPRO_SHARD_TRANSPORT`` restricts the transports — both are how the
CI matrix splits the suite.  Cases for transports that are registered
but unavailable here (no fork-safe shared memory, no torch) *skip with
a reason* rather than disappearing.
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
    ShardGroup,
    ShardedEigenPro2,
    available_transports,
    registered_transports,
    resolve_transport,
    sharded_kernel_matvec,
    sharded_predict,
    transport_available,
)

_ENV_G = os.environ.get("REPRO_SHARD_G")
G_VALUES = (
    [int(g) for g in _ENV_G.split(",")] if _ENV_G else [1, 2, 4]
)
_ENV_T = os.environ.get("REPRO_SHARD_TRANSPORT")
#: Registry-discovered: registering a transport parameterizes this suite.
ALL_TRANSPORTS = registered_transports()
TRANSPORTS = (
    [t for t in ALL_TRANSPORTS if t in _ENV_T.split(",")]
    if _ENV_T
    else ALL_TRANSPORTS
)


def _transport_param(t: str) -> object:
    return pytest.param(
        t,
        marks=pytest.mark.skipif(
            not transport_available(t),
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
    not transport_available("process"),
    reason="platform lacks fork-safe shared memory",
)
needs_torchdist = pytest.mark.skipif(
    not transport_available("torchdist"),
    reason="torch is not installed (transport 'torchdist' unavailable)",
)


def _skip_beyond_exact_collective(transport: str, g: int) -> None:
    limit = resolve_transport(transport).exact_collective_max_g
    if limit is not None and g > limit:
        pytest.skip(
            f"transport {transport!r} guarantees a bitwise collective "
            f"only up to g={limit} (fabric chooses the association "
            f"order beyond that)"
        )

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
        histories and op counts bit-identical to the thread transport's
        (up to its declared exact-collective bound)."""
        _skip_beyond_exact_collective(transport, g)
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
        _skip_beyond_exact_collective(transport, g)
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


class TestProcessMirrorBack:
    """The async mirror contract: a direct shared-memory write, visible
    to the workers, riding no task channel."""

    @needs_process
    def test_write_through_without_rpc(self, problem):
        centers, weights, _ = problem
        with ShardGroup.build(
            centers, weights, g=2, transport="process"
        ) as group:
            before = [ex.rpc_count for ex in group.executors]
            idx = np.array([0, 5, centers.shape[0] - 1])
            rows = np.full((3, weights.shape[1]), 42.0)
            assert group.mirror_rows(idx, rows) is None  # no PendingMap
            # No task was queued for the mirror...
            assert [ex.rpc_count for ex in group.executors] == before
            # ...yet the workers observe the new rows.
            parts = group.plan.localize(idx)
            for shard_id, (positions, local) in enumerate(parts):
                if not positions.size:
                    continue
                seen = group.submit(
                    shard_id, _read_weight_rows_task, local
                ).result()
                np.testing.assert_array_equal(seen, rows[positions])

    @needs_process
    def test_trainer_never_queues_mirror_tasks(self, small_dataset):
        """End to end: a process-transport fit performs no
        per-update mirror barrier — its RPC traffic is exactly the
        form/contract (+ state setup and teardown) tasks."""
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=BANDWIDTH),
            n_shards=2,
            transport="process",
            device=titan_xp(),
            **KW,
        )
        try:
            trainer.fit(small_dataset.x_train, small_dataset.y_train, epochs=1)
            assert trainer._pending_mirror is None
            iterations = trainer.history_.final.iterations
            # Tasks per worker: one batched state setup, form + contract
            # per iteration (2 each), one workspace drain.
            expected = 1 + 2 * iterations + 1
            for ex in trainer.shard_group_.executors:
                assert ex.rpc_count == expected
        finally:
            trainer.close()


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
    and the settle replies the ``(s, l)`` compensation at most."""

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
            with use_precision("mixed"):
                trainer.fit(x, y, epochs=2)
            iterations = trainer.history_.final.iterations
            wires = [ex._conn for ex in trainer.shard_group_.executors]
        finally:
            trainer.close()
        assert trainer._owners == 1  # shard 0 holds the whole subsample
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


class TestTorchDistCollective:
    """The torchdist-specific contract: the all-reduce is a *real*
    ``dist.all_reduce`` riding one task per rank, metered with the same
    shape-derived charge as the host-side sum, short-circuiting at a
    single rank."""

    @needs_torchdist
    def test_allreduce_is_real_collective(self, problem):
        centers, weights, _ = problem
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 3))
        b = rng.standard_normal((12, 3))
        with ShardGroup.build(
            centers, weights, g=2, transport="torchdist"
        ) as group:
            before = [ex.rpc_count for ex in group.executors]
            with meter_scope() as meter:
                out = np.asarray(group.allreduce([a, b]))
            # The collective rode the task channel: one RPC per rank.
            assert [ex.rpc_count for ex in group.executors] == [
                n + 1 for n in before
            ]
        # Bitwise equal to the host shard-order sum at g = 2 (IEEE
        # commutativity), with the identical "allreduce" charge.
        np.testing.assert_array_equal(out, a + b)
        assert meter.as_dict().get("allreduce", 0) == a.size

    @needs_torchdist
    def test_single_rank_short_circuits(self, problem):
        centers, weights, _ = problem
        a = np.arange(12.0).reshape(4, 3)
        with ShardGroup.build(
            centers, weights, g=1, transport="torchdist"
        ) as group:
            before = [ex.rpc_count for ex in group.executors]
            with meter_scope() as meter:
                out = np.asarray(group.allreduce([a]))
            assert [ex.rpc_count for ex in group.executors] == before
        np.testing.assert_array_equal(out, a)
        assert meter.as_dict().get("allreduce", 0) == 0

    @needs_torchdist
    def test_trainer_rpc_accounting(self, small_dataset):
        """A torchdist fit's per-worker RPC traffic is exactly
        setup + (form, fused contract+all-reduce) per iteration + drain:
        the collective rides *inside* the contraction task
        (`_fused_collective_task`), so each step costs two round-trips,
        not three — and mirror-back stays a direct shared-memory write,
        never a task."""
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=BANDWIDTH),
            n_shards=2,
            transport="torchdist",
            device=titan_xp(),
            **KW,
        )
        try:
            trainer.fit(small_dataset.x_train, small_dataset.y_train, epochs=1)
            assert trainer._pending_mirror is None
            iterations = trainer.history_.final.iterations
            expected = 1 + 2 * iterations + 1
            for ex in trainer.shard_group_.executors:
                assert ex.rpc_count == expected
        finally:
            trainer.close()


class TestTransportSelection:
    def test_unknown_transport_rejected(self, problem):
        centers, weights, _ = problem
        with pytest.raises(ConfigurationError, match="registered"):
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
        names = available_transports()
        assert "thread" in names
        if transport_available("process"):
            assert "process" in names

    def test_registered_transports_include_builtins(self):
        names = registered_transports()
        assert names[:3] == ["thread", "process", "torchdist"]
        # Registration never requires availability; usability filtering
        # happens in available_transports().
        assert set(available_transports()) <= set(names)

    def test_torchdist_unavailable_reported(self):
        """Without torch the transport stays *registered* (so it is
        listed, and selecting it errors helpfully) but not available."""
        if transport_available("torchdist"):
            pytest.skip("torch installed: unavailability path not testable")
        assert "torchdist" in registered_transports()
        assert "torchdist" not in available_transports()
        with pytest.raises(ConfigurationError, match="torch"):
            ShardGroup.build(
                np.zeros((4, 2)), g=2, transport="torchdist"
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


class TestMixedPrecisionConformance:
    """``use_precision("mixed")`` across the sharded stack: shards form
    kernel blocks and GEMMs at float32, the collective accumulates the
    partials at float64 (host combine and torchdist fabric alike), and the
    master weights stay float64 end to end."""

    def test_mixed_allreduce_accumulates_float64(self):
        from repro.config import use_precision
        from repro.shard import allreduce_sum

        parts = [np.full((3,), 0.1, dtype=np.float32) for _ in range(2)]
        out32 = np.asarray(allreduce_sum(parts))
        assert out32.dtype == np.float32
        with use_precision("mixed"):
            out = np.asarray(allreduce_sum(parts))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(
            out, parts[0].astype(np.float64) + parts[1].astype(np.float64)
        )

    @pytest.mark.parametrize("g", [1, 2])
    @transports
    def test_mixed_fit_matches_unsharded_mixed(
        self, small_dataset, g, transport
    ):
        from repro.config import use_precision

        _skip_beyond_exact_collective(transport, g)
        with use_precision("mixed"):
            ref = EigenPro2(
                GaussianKernel(bandwidth=BANDWIDTH), device=titan_xp(), **KW
            )
            ref.fit(small_dataset.x_train, small_dataset.y_train, epochs=2)
            alpha, history, counts, params, step = _fit_sharded(
                small_dataset, transport, g
            )
        ref_alpha = np.asarray(ref._alpha)
        assert ref_alpha.dtype == np.float64
        assert alpha.dtype == np.float64
        assert params.q_adjusted == ref.params_.q_adjusted
        assert step == ref.step_size_
        if g == 1:
            # One shard runs the very same arithmetic: exact.
            np.testing.assert_array_equal(alpha, ref_alpha)
        else:
            # Resharding reassociates float32 partial sums; the float64
            # accumulator keeps the divergence at float32 scale.
            scale = max(float(np.abs(ref_alpha).max()), 1.0)
            np.testing.assert_allclose(
                alpha, ref_alpha, atol=1e-3 * scale, rtol=0
            )
        np.testing.assert_allclose(
            history, ref.history_.series("train_mse"), rtol=1e-3
        )

    @transports
    def test_mixed_op_counts_are_shape_derived(
        self, small_dataset, unsharded, transport
    ):
        """Op counts never depend on the precision tier: the mixed sharded
        fit reports the same compute categories as the float64 unsharded
        reference (communication metered separately)."""
        from repro.config import use_precision

        _, ref_counts = unsharded
        with use_precision("mixed"):
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
