"""Tests for the operation-count instrumentation layer."""

import threading

import numpy as np

from repro.backend import available_backends, use_backend
from repro.config import use_precision
from repro.instrument import (
    OP_CATEGORIES,
    OpMeter,
    SpanEvent,
    Tracer,
    capture,
    meter_scope,
    record_ops,
    trace_scope,
)
from repro.kernels import GaussianKernel, LaplacianKernel, kernel_matvec


class TestOpMeter:
    def test_record_and_total(self):
        m = OpMeter()
        m.record("a", 10)
        m.record("a", 5)
        m.record("b", 3)
        assert m.total() == 18
        assert m.total("a") == 15
        assert m.counts["a"].calls == 2

    def test_total_with_missing_category(self):
        m = OpMeter()
        m.record("x", 4)
        assert m.total("x", "missing") == 4

    def test_as_dict(self):
        m = OpMeter()
        m.record("k", 7)
        assert m.as_dict() == {"k": 7}


class TestMeterScope:
    def test_records_only_inside_scope(self):
        record_ops("outside", 99)  # no active meter: no-op
        with meter_scope() as meter:
            record_ops("inside", 5)
        assert meter.as_dict() == {"inside": 5}

    def test_nested_meters_both_record(self):
        with meter_scope() as outer:
            with meter_scope() as inner:
                record_ops("x", 3)
            record_ops("y", 2)
        assert inner.as_dict() == {"x": 3}
        assert outer.total() == 5

    def test_kernel_evaluation_records_mnd(self, rng):
        k = GaussianKernel(bandwidth=1.0)
        x = rng.standard_normal((7, 5))
        z = rng.standard_normal((4, 5))
        with meter_scope() as meter:
            k(x, z)
        assert meter.total("kernel_eval") == 7 * 4 * 5

    def test_exception_still_pops_meter(self):
        try:
            with meter_scope() as meter:
                raise ValueError("boom")
        except ValueError:
            pass
        # A fresh scope must not double count.
        with meter_scope() as fresh:
            record_ops("z", 1)
        assert meter.total() == 0
        assert fresh.total() == 1


class TestMeterBackendInvariance:
    """Op counts are derived from array shapes, never from backend state,
    so the cost model validated in Table 1 holds on every backend."""

    @staticmethod
    def _metered_workload():
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 6))
        centers = rng.standard_normal((20, 6))
        w = rng.standard_normal((20, 2))
        with meter_scope() as meter:
            kernel_matvec(
                LaplacianKernel(bandwidth=2.0), x, centers, w, max_scalars=120
            )
        return meter.as_dict()

    def test_counts_identical_across_backends(self):
        counts = {}
        for name in available_backends():
            with use_backend(name):
                counts[name] = self._metered_workload()
        reference = counts["numpy"]
        assert reference["kernel_eval"] == 30 * 20 * 6
        assert reference["gemm"] == 30 * 20 * 2
        for name, got in counts.items():
            assert got == reference, f"op counts diverged on backend {name}"

    def test_counts_precision_invariant(self):
        ref = self._metered_workload()
        with use_precision("float32"):
            got = self._metered_workload()
        assert got == ref


class TestMeterThreading:
    """The meter stack is thread-local: nested scopes on one thread never
    leak counts into another thread's meters."""

    def test_nested_scopes_from_multiple_threads(self):
        n_threads, per_thread_ops = 8, 50
        results = {}
        errors = []
        start = threading.Barrier(n_threads)

        def work(tid: int) -> None:
            try:
                start.wait()
                with meter_scope() as outer:
                    for i in range(per_thread_ops):
                        with meter_scope() as inner:
                            record_ops(f"t{tid}", tid + 1)
                        assert inner.total() == tid + 1
                    record_ops("outer_only", 1)
                results[tid] = outer.as_dict()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for tid in range(n_threads):
            # Each thread saw exactly its own categories — no cross-talk.
            assert results[tid] == {
                f"t{tid}": per_thread_ops * (tid + 1),
                "outer_only": 1,
            }

    def test_relay_under_concurrent_meter_scopes(self):
        """A relay through this thread's snapshot records onto *this*
        thread's meters only: concurrent relays from many threads, each
        holding nested scopes, never cross-talk (the PendingMap relay
        path run g-wide)."""
        n_threads = 6
        results = {}
        errors = []
        start = threading.Barrier(n_threads)

        def work(tid: int) -> None:
            try:
                start.wait()
                with meter_scope() as outer, meter_scope() as inner:
                    for _ in range(40):
                        capture().relay(ops={"gemm": tid + 1, f"t{tid}": 2})
                results[tid] = (outer.as_dict(), inner.as_dict())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for tid in range(n_threads):
            expected = {"gemm": 40 * (tid + 1), f"t{tid}": 80}
            # Nested scopes both see the relay; no other thread's
            # category leaked in.
            assert results[tid] == (expected, expected)

    def test_relay_skips_zero_entries(self):
        """Zero deltas are dropped so relaying never inflates a
        category's calls count with empty records."""
        with meter_scope() as meter:
            capture().relay(ops={"gemm": 0, "kernel_eval": 5})
        assert meter.as_dict() == {"kernel_eval": 5}
        assert "gemm" not in meter.counts

    def test_relay_without_active_meter_is_noop(self):
        capture().relay(ops={"gemm": 7})  # must not raise

    def test_relay_from_another_thread_reaches_captured_sinks(self):
        """The serving relay: a snapshot taken on the submitting thread
        carries its meters and tracers to a thread with no scopes of
        its own, and only those sinks receive the relayed work."""
        meter, tracer = OpMeter(), Tracer()
        with meter_scope(meter), trace_scope(tracer):
            snapshot = capture()
        assert snapshot.tracing

        seen = []

        def relay() -> None:
            seen.append(capture())
            snapshot.relay(
                ops={"gemm": 4},
                spans=[
                    SpanEvent("serve/queue", 0.0, 0.5),
                    {"name": "form_block", "start_s": 1.0, "duration_s": 0.25},
                ],
            )

        t = threading.Thread(target=relay)
        t.start()
        t.join()
        assert seen == [((), ())]
        assert meter.as_dict() == {"gemm": 4}
        assert tracer.counts() == {"serve/queue": 1, "form_block": 1}

    def test_metered_kernel_work_across_threads(self):
        """Real kernel evaluations metered concurrently stay per-thread
        under the new backend dispatch (workspace + meter both
        thread-local)."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 4))
        k = GaussianKernel(bandwidth=1.0)
        expected = 12 * 12 * 4
        totals = {}

        def work(tid: int) -> None:
            with meter_scope() as meter:
                for _ in range(tid + 1):  # distinct workloads per thread
                    k(x, x)
            totals[tid] = meter.total("kernel_eval")

        threads = [
            threading.Thread(target=work, args=(tid,)) for tid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert totals == {tid: expected * (tid + 1) for tid in range(4)}


class TestOpCategoriesContract:
    """OP_CATEGORIES is a frozen public contract: persisted artifacts
    (benchmark payloads, checkpoints, metric snapshots) key on these
    names, so renames/removals are breaking changes.  This pin is the
    single source of truth shared by the OpMeter docs and
    repro.observe.MetricsRegistry."""

    def test_frozen_names(self):
        assert OP_CATEGORIES == (
            "kernel_eval",
            "gemm",
            "precond",
            "eig",
            "allreduce",
        )

    def test_metrics_registry_consumes_contract(self):
        from repro.observe import MetricsRegistry

        registry = MetricsRegistry()
        registry.ingest_op_counts({"gemm": 3})
        snapshot = registry.snapshot()
        # Every contract category appears (zero-filled), keyed ops/<name>.
        assert {f"ops/{c}" for c in OP_CATEGORIES} <= set(
            snapshot["counters"]
        )
        assert snapshot["counters"]["ops/gemm"] == 3
        assert snapshot["counters"]["ops/kernel_eval"] == 0
