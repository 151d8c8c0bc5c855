"""Tests for the observability layer (``repro.observe``).

Pins the contracts the rest of the stack relies on:

- tracing is strictly opt-in: with no active tracer, ``span`` records
  nothing and worker metered replies keep their pre-tracing 2-tuple
  shape (the conformance suite separately pins that RPC and op counts
  are unchanged);
- the tracer stack mirrors the meter stack: thread-local, nested,
  exit-out-of-order safe;
- worker-side spans relay across every available transport with
  per-shard attribution, riding the metered-reply path;
- the Perfetto export is schema-valid and round-trips the span data;
- the metrics registry unifies op counts, span durations and recovery
  events under one run-ID-stamped snapshot;
- ``compare_phases`` joins measured phases against the cost model, and
  the ``observe-report`` experiment built on it holds its claims on
  every transport.
"""

from __future__ import annotations

import json
import re
import threading

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.core.eigenpro2 import EigenPro2
from repro.device.cluster import recovery_time, transport_interconnect
from repro.experiments import ObserveReportConfig, run_observe_report
from repro.instrument import OpMeter, capture, meter_scope
from repro.kernels import GaussianKernel
from repro.observe import (
    MetricsRegistry,
    SpanEvent,
    Tracer,
    compare_phases,
    export_jsonl,
    export_perfetto,
    new_run_id,
    perfetto_payload,
    record_span,
    render_comparison,
    span,
    trace_scope,
    validate_perfetto,
)
from repro.shard import ProcessTransport, RecoveryEvent, ShardedEigenPro2
from repro.shard.transport.base import ShardWorker

transports = pytest.mark.parametrize(
    "transport",
    [
        "thread",
        pytest.param(
            "process",
            marks=pytest.mark.skipif(
                not ProcessTransport.is_available(),
                reason="platform lacks fork-safe shared memory",
            ),
        ),
    ],
)


class TestSpanAndScope:
    def test_span_records_on_active_tracer(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("form_block", step=3):
                pass
        (ev,) = tracer.events
        assert ev.name == "form_block"
        assert ev.attrs == {"step": 3}
        assert ev.duration_s >= 0.0
        assert ev.depth == 0

    def test_disabled_tracing_records_nothing(self):
        """The no-op pin: outside any trace_scope, spans cost one
        attribute check and record zero events anywhere."""
        tracer = Tracer()
        assert not capture().tracing
        with span("form_block"):
            with span("gemm"):
                pass
        record_span("recovery", 0.0, 1.0)
        capture().relay(
            spans=[{"name": "x", "start_s": 0.0, "duration_s": 1.0}]
        )
        assert len(tracer) == 0
        assert not capture().tracing

    def test_nesting_depth_recorded(self):
        tracer = Tracer()
        with trace_scope(tracer):
            with span("epoch"):
                with span("form_block"):
                    with span("gemm"):
                        pass
        depths = {ev.name: ev.depth for ev in tracer.events}
        assert depths == {"epoch": 0, "form_block": 1, "gemm": 2}

    def test_nested_scopes_both_record(self):
        outer, inner = Tracer(), Tracer()
        with trace_scope(outer):
            with trace_scope(inner):
                with span("a"):
                    pass
            with span("b"):
                pass
        assert [ev.name for ev in inner.events] == ["a"]
        assert sorted(ev.name for ev in outer.events) == ["a", "b"]

    def test_exception_still_pops_scope(self):
        tracer = Tracer()
        try:
            with trace_scope(tracer):
                raise ValueError("boom")
        except ValueError:
            pass
        assert not capture().tracing
        with span("after"):
            pass
        assert len(tracer) == 0

    def test_stack_is_thread_local(self):
        """A tracer active on one thread never captures another
        thread's spans — relays are explicit."""
        tracer = Tracer()
        other_done = threading.Event()

        def other_thread():
            with span("other"):  # no tracer active *on this thread*
                pass
            other_done.set()

        with trace_scope(tracer):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert other_done.is_set()
        assert len(tracer) == 0

    def test_concurrent_spans_one_tracer(self):
        """Tracer.record is lock-guarded: many threads each tracing
        into their own scope over one shared tracer lose no events."""
        tracer = Tracer()
        n_threads, per_thread = 8, 25
        start = threading.Barrier(n_threads)

        def work(tid: int) -> None:
            start.wait()
            with trace_scope(tracer):
                for i in range(per_thread):
                    with span(f"t{tid}", i=i):
                        pass

        threads = [
            threading.Thread(target=work, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts = tracer.counts()
        assert counts == {
            f"t{tid}": per_thread for tid in range(n_threads)
        }

    def test_record_span_and_totals(self):
        tracer = Tracer()
        with trace_scope(tracer):
            record_span("recovery", 10.0, 0.25, old_g=2, new_g=1)
            record_span("recovery", 20.0, 0.75)
        assert tracer.totals()["recovery"] == pytest.approx(1.0)
        assert tracer.counts() == {"recovery": 2}

    def test_relay_span_payload_round_trip(self):
        tracer = Tracer()
        payload = SpanEvent(
            name="gemm", start_s=1.0, duration_s=0.5,
            thread="worker", depth=1, attrs={"shard": 3},
        ).as_dict()
        with trace_scope(tracer):
            capture().relay(spans=[payload])
        (ev,) = tracer.events
        assert ev == SpanEvent.from_dict(payload)
        assert ev.attrs["shard"] == 3


class TestWorkerReplyShapes:
    """The metered-reply contract: 2-tuple untraced (byte-identical to
    the pre-tracing protocol), 3-tuple with shard-stamped span payloads
    when tracing was requested at submit time."""

    @staticmethod
    def _worker():
        rng = np.random.default_rng(0)
        return ShardWorker(2, NumpyBackend(), rng.standard_normal((8, 3)))

    @staticmethod
    def _task(worker):
        with span("form_block", m=4):
            return float(np.sum(worker.centers))

    def test_untraced_reply_is_two_tuple(self):
        reply = self._worker().run_metered(self._task, (), {}, None)
        assert len(reply) == 2
        result, delta = reply
        assert isinstance(delta, dict)

    def test_traced_reply_appends_shard_stamped_spans(self):
        reply = self._worker().run_metered(
            self._task, (), {}, None, True
        )
        assert len(reply) == 3
        result, delta, spans = reply
        (payload,) = spans
        assert payload["name"] == "form_block"
        assert payload["attrs"] == {"m": 4, "shard": 2}

    def test_worker_trace_does_not_leak_to_caller_stack(self):
        self._worker().run_metered(self._task, (), {}, None, True)
        assert not capture().tracing


class TestTransportSpanRelayParity:
    """A traced sharded fit relays the same worker-side span names with
    full per-shard attribution on every available transport."""

    @staticmethod
    def _traced_fit(transport: str) -> Tracer:
        rng = np.random.default_rng(5)
        x = rng.standard_normal((160, 6))
        y = np.tanh(x @ rng.standard_normal((6, 2)))
        tracer = Tracer()
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.0),
            n_shards=2,
            transport=transport,
            s=24,
            batch_size=32,
            seed=0,
        )
        try:
            with trace_scope(tracer):
                trainer.fit(x, y, epochs=1)
        finally:
            trainer.close()
        return tracer

    @transports
    def test_worker_spans_cover_all_shards(self, transport):
        tracer = self._traced_fit(transport)
        for name in ("form_block", "gemm"):
            shards = {
                ev.attrs.get("shard")
                for ev in tracer.events
                if ev.name == name and "shard" in ev.attrs
            }
            assert shards == {0, 1}, (
                f"{transport}: worker span {name!r} missing shard "
                f"attribution: {shards}"
            )
        # Caller-side collective spans are present alongside.  Mirror
        # spans appear only where mirroring happens at all: thread-
        # transport NumPy shards adopt zero-copy weight views, so a
        # fit on them never mirrors (needs_mirror is False).
        counts = tracer.counts()
        expected = ["allreduce", "correction", "checkpoint"]
        if transport != "thread":
            expected.append("mirror")
        for name in expected:
            assert counts.get(name, 0) > 0, f"{transport}: no {name} spans"

    @transports
    def test_span_names_match_thread_reference(self, transport):
        if transport == "thread":
            pytest.skip("thread is the reference")
        got = set(self._traced_fit(transport).counts())
        ref = set(self._traced_fit("thread").counts())
        # Same phase vocabulary everywhere; a transport that actually
        # mirrors (view-less weights) adds exactly the span the thread
        # reference's zero-copy views never need: the mirror.  The
        # settle reads the owner's rows in place, with no gather.
        assert ref <= got, f"{transport}: missing spans {ref - got}"
        assert got - ref <= {"mirror"}, (
            f"{transport}: unexpected spans {got - ref}"
        )


class TestCorrectionRunsOnTheOwner:
    """A sharded fit runs Algorithm 1 steps 4–5 on shard 0, which holds
    the subsample: every ``correction`` span carries its id, the caller
    records none, and its relayed ``precond`` ops equal the unsharded
    fit's.  That holds where the subsample exceeds a contiguous shard
    (``s = 60`` over 4 shards of 40 rows) too."""

    @transports
    def test_correction_spans_carry_the_owner(self, transport):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((160, 6))
        y = np.tanh(x @ rng.standard_normal((6, 2)))
        for g, s in [(2, 24), (4, 60)]:
            opts = dict(s=s, batch_size=32, seed=0)
            with meter_scope() as ref:
                EigenPro2(GaussianKernel(bandwidth=2.0), **opts).fit(x, y)
            tracer = Tracer()
            trainer = ShardedEigenPro2(
                GaussianKernel(bandwidth=2.0), n_shards=g,
                transport=transport, **opts,
            )
            try:
                with trace_scope(tracer), meter_scope() as meter:
                    trainer.fit(x, y)
                assert trainer.shard_group_.g == g
            finally:
                trainer.close()
            owners = {
                ev.attrs.get("shard")
                for ev in tracer.events
                if ev.name == "correction"
            }
            assert owners == {0}, (g, s)
            assert meter.total("precond") == ref.total("precond") > 0


class TestFitPhaseSpans:
    """A traced fit spans its setup once and its train-MSE monitor once
    per epoch, sharded or not, so no phase of the fit goes unspanned."""

    @pytest.mark.parametrize("sharded", [False, True])
    def test_one_setup_one_monitor_per_epoch(self, sharded):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((160, 6))
        y = np.tanh(x @ rng.standard_normal((6, 2)))
        opts = dict(s=24, batch_size=32, seed=0)
        kernel = GaussianKernel(bandwidth=2.0)
        trainer = (
            ShardedEigenPro2(kernel, n_shards=2, **opts)
            if sharded
            else EigenPro2(kernel, **opts)
        )
        tracer = Tracer()
        try:
            with trace_scope(tracer):
                trainer.fit(x, y, epochs=3)
        finally:
            if sharded:
                trainer.close()
        counts = tracer.counts()
        assert counts["setup"] == 1
        assert counts["monitor"] == 3
        monitors = [ev for ev in tracer.events if ev.name == "monitor"]
        assert [ev.attrs["epoch"] for ev in monitors] == [1, 2, 3]
        (setup,) = [ev for ev in tracer.events if ev.name == "setup"]
        assert setup.start_s + setup.duration_s <= min(
            ev.start_s for ev in tracer.events if ev.name == "epoch"
        )

    @transports
    def test_one_checkpoint_and_one_settle_per_epoch(self, transport):
        """A failure-free sharded fit of 30 steps an epoch takes one
        checkpoint, the epoch's anchor, at each epoch's start, and
        settles the owner once, after the epoch's last step."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((240, 6))
        y = np.tanh(x @ rng.standard_normal((6, 2)))
        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.0), n_shards=2, transport=transport,
            s=24, batch_size=8, seed=0,
        )
        tracer = Tracer()
        try:
            with trace_scope(tracer):
                trainer.fit(x, y, epochs=2)
        finally:
            trainer.close()
        epochs = [ev for ev in tracer.events if ev.name == "epoch"]
        assert [ev.attrs["iterations"] for ev in epochs] == [30, 30]
        counts = tracer.counts()
        assert (counts["checkpoint"], counts["correction_wait"]) == (2, 2)
        checkpoints = [ev for ev in tracer.events if ev.name == "checkpoint"]
        assert [ev.attrs["epoch"] for ev in checkpoints] == [1, 2]
        for ckpt, epoch in zip(checkpoints, epochs):
            assert epoch.start_s <= ckpt.start_s
        assert trainer.recovery_log_ == []
        assert trainer.last_checkpoint_.epoch == 2

    def test_serial_fit_takes_one_checkpoint_per_epoch(self):
        """The epoch anchor is the base trainer's: a serial fit takes
        one checkpoint at each epoch's start too."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((240, 6))
        y = np.tanh(x @ rng.standard_normal((6, 2)))
        trainer = EigenPro2(
            GaussianKernel(bandwidth=2.0), s=24, batch_size=8, seed=0
        )
        tracer = Tracer()
        with trace_scope(tracer):
            trainer.fit(x, y, epochs=2)
        epochs = [ev for ev in tracer.events if ev.name == "epoch"]
        checkpoints = [ev for ev in tracer.events if ev.name == "checkpoint"]
        assert [ev.attrs["epoch"] for ev in checkpoints] == [1, 2]
        for ckpt, epoch in zip(checkpoints, epochs):
            assert epoch.start_s <= ckpt.start_s


class TestExporters:
    @staticmethod
    def _tracer_with_spans() -> Tracer:
        tracer = Tracer()
        with trace_scope(tracer):
            with span("epoch", epoch=1):
                with span("allreduce", g=2):
                    pass
            capture().relay(spans=[
                SpanEvent(
                    name="form_block", start_s=2.0, duration_s=0.5,
                    thread="shard-0", attrs={"shard": 0},
                ).as_dict(),
                SpanEvent(
                    name="form_block", start_s=2.1, duration_s=0.4,
                    thread="shard-1", attrs={"shard": 1},
                ).as_dict(),
            ])
        return tracer

    def test_perfetto_schema_round_trip(self, tmp_path):
        tracer = self._tracer_with_spans()
        run_id = new_run_id()
        path = export_perfetto(
            tracer, tmp_path / "trace.json", run_id=run_id
        )
        payload = json.loads(path.read_text())
        validate_perfetto(payload)
        assert payload["otherData"]["run_id"]["id"] == run_id["id"]
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(tracer)
        # Worker spans land on per-shard process lanes; named lanes
        # exist for the trainer and both shards.
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"trainer", "shard 0", "shard 1"} <= names
        by_name = {}
        for e in complete:
            by_name.setdefault(e["name"], set()).add(e["pid"])
        assert by_name["form_block"] == {1, 2}
        assert by_name["allreduce"] == {0}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)

    def test_validate_perfetto_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_perfetto({})
        with pytest.raises(ValueError):
            validate_perfetto({"traceEvents": [{"name": "x", "ph": "X"}]})
        with pytest.raises(ValueError):
            validate_perfetto({"traceEvents": [
                {"name": "x", "ph": "Q", "pid": 0, "tid": 0}
            ]})

    def test_jsonl_read_back(self, tmp_path):
        tracer = self._tracer_with_spans()
        run_id = new_run_id()
        path = export_jsonl(
            tracer, tmp_path / "events.jsonl", run_id=run_id
        )
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        header, spans = lines[0], lines[1:]
        assert header["event"] == "run_start"
        assert header["spans"] == len(tracer) == len(spans)
        assert header["run_id"]["id"] == run_id["id"]
        replayed = Tracer()
        with trace_scope(replayed):
            capture().relay(spans=spans)
        assert replayed.totals() == pytest.approx(tracer.totals())
        starts = [s["start_s"] for s in spans]
        assert starts == sorted(starts)

    def test_empty_tracer_exports(self, tmp_path):
        tracer = Tracer()
        payload = perfetto_payload(tracer)
        validate_perfetto(payload)
        path = export_jsonl(tracer, tmp_path / "empty.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["spans"] == 0


class TestMetricsRegistry:
    def test_snapshot_unifies_all_signals(self):
        run_id = new_run_id()
        registry = MetricsRegistry(run_id=run_id)
        meter = OpMeter()
        meter.record("gemm", 100)
        registry.ingest_op_counts(meter)
        tracer = Tracer()
        with trace_scope(tracer):
            record_span("allreduce", 0.0, 0.5, g=2)
            record_span("mirror", 1.0, 0.1, rows=4)
        registry.ingest_tracer(tracer)

        class _Event:
            recovery_s = 0.25
            replayed_steps = 3
            old_g = 2
            new_g = 1

        registry.ingest_recovery_events([_Event()])
        snap = registry.snapshot()
        assert snap["run_id"] == dict(run_id)
        assert snap["counters"]["ops/gemm"] == 100
        assert snap["counters"]["span_count/allreduce"] == 1
        assert snap["counters"]["recovery/count"] == 1
        assert snap["counters"]["recovery/shards_lost"] == 1
        assert snap["histograms"]["span/allreduce_s"]["sum"] == (
            pytest.approx(0.5)
        )
        assert snap["histograms"]["recovery/latency_s"]["count"] == 1

    def test_histogram_summary_stats(self):
        registry = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 4.0):
            registry.observe("h", v)
        h = registry.snapshot()["histograms"]["h"]
        assert h["count"] == 4
        assert h["min"] == 1.0 and h["max"] == 4.0
        assert h["mean"] == pytest.approx(2.5)
        assert h["p50"] == pytest.approx(2.5)
        assert h["p95"] == pytest.approx(3.85)

    def test_concurrent_increments(self):
        registry = MetricsRegistry()
        n_threads, per_thread = 8, 200
        start = threading.Barrier(n_threads)

        def work():
            start.wait()
            for _ in range(per_thread):
                registry.inc("hits")
                registry.observe("lat", 1.0)

        threads = [
            threading.Thread(target=work) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == n_threads * per_thread
        assert snap["histograms"]["lat"]["count"] == n_threads * per_thread


class TestComparePhases:
    def test_calibrated_report_renders(self):
        tracer = Tracer()
        with trace_scope(tracer):
            record_span("setup", 2.0, 2.0)
            record_span("form_block", 0.0, 1.0)
            record_span("gemm", 1.0, 0.5)
            record_span("correction", 1.5, 0.25)
            record_span("allreduce", 1.75, 0.1, g=2)
        report = compare_phases(
            tracer,
            g=2,
            link="thread",
            allreduce_payload_scalars=64.0,
            op_counts={
                "kernel_eval": 1_000, "gemm": 500, "precond": 250,
                # Setup eigensystem work: outside every step span.
                "eig": 1_000_000,
            },
        )
        phases = {p["phase"]: p for p in report["phases"]}
        # Rate calibrated from the run: 1750 ops / 1.75 s = 1000/s, so
        # modelled compute phases reproduce their measured times; the
        # setup eig ops move neither the rate nor the correction.
        assert report["calibration"]["calibrated_from_run"]
        assert report["calibration"]["scalar_rate"] == pytest.approx(1000.0)
        assert phases["form_block"]["modelled_s"] == pytest.approx(1.0)
        assert phases["gemm"]["modelled_s"] == pytest.approx(0.5)
        assert phases["correction"]["modelled_s"] == pytest.approx(0.25)
        assert phases["allreduce"]["modelled_s"] is not None
        assert phases["mirror"]["modelled_s"] is None
        assert phases["setup"]["modelled_s"] is None
        assert phases["setup"]["measured_s"] == pytest.approx(2.0)
        rendered = render_comparison(report)
        assert "form_block" in rendered and "TOTAL" in rendered

    def test_total_counts_parallel_shards_once(self):
        """Two shards' overlapping 1 s GEMMs take 1 s of wall time, not
        2 s: TOTAL counts a worker phase as its slowest shard, while the
        phase row still sums every span."""
        tracer = Tracer()
        with trace_scope(tracer):
            record_span("gemm", 0.0, 1.0, shard=0)
            record_span("gemm", 0.0, 1.0, shard=1)
            record_span("correction", 1.0, 0.5)
        report = compare_phases(tracer, g=2)
        phases = {p["phase"]: p for p in report["phases"]}
        assert phases["gemm"]["measured_s"] == pytest.approx(2.0)
        assert report["totals"]["measured_s"] == pytest.approx(1.5)

    def test_recovery_row_prices_each_event(self):
        events = [
            RecoveryEvent(
                epoch=1, failed_step=3, replayed_steps=3,
                old_g=4, new_g=3, dead_shards=(3,), error="ShardError: x",
                recovery_s=0.25,
            ),
            RecoveryEvent(
                epoch=2, failed_step=0, replayed_steps=0,
                old_g=3, new_g=2, dead_shards=(), error="ShardError: y",
                recovery_s=0.5,
            ),
        ]
        report = compare_phases(
            Tracer(), g=2, link="process", weight_scalars=600.0,
            recovery_events=events,
        )
        row = {p["phase"]: p for p in report["phases"]}["recovery"]
        link = transport_interconnect("process")
        assert row["spans"] == 2
        assert row["measured_s"] == pytest.approx(0.75)
        # Priced with the shard count before each failure (4, then 3).
        assert row["modelled_s"] == pytest.approx(sum(
            recovery_time(
                link, ev.old_g, weight_scalars=600.0,
                replayed_iterations=ev.replayed_steps,
            )
            for ev in events
        ))

        measured_only = compare_phases(
            Tracer(), g=2, link="process", recovery_events=events
        )
        row = {p["phase"]: p for p in measured_only["phases"]}["recovery"]
        assert row["measured_s"] == pytest.approx(0.75)
        assert row["modelled_s"] is None

    def test_recovery_row_prices_shrink_to_one_shard(self):
        """A ``g = 2`` fit that loses a shard runs on alone; its
        recovery is priced at the two shards it had, not rejected."""
        event = RecoveryEvent(
            epoch=0, failed_step=1, replayed_steps=1,
            old_g=2, new_g=1, dead_shards=(1,), error="ShardError: z",
            recovery_s=0.125,
        )
        report = compare_phases(
            Tracer(), g=2, link="process", weight_scalars=600.0,
            recovery_events=[event],
        )
        row = {p["phase"]: p for p in report["phases"]}["recovery"]
        assert row["spans"] == 1
        assert row["measured_s"] == pytest.approx(0.125)
        assert row["modelled_s"] == pytest.approx(recovery_time(
            transport_interconnect("process"), 2, weight_scalars=600.0,
            replayed_iterations=1,
        ))

    def test_recovery_row_prices_replayed_steps(self):
        """Each replayed step costs the run's measured per-step time:
        the step phases' wall seconds over the traced step count."""
        tracer = Tracer()
        with trace_scope(tracer):
            for step in range(2):
                t0 = float(step)
                record_span("form_block", t0, 0.25, shard=0)
                record_span("form_block", t0, 0.5, shard=1)
                record_span("gemm", t0 + 0.5, 0.125, shard=0)
                record_span("gemm", t0 + 0.5, 0.125, shard=1)
                record_span("allreduce", t0 + 0.625, 0.0625)
                record_span("correction", t0 + 0.6875, 0.0625)
        # Wall per step: 0.5 (slowest form_block) + 0.125 + 0.0625
        # + 0.0625 = 0.75 s.
        step_s = 0.75
        link = transport_interconnect("process")

        def modelled(replayed_steps: int) -> float:
            event = RecoveryEvent(
                epoch=0, failed_step=replayed_steps,
                replayed_steps=replayed_steps, old_g=2, new_g=1,
                dead_shards=(1,), error="ShardError: r", recovery_s=0.5,
            )
            report = compare_phases(
                tracer, g=2, link="process", weight_scalars=600.0,
                recovery_events=[event],
            )
            return {p["phase"]: p for p in report["phases"]}[
                "recovery"
            ]["modelled_s"]

        assert modelled(3) - modelled(0) == pytest.approx(3 * step_s)
        assert modelled(0) == pytest.approx(
            recovery_time(link, 2, weight_scalars=600.0)
        )


    def test_steps_counted_once_with_owner_and_settle_spans(self):
        """Worker ``correction`` spans on several shards, and one more
        settle at the end of the span: the steps are still counted once
        each, and the per-step time takes the slowest shard's
        correction."""
        tracer = Tracer()
        with trace_scope(tracer):
            for step in range(2):
                t0 = float(step)
                for shard in (0, 1):
                    record_span("form_block", t0, 0.25, shard=shard)
                    record_span("gemm", t0 + 0.5, 0.125, shard=shard)
                record_span("correction", t0 + 0.25, 0.0625, shard=0)
                record_span("correction", t0 + 0.25, 0.125, shard=1)
                record_span("allreduce", t0 + 0.625, 0.0625)
            # The settle at the end of the span, on both shards.
            record_span("correction", 2.0, 0.0625, shard=0)
            record_span("correction", 2.0, 0.125, shard=1)
        report = compare_phases(
            tracer, g=2, link="process", weight_scalars=600.0,
            recovery_events=[
                RecoveryEvent(
                    epoch=0, failed_step=1,
                    replayed_steps=1, old_g=2, new_g=1, dead_shards=(1,),
                    error="ShardError: r", recovery_s=0.5,
                )
            ],
        )
        phases = {p["phase"]: p for p in report["phases"]}
        assert phases["correction"]["spans"] == 6
        # Wall: form_block 0.5 + gemm 0.25 + allreduce 0.125, and the
        # slowest owner's correction 3 * 0.125 = 0.375, over 2 steps.
        step_s = (0.5 + 0.25 + 0.125 + 0.375) / 2
        assert phases["recovery"]["modelled_s"] == pytest.approx(
            recovery_time(
                transport_interconnect("process"), 2, weight_scalars=600.0,
                replayed_iterations=1, iteration_time_s=step_s,
            )
        )
        assert report["totals"]["measured_s"] == pytest.approx(
            0.5 + 0.25 + 0.125 + 0.375 + 0.5
        )


class TestObserveReport:
    """The one model-vs-measured experiment holds every claim on every
    transport, with one row per compare_phases phase."""

    @transports
    def test_claims_hold(self, transport):
        result = run_observe_report(
            ObserveReportConfig(n=600, s=100, transport=transport)
        )
        failed = [c.claim_id for c in result.claims if c.holds is False]
        assert result.all_hold, f"{transport}: claims failed: {failed}"
        assert [row["phase"] for row in result.rows] == [
            "form_block", "gemm", "correction", "allreduce",
            "setup", "mirror", "checkpoint", "recovery",
        ]
        # The per-shard busy line names every shard with a nonzero time.
        (line,) = [
            ln for ln in result.notes.splitlines()
            if ln.startswith("per-shard busy")
        ]
        busy = {
            int(i): float(ms)
            for i, ms in re.findall(r"shard (\d+) ([0-9.]+) ms", line)
        }
        assert sorted(busy) == [0, 1]
        assert all(ms > 0 for ms in busy.values())
        assert "max/min" in line


class TestPercentiles:
    """The percentile path production latency reporting reads."""

    def test_p99_in_snapshot(self):
        registry = MetricsRegistry()
        for v in range(1, 101):
            registry.observe("lat", float(v))
        h = registry.snapshot()["histograms"]["lat"]
        assert h["p99"] == pytest.approx(
            float(np.percentile(np.arange(1.0, 101.0), 99))
        )

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100])
    def test_percentile_matches_numpy(self, q, n):
        from repro.observe.metrics import _percentile

        rng = np.random.default_rng(n)
        values = sorted(rng.standard_normal(n).tolist())
        assert _percentile(values, q) == pytest.approx(
            float(np.percentile(np.asarray(values), 100 * q)), abs=1e-12
        )

    def test_percentile_empty_is_nan(self):
        from repro.observe.metrics import _percentile

        assert np.isnan(_percentile([], 0.5))

    def test_percentile_single_sample(self):
        from repro.observe.metrics import _percentile

        for q in (0.0, 0.5, 0.99, 1.0):
            assert _percentile([7.25], q) == 7.25

    @pytest.mark.parametrize("q", [-0.01, 1.01, 99.0])
    def test_percentile_rejects_out_of_range(self, q):
        from repro.observe.metrics import _percentile

        with pytest.raises(ValueError):
            _percentile([1.0, 2.0], q)

    def test_observe_many_equals_repeated_observe(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        values = [0.5, 0.1, 0.9, 0.3]
        for v in values:
            a.observe("h", v)
        b.observe_many("h", values)
        b.observe_many("empty", [])  # like no observe() call at all
        assert a.snapshot()["histograms"] == b.snapshot()["histograms"]


class TestSpanEntryAttribution:
    """Spans resolve their audience at *entry*: the tracers active when
    the span opened receive its event, however the stack has changed by
    the time it closes — the fix for cross-thread span leaks between
    concurrent callers sharing an engine."""

    def test_tracer_exited_before_span_close_still_records(self):
        tracer = Tracer()
        scope = trace_scope(tracer)
        scope.__enter__()
        s = span("work")
        s.__enter__()
        scope.__exit__(None, None, None)  # caller's scope gone mid-span
        s.__exit__(None, None, None)
        assert tracer.counts() == {"work": 1}

    def test_tracer_entered_mid_span_does_not_record(self):
        late = Tracer()
        s = span("work")
        s.__enter__()
        with trace_scope(late):
            s.__exit__(None, None, None)
        assert len(late) == 0

    def test_captured_tracers_are_a_copy(self):
        tracer, later = Tracer(), Tracer()
        with trace_scope(tracer):
            snapshot = capture()
            with trace_scope(later):
                # Scopes entered after the capture do not reach it...
                assert snapshot.tracers == (tracer,)
            with span("work"):
                pass
        # ...nor do scopes exited after it.
        assert snapshot.tracers == (tracer,)
        assert capture().tracers == ()
        assert tracer.counts() == {"work": 1}

    def test_concurrent_callers_get_exact_counts(self):
        """Thread-stress: each thread's tracer sees exactly its own
        spans even though all threads interleave on shared code."""
        n_threads, per_thread = 6, 50
        tracers = [Tracer() for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def work(i: int) -> None:
            with trace_scope(tracers[i]):
                start.wait()
                for _ in range(per_thread):
                    with span("tick", who=i):
                        pass

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, tracer in enumerate(tracers):
            assert tracer.counts() == {"tick": per_thread}
            assert all(e.attrs["who"] == i for e in tracer.events)
