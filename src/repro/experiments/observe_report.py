"""Phase-attribution report: a traced sharded fit vs the cost model.

The repository's one model-vs-measured experiment (``python -m
repro.experiments observe-report``; the exit code gates on its claims).
It runs a real :class:`~repro.shard.ShardedEigenPro2` fit under an
active :class:`repro.observe.Tracer` and judges the analytic cost model
phase by phase: worker-side ``form_block``/``gemm``/``correction``
spans (relayed through the transport's metered-reply path; the
correction runs on the shard holding the subsample), caller-side
``allreduce`` / ``mirror`` / ``checkpoint`` spans, and
— when the fit recovered from a failure — the ``recovery`` span family,
each joined against the matching model term by
:func:`repro.observe.compare_phases`.

Artifacts (when ``export_dir`` is set): a Chrome/Perfetto
``trace.json`` with per-shard process timelines (load in
``chrome://tracing`` or https://ui.perfetto.dev) and a JSON-lines
``events.jsonl`` span log, both stamped with the run id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.experiments.harness import ExperimentResult, PaperClaim
from repro.instrument import OpMeter, meter_scope
from repro.kernels import GaussianKernel
from repro.observe import (
    MetricsRegistry,
    Tracer,
    compare_phases,
    export_jsonl,
    export_perfetto,
    new_run_id,
    perfetto_payload,
    render_comparison,
    trace_scope,
    validate_perfetto,
)

__all__ = ["ObserveReportConfig", "run_observe_report"]

#: Span names whose presence the report asserts for a sharded fit;
#: ``mirror`` is asserted too when the group mirrors weight rows at all
#: (thread-transport shards hold zero-copy views and never do).
EXPECTED_SPANS: tuple[str, ...] = (
    "form_block",
    "gemm",
    "correction",
    "allreduce",
    "checkpoint",
)


@dataclass
class ObserveReportConfig:
    """Workload for the traced fit (sized for a CI smoke run)."""

    n: int = 2_000
    d: int = 12
    l: int = 3
    m: int = 64
    s: int = 200
    g: int = 2
    epochs: int = 2
    checkpoint_every: int = 8
    #: Transport the traced fit runs on (any registered name).
    transport: str = "process"
    transport_options: dict = field(default_factory=dict)
    bandwidth: float = 4.0
    #: When set, write ``trace.json`` (Perfetto) and ``events.jsonl``
    #: here; the Perfetto payload is schema-validated either way.
    export_dir: str | None = None
    seed: int = 0


def run_observe_report(
    cfg: ObserveReportConfig | None = None,
) -> ExperimentResult:
    """Run a traced sharded fit and report measured-vs-modelled seconds
    per phase, plus the run's metric snapshot and trace artifacts."""
    from repro.shard import ShardedEigenPro2
    from repro.shard.transport import resolve_transport

    cfg = cfg or ObserveReportConfig()
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((cfg.n, cfg.d))
    proj = rng.standard_normal((cfg.d, cfg.l))
    y = np.tanh(x @ proj / np.sqrt(cfg.d))

    run_id = new_run_id()
    tracer = Tracer()
    meter = OpMeter()
    trainer = ShardedEigenPro2(
        GaussianKernel(bandwidth=cfg.bandwidth),
        n_shards=cfg.g,
        transport=cfg.transport,
        transport_options=dict(cfg.transport_options),
        checkpoint_every=cfg.checkpoint_every,
        s=cfg.s,
        batch_size=cfg.m,
        seed=cfg.seed,
        damping=0.5,
    )
    try:
        with meter_scope(meter), trace_scope(tracer):
            trainer.fit(x, y, epochs=cfg.epochs)
        batch = int(trainer.batch_size_)
        group = trainer.shard_group_
        final_g = group.g if group is not None else cfg.g
        expected = EXPECTED_SPANS + (
            ("mirror",) if group is not None and group.needs_mirror else ()
        )
        recovery_log = list(trainer.recovery_log_)
    finally:
        trainer.close()

    link = resolve_transport(cfg.transport).link_name()
    report = compare_phases(
        tracer,
        g=final_g,
        link=link,
        allreduce_payload_scalars=float(batch * cfg.l),
        op_counts=meter.as_dict(),
        weight_scalars=float(cfg.n * cfg.l),
        recovery_events=recovery_log,
        run_id=run_id,
    )

    registry = MetricsRegistry(run_id=run_id)
    registry.ingest_op_counts(meter)
    registry.ingest_tracer(tracer)
    registry.ingest_recovery_events(recovery_log)
    snapshot = registry.snapshot()

    payload = perfetto_payload(tracer, run_id=run_id)
    try:
        validate_perfetto(payload)
        perfetto_ok = True
        perfetto_note = f"{len(payload['traceEvents'])} trace events"
    except ValueError as exc:  # pragma: no cover - schema is ours
        perfetto_ok = False
        perfetto_note = str(exc)
    if cfg.export_dir is not None:
        out = Path(cfg.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_perfetto(tracer, out / "trace.json", run_id=run_id)
        export_jsonl(tracer, out / "events.jsonl", run_id=run_id)

    result = ExperimentResult(
        name="observe-report",
        title=(
            "Per-phase attribution of a traced sharded fit "
            f"({cfg.transport} transport; measured span totals vs the "
            "analytic cost model)"
        ),
        notes=(
            f"workload: n={cfg.n}, d={cfg.d}, l={cfg.l}, m={batch}, "
            f"s={cfg.s}, g={cfg.g}, epochs={cfg.epochs}; "
            f"{len(tracer)} spans recorded; run {run_id['id'][:12]}; "
            "compute rate calibrated from the run's own worker spans.\n"
            + render_comparison(report)
        ),
    )
    for row in report["phases"]:
        result.add_row(
            transport=cfg.transport,
            phase=row["phase"],
            spans=row["spans"],
            measured_ms=round(1e3 * row["measured_s"], 3),
            modelled_ms=(
                None
                if row["modelled_s"] is None
                else round(1e3 * row["modelled_s"], 3)
            ),
            model_over_measured=(
                None
                if row["model_over_measured"] is None
                else round(row["model_over_measured"], 3)
            ),
        )

    shard_ids = sorted(
        {
            ev.attrs["shard"]
            for ev in tracer.events
            if ev.name in ("form_block", "gemm") and "shard" in ev.attrs
        }
    )
    present = {
        name: sum(1 for ev in tracer.events if ev.name == name)
        for name in expected
    }
    result.add_claim(
        PaperClaim(
            claim_id="observe/span-coverage",
            description=(
                "A traced sharded fit records every training phase and "
                "worker-side spans carry per-shard attribution for all "
                f"{final_g} shards"
            ),
            paper="(observability invariant; repro.observe)",
            measured=(
                ", ".join(f"{k}={v}" for k, v in present.items())
                + f"; worker shard ids: {shard_ids}"
            ),
            holds=(
                all(present[name] > 0 for name in expected)
                and shard_ids == list(range(final_g))
            ),
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="observe/perfetto-valid",
            description=(
                "The exported Chrome/Perfetto trace passes schema "
                "validation (complete events with per-shard process "
                "timelines)"
            ),
            paper="(trace_event format; chrome://tracing)",
            measured=perfetto_note,
            holds=perfetto_ok,
        )
    )
    cal = report["calibration"]
    compute_rows = [
        r for r in report["phases"]
        if r["phase"] in ("form_block", "gemm", "correction") and r["spans"]
    ]
    result.add_claim(
        PaperClaim(
            claim_id="observe/model-attribution",
            description=(
                "Every compute phase that ran has a modelled prediction "
                "from the run-calibrated scalar rate"
            ),
            paper="(MLSYSIM-style simulator calibration; PAPERS.md)",
            measured=(
                f"rate={cal['scalar_rate']:.3e} scalars/s "
                f"(calibrated={cal['calibrated_from_run']}); "
                + ", ".join(
                    f"{r['phase']}: {r['model_over_measured']:.2f}x"
                    for r in compute_rows
                    if r["model_over_measured"] is not None
                )
            ),
            holds=bool(compute_rows)
            and all(r["modelled_s"] is not None for r in compute_rows),
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="observe/metrics-snapshot",
            description=(
                "The metrics registry folds op counts, span durations "
                "and recovery events into one run-id-stamped snapshot"
            ),
            paper="(observability invariant; repro.observe)",
            measured=(
                f"{len(snapshot['counters'])} counters, "
                f"{len(snapshot['histograms'])} histograms, "
                f"run {snapshot['run_id']['id'][:12]}"
            ),
            holds=(
                snapshot["run_id"]["id"] == run_id["id"]
                and any(
                    k.startswith("ops/") for k in snapshot["counters"]
                )
                and any(
                    k.startswith("span/") for k in snapshot["histograms"]
                )
            ),
        )
    )
    return result
