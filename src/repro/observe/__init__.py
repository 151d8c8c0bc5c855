"""Observability: wall-clock spans, metrics and trace export.

:mod:`repro.instrument` counts operations and times spans;
:mod:`repro.observe` reports them.  The subsystem has four parts:

- **Tracing** (re-exported from :mod:`repro.instrument`): ``with
  span("gemm", step=t, shard=i): ...`` against the :class:`Tracer`\\ s
  active on the thread-local telemetry ambient the meters share — no-op
  when disabled, worker-side spans relayed to the caller with the
  op-count deltas.
- **Metrics** (:mod:`~repro.observe.metrics`): a
  :class:`MetricsRegistry` of counters/gauges/histograms unifying op
  totals, span durations, allreduce wait time, mirror-back queue depth
  and recovery latency under one run-ID-stamped snapshot.
- **Export** (:mod:`~repro.observe.export`): JSON-lines event logs and
  Chrome/Perfetto ``trace_event`` files — a traced sharded fit renders
  as per-shard timelines in ``chrome://tracing``.
- **Compare** (:mod:`~repro.observe.compare`): joins measured span
  totals against the Table-1 cost model's per-phase predictions,
  turning "one total residual" into per-phase attribution.

Example
-------
>>> from repro.observe import Tracer, trace_scope, export_perfetto
>>> tracer = Tracer()
>>> with trace_scope(tracer):
...     model.fit(x, y, epochs=1)          # doctest: +SKIP
>>> export_perfetto(tracer, "fit.json")    # doctest: +SKIP
"""

from repro.observe.compare import (
    PhaseComparison,
    compare_phases,
    render_comparison,
)
from repro.observe.export import (
    export_jsonl,
    export_perfetto,
    perfetto_payload,
    validate_perfetto,
)
from repro.observe.metrics import MetricsRegistry
from repro.observe.runid import new_run_id, resolve_commit
from repro.instrument import (
    SpanEvent,
    Tracer,
    record_span,
    span,
    trace_scope,
)

__all__ = [
    "MetricsRegistry",
    "PhaseComparison",
    "SpanEvent",
    "Tracer",
    "compare_phases",
    "export_jsonl",
    "export_perfetto",
    "new_run_id",
    "perfetto_payload",
    "record_span",
    "render_comparison",
    "resolve_commit",
    "span",
    "trace_scope",
    "validate_perfetto",
]
