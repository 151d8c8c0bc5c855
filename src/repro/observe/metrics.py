"""A small registry of counters, gauges and histograms.

One :class:`MetricsRegistry` per run unifies every quantitative signal
the stack already produces — op totals from
:class:`~repro.instrument.OpMeter`, span durations from
:class:`~repro.observe.Tracer`, allreduce wait time, mirror-back
queue depth, :class:`~repro.shard.recovery.RecoveryEvent` latency —
under a single run-ID-stamped :meth:`~MetricsRegistry.snapshot`.

Metric name conventions
-----------------------
- ``ops/<category>`` — counters, one per frozen
  :data:`repro.instrument.OP_CATEGORIES` entry (plus any extra
  categories a meter carries).
- ``span/<name>_s`` — histograms of per-span wall-clock seconds
  (``span/allreduce_s`` is the allreduce wait-time distribution).
- ``span_count/<name>`` — counters of completed spans per name.
- ``mirror/queue_depth`` — histogram of per-mirror queued push tasks
  (0 when the transport writes through shared memory).
- ``recovery/latency_s`` / ``recovery/replayed_steps`` — histograms
  over the recovery log.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

from repro.instrument import OP_CATEGORIES, OpMeter, Tracer
from repro.observe.runid import new_run_id

__all__ = ["MetricsRegistry"]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted list.

    Matches ``numpy.percentile(values, 100 * q)`` (the default
    ``"linear"`` method).  An empty list yields NaN — a summary over no
    observations is undefined, not an error — and a single sample is its
    own percentile at every ``q``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class MetricsRegistry:
    """Thread-safe counters / gauges / histograms with one snapshot.

    Counters accumulate (``inc``), gauges hold the last value
    (``set_gauge``), histograms keep every observation (``observe``)
    and summarize at snapshot time
    (count/sum/min/max/mean/p50/p95/p99).
    """

    def __init__(self, run_id: Mapping[str, Any] | None = None) -> None:
        self.run_id = dict(run_id) if run_id is not None else new_run_id()
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

    # -- primitive instruments ------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Append ``value`` to histogram ``name``."""
        with self._lock:
            self._histograms.setdefault(name, []).append(value)

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        """Append every value to histogram ``name`` under one lock.

        The hot-path form of :meth:`observe` for callers that produce a
        cohort of observations at once (the serving dispatcher records
        a whole tick's per-request latencies per scatter): one lock
        round-trip instead of one per value, same histogram contents.
        """
        values = [float(v) for v in values]
        if not values:
            return  # as no observe() call: no empty histogram
        with self._lock:
            self._histograms.setdefault(name, []).extend(values)

    def histogram_values(self, name: str) -> list[float]:
        """The raw observations of histogram ``name`` so far, in
        insertion order (a copy; empty list if never observed).

        :meth:`snapshot` summarizes to percentiles; this accessor is
        for callers that need the individual samples — e.g. asserting
        the serving dispatcher's ``serve/batch_requests`` per-tick
        cohort sizes sum to exactly the admitted request count.
        """
        with self._lock:
            return list(self._histograms.get(name, ()))

    # -- ingestion from existing instrumentation ------------------------
    def ingest_op_counts(self, counts: Mapping[str, int] | OpMeter) -> None:
        """Fold an op-count snapshot (or a live meter) into
        ``ops/<category>`` counters.

        Every frozen :data:`~repro.instrument.OP_CATEGORIES` entry gets
        a counter even at zero, so snapshots have a stable key set.
        """
        if isinstance(counts, OpMeter):
            counts = counts.as_dict()
        for category in OP_CATEGORIES:
            self.inc(f"ops/{category}", counts.get(category, 0))
        for category, ops in counts.items():
            if category not in OP_CATEGORIES:
                self.inc(f"ops/{category}", ops)

    def ingest_tracer(self, tracer: Tracer) -> None:
        """Fold a tracer's spans into ``span/<name>_s`` histograms and
        ``span_count/<name>`` counters.

        Mirror spans additionally feed ``mirror/queue_depth`` from
        their ``queued`` attribute, so the async mirror-back pressure
        is visible without a dedicated gauge call site.
        """
        for ev in tracer.events:
            self.observe(f"span/{ev.name}_s", ev.duration_s)
            self.inc(f"span_count/{ev.name}")
            if ev.name == "mirror" and "queued" in ev.attrs:
                self.observe("mirror/queue_depth", float(ev.attrs["queued"]))

    def ingest_recovery_events(self, events: Iterable[Any]) -> None:
        """Fold :class:`~repro.shard.recovery.RecoveryEvent`\\ s into
        recovery latency / replay histograms and shrink counters."""
        for ev in events:
            self.inc("recovery/count")
            self.observe("recovery/latency_s", float(ev.recovery_s))
            self.observe("recovery/replayed_steps", float(ev.replayed_steps))
            self.inc("recovery/shards_lost", ev.old_g - ev.new_g)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Run-ID-stamped plain-dict snapshot of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {k: list(v) for k, v in self._histograms.items()}
        summarized = {}
        for name, values in sorted(histograms.items()):
            values.sort()
            summarized[name] = {
                "count": len(values),
                "sum": sum(values),
                "min": values[0],
                "max": values[-1],
                "mean": sum(values) / len(values),
                "p50": _percentile(values, 0.50),
                "p95": _percentile(values, 0.95),
                "p99": _percentile(values, 0.99),
            }
        return {
            "run_id": dict(self.run_id),
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": summarized,
        }
