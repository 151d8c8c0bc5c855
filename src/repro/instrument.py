"""Telemetry: operation counts and wall-clock spans on one thread-local
ambient.

The paper's resource abstraction reasons about the *number of parallel
operations* an iteration performs — e.g. one SGD iteration on a batch of
``m`` points costs ``(d + l) * m * n`` operations (Section 3, "Computational
cost").  To validate our cost model (Table 1) against the code that actually
runs, the kernel substrate emits operation counts (:func:`record_ops`) and
the trainers, transports and server open timed phases (:func:`span`).
:class:`OpMeter` answers *how much work* ran; :class:`Tracer` answers
*where the milliseconds went*.

Both sinks hang off one per-thread ambient — the active meters, the
active tracers and the span depth:

- :class:`meter_scope` and :class:`trace_scope` push a sink for the
  enclosed code and pop it by identity, so scopes may exit out of order
  under errors (the :class:`repro.config.ScopedOverride` scope shared
  with the precision and backend switches);
- :func:`record_ops` and :func:`span` record against every active sink
  and are near-free no-ops when none is active, so hot loops call them
  unconditionally;
- :func:`capture` takes an immutable :class:`Telemetry` snapshot of the
  ambient, and :meth:`Telemetry.relay` is the single rule for work
  measured elsewhere (shard worker threads and processes, the serving
  dispatcher): op-count deltas and span payloads are recorded against the
  sinks of the snapshot, where the result is consumed.

Spans never touch an :class:`OpMeter`: enabling or disabling tracing
cannot change an op count, an RPC count, or a numeric result — the
conformance suite pins this.

Timestamps are ``time.perf_counter()`` values.  On Linux this is
``CLOCK_MONOTONIC``, which is shared across processes on the same host,
so worker-side spans relayed from shard subprocesses land on the same
timeline as caller-side spans.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple

from repro.config import ScopedOverride, scoped_value

__all__ = [
    "OP_CATEGORIES",
    "OpMeter",
    "OpRecord",
    "SpanEvent",
    "Telemetry",
    "Tracer",
    "capture",
    "meter_scope",
    "record_ops",
    "record_span",
    "span",
    "trace_scope",
]

#: Frozen public contract: the operation categories the package records.
#:
#: These names are load-bearing across layers — the Table-1 cost model
#: buckets simulated time by them, transports relay worker-side deltas
#: keyed by them, and :class:`repro.observe.MetricsRegistry` exposes one
#: ``ops/<category>`` counter per entry.  Renaming or removing an entry
#: is a breaking change to persisted benchmark artifacts;
#: additions append.
#:
#: - ``"kernel_eval"`` — pairwise kernel evaluations, ``m * n * d`` scale.
#: - ``"gemm"`` — dense matrix products such as ``K @ W``, ``m * n * l``.
#: - ``"precond"`` — the EigenPro correction chain, ``s*m*l + 2*s*q*l``
#:   as executed (``Phi^T g`` first; the paper's Table 1 prices the
#:   ``V^T Phi``-first order at ``s*m*q``).
#: - ``"eig"`` — one-time eigensystem setup work.
#: - ``"allreduce"`` — cross-shard reduction traffic, ``(g-1) * payload``
#:   scalars, recorded caller-side by the shard collectives.
OP_CATEGORIES: tuple[str, ...] = (
    "kernel_eval",
    "gemm",
    "precond",
    "eig",
    "allreduce",
)


@dataclass
class OpRecord:
    """A single category of counted work.

    Attributes
    ----------
    ops:
        Number of scalar multiply-accumulate-level operations.
    calls:
        Number of times this category was recorded.
    """

    ops: int = 0
    calls: int = 0


@dataclass(eq=False)
class OpMeter:
    """Accumulates operation counts by category.

    Identity-based equality (``eq=False``): two meters are the same only
    if they are the same object, which the scope stack relies on.

    Category names are the frozen :data:`OP_CATEGORIES` contract; the
    meter itself accepts any string so experimental categories can be
    recorded without a contract change.
    """

    counts: dict[str, OpRecord] = field(
        default_factory=lambda: defaultdict(OpRecord)
    )

    def record(self, category: str, ops: int) -> None:
        """Add ``ops`` operations to ``category``."""
        rec = self.counts[category]
        rec.ops += int(ops)
        rec.calls += 1

    def total(self, *categories: str) -> int:
        """Total operations, optionally restricted to given categories."""
        if categories:
            return sum(self.counts[c].ops for c in categories if c in self.counts)
        return sum(rec.ops for rec in self.counts.values())

    def as_dict(self) -> dict[str, int]:
        """Plain ``{category: ops}`` snapshot for reporting."""
        return {name: rec.ops for name, rec in self.counts.items()}


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: a named, attributed wall-clock interval.

    Attributes
    ----------
    name:
        Phase name (``"form_block"``, ``"allreduce"``, ...).
    start_s:
        ``time.perf_counter()`` timestamp at span entry.
    duration_s:
        Wall-clock seconds between entry and exit.
    thread:
        Name of the thread the span ran on.
    depth:
        Nesting depth *at entry* on that thread (0 = top level).
    attrs:
        Free-form span attributes (``step=t``, ``shard=i``, ...).  Must
        stay picklable: worker-side spans cross a process pipe.
    """

    name: str
    start_s: float
    duration_s: float
    thread: str = ""
    depth: int = 0
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the exporters and the relay payload."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanEvent":
        return cls(
            name=payload["name"],
            start_s=float(payload["start_s"]),
            duration_s=float(payload["duration_s"]),
            thread=str(payload.get("thread", "")),
            depth=int(payload.get("depth", 0)),
            attrs=dict(payload.get("attrs", {})),
        )


class Tracer:
    """Thread-safe collector of completed :class:`SpanEvent`\\ s.

    A tracer is passive: it does nothing until pushed onto the ambient
    with :class:`trace_scope`, after which every :func:`span` opened on
    that thread (and every relayed worker-side span) is recorded here.
    Identity-based equality, like :class:`OpMeter`: the scope stack
    removes by identity.
    """

    def __init__(self) -> None:
        self._events: list[SpanEvent] = []
        self._lock = threading.Lock()

    def record(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    def record_many(self, events: Iterable[SpanEvent]) -> None:
        with self._lock:
            self._events.extend(events)

    @property
    def events(self) -> list[SpanEvent]:
        """Snapshot list of recorded spans (copy; safe to iterate)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def totals(self) -> dict[str, float]:
        """Summed wall-clock seconds per span name."""
        out: dict[str, float] = {}
        for ev in self.events:
            out[ev.name] = out.get(ev.name, 0.0) + ev.duration_s
        return out

    def counts(self) -> dict[str, int]:
        """Number of completed spans per span name."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.name] = out.get(ev.name, 0) + 1
        return out


class _Ambient(threading.local):
    """The package's one per-thread telemetry context."""

    def __init__(self) -> None:  # pragma: no cover - trivial
        self.meters: list[OpMeter] = []
        self.tracers: list[Tracer] = []
        self.depth: int = 0


_AMBIENT = _Ambient()
_METERS = ScopedOverride(_AMBIENT, "meters")
_TRACERS = ScopedOverride(_AMBIENT, "tracers")


class Telemetry(NamedTuple):
    """Immutable snapshot of one thread's telemetry ambient, taken by
    :func:`capture`.

    A snapshot holds exactly the sinks that were active when it was
    taken, unaffected by scopes entered or exited later — which is what
    lets the serving layer capture a request thread's tracers at submit
    time and relay dispatcher-side spans to them.
    """

    meters: tuple[OpMeter, ...]
    tracers: tuple[Tracer, ...]

    @property
    def tracing(self) -> bool:
        """True when the snapshot holds a tracer.  Transports read this
        at submit time — next to the ambient precision — so worker-side
        tasks know whether to measure spans without an extra
        round-trip."""
        return bool(self.tracers)

    def relay(
        self,
        ops: Mapping[str, int] | None = None,
        spans: Iterable[SpanEvent | Mapping[str, Any]] = (),
    ) -> None:
        """Record work measured on another thread or process against the
        snapshot's sinks.

        ``ops`` is a ``{category: ops}`` delta; zero entries are skipped
        so relaying never inflates a category's ``calls`` count with
        empty records.  ``spans`` are :class:`SpanEvent`\\ s or their
        plain-dict form (:meth:`SpanEvent.as_dict`, as they arrive over a
        process pipe), decoded once for all tracers.  A snapshot with no
        sinks records nothing.
        """
        if ops and self.meters:
            for category, n in ops.items():
                if n:
                    for meter in self.meters:
                        meter.record(category, n)
        if spans and self.tracers:
            events = [
                ev if isinstance(ev, SpanEvent) else SpanEvent.from_dict(ev)
                for ev in spans
            ]
            for tracer in self.tracers:
                tracer.record_many(events)


def capture() -> Telemetry:
    """Snapshot the meters and tracers active on this thread."""
    return Telemetry(tuple(_AMBIENT.meters), tuple(_AMBIENT.tracers))


def record_ops(category: str, ops: int) -> None:
    """Record ``ops`` operations against every active meter.

    No-op when no meter is active, so hot loops may call this
    unconditionally.
    """
    for meter in _AMBIENT.meters:
        meter.record(category, ops)


class meter_scope(scoped_value):
    """Context manager that makes a meter active for the enclosed code.

    Example
    -------
    >>> from repro.instrument import OpMeter, meter_scope
    >>> meter = OpMeter()
    >>> with meter_scope(meter):
    ...     pass  # metered work here
    """

    _state = _METERS

    def __init__(self, meter: OpMeter | None = None) -> None:
        super().__init__(meter if meter is not None else OpMeter())


class trace_scope(scoped_value):
    """Context manager that makes a tracer active for the enclosed code.

    Example
    -------
    >>> from repro.observe import Tracer, trace_scope, span
    >>> tracer = Tracer()
    >>> with trace_scope(tracer):
    ...     with span("form_block", step=0):
    ...         pass
    >>> [ev.name for ev in tracer.events]
    ['form_block']
    """

    _state = _TRACERS

    def __init__(self, tracer: Tracer | None = None) -> None:
        super().__init__(tracer if tracer is not None else Tracer())


class span:
    """Time a named phase against every active tracer.

    ``with span("gemm", step=t, shard=i): ...`` records one
    :class:`SpanEvent` per active tracer on exit.  When no tracer is
    active the context manager is a no-op whose entire cost is one
    attribute check — hot loops open spans unconditionally, exactly as
    they call :func:`record_ops` unconditionally.

    Spans nest: the per-thread depth counter is bumped while inside an
    enabled span, and each event records the depth at entry, so
    exporters can reconstruct the phase hierarchy without parent
    pointers.

    Attribution is fixed at *entry*: the set of tracers active when the
    span opens is the set that receives the event at exit.  A scope that
    exits while the span is still open keeps its event; a scope entered
    mid-span (another request's ``trace_scope`` interleaving on the same
    thread) does not see someone else's interval.
    """

    __slots__ = ("name", "attrs", "_start", "_depth", "_tracers")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self._start: float | None = None
        self._depth = 0
        self._tracers: tuple[Tracer, ...] = ()

    def __enter__(self) -> "span":
        if _AMBIENT.tracers:
            self._tracers = tuple(_AMBIENT.tracers)
            self._depth = _AMBIENT.depth
            _AMBIENT.depth += 1
            self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._start is None:
            return
        duration = time.perf_counter() - self._start
        _AMBIENT.depth -= 1
        event = SpanEvent(
            name=self.name,
            start_s=self._start,
            duration_s=duration,
            thread=threading.current_thread().name,
            depth=self._depth,
            attrs=self.attrs,
        )
        for tracer in self._tracers:
            tracer.record(event)
        self._tracers = ()


def record_span(
    name: str,
    start_s: float,
    duration_s: float,
    **attrs: Any,
) -> None:
    """Record an explicitly timed interval against every active tracer.

    For phases that cannot be bracketed by a single ``with`` block —
    e.g. the post-recovery replay window, whose start and end live in
    different loop iterations.  No-op when no tracer is active.
    """
    if not _AMBIENT.tracers:
        return
    event = SpanEvent(
        name=name,
        start_s=start_s,
        duration_s=duration_s,
        thread=threading.current_thread().name,
        attrs=attrs,
    )
    for tracer in _AMBIENT.tracers:
        tracer.record(event)
